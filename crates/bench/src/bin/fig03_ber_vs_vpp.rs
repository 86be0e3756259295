//! Regenerates Fig. 3: normalized RowHammer BER across `V_PP` levels, one
//! curve per module, with 90 % confidence bands.

use hammervolt_bench::figures::fig03_series;
use hammervolt_bench::Scale;
use hammervolt_core::exec::rowhammer_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_stats::plot::{render, PlotConfig};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Fig. 3: Normalized BER values across different V_PP levels");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = rowhammer_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    let series = fig03_series(&sweeps);
    for s in &series {
        let sweep = sweeps
            .iter()
            .find(|sw| sw.module.label() == s.label)
            .expect("series labels come from sweeps");
        let last = s.points.last().expect("non-empty series");
        hammervolt_bench::outln!(
            "{}: normalized BER at V_PPmin ({:.1} V) = {:.3} [{:.3}, {:.3}]",
            s.label,
            sweep.vpp_min,
            last.y,
            last.band.map(|b| b.lo).unwrap_or(f64::NAN),
            last.band.map(|b| b.hi).unwrap_or(f64::NAN),
        );
    }
    let plot = render(
        &series,
        &PlotConfig {
            title: "normalized BER vs V_PP (1.0 = BER at 2.5 V)".into(),
            x_label: "V_PP (V)".into(),
            y_label: "normalized BER".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
    hammervolt_bench::outln!(
        "{}",
        serde_json::to_string(&series).expect("series serialize")
    );
}
