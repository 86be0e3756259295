//! Regenerates Fig. 5: normalized `HC_first` across `V_PP` levels, one curve
//! per module, with 90 % confidence bands.

use hammervolt_bench::figures::fig05_series;
use hammervolt_bench::Scale;
use hammervolt_core::exec::rowhammer_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_stats::plot::{render, PlotConfig};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Fig. 5: Normalized HC_first values across different V_PP levels");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = rowhammer_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    let series = fig05_series(&sweeps);
    for s in &series {
        let sweep = sweeps
            .iter()
            .find(|sw| sw.module.label() == s.label)
            .expect("series labels come from sweeps");
        let last = s.points.last().expect("non-empty series");
        hammervolt_bench::outln!(
            "{}: normalized HC_first at V_PPmin ({:.1} V) = {:.3}",
            s.label,
            sweep.vpp_min,
            last.y,
        );
    }
    let plot = render(
        &series,
        &PlotConfig {
            title: "normalized HC_first vs V_PP (1.0 = HC_first at 2.5 V)".into(),
            x_label: "V_PP (V)".into(),
            y_label: "normalized HC_first".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
    hammervolt_bench::outln!(
        "{}",
        serde_json::to_string(&series).expect("series serialize")
    );
}
