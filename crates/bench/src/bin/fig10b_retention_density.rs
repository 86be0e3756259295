//! Regenerates Fig. 10b: population density of per-row retention BER at a
//! 4 s refresh window, per manufacturer, at nominal and reduced `V_PP`.

use hammervolt_bench::figures::fig10b_series;
use hammervolt_bench::Scale;
use hammervolt_core::exec::retention_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_dram::vendor::Manufacturer;
use hammervolt_stats::plot::{render, PlotConfig};
use std::collections::BTreeMap;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!(
        "Fig. 10b: Per-row retention BER distribution at t_REFW = 4 s (80 °C)"
    );
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = retention_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    // (mfr, vpp mV) → row BERs at 4 s, for the prose summary
    let mut pops: BTreeMap<(char, u64), Vec<f64>> = BTreeMap::new();
    for sweep in &sweeps {
        let id = sweep.module;
        for &vpp in &sweep.vpp_levels {
            let rows = sweep.row_bers_at(vpp, 4.0);
            pops.entry((id.manufacturer().letter(), (vpp * 1000.0) as u64))
                .or_default()
                .extend(rows);
        }
    }
    let paper_4s = [
        ("A", 0.003, 0.008),
        ("B", 0.002, 0.005),
        ("C", 0.014, 0.025),
    ];
    for mfr in Manufacturer::ALL {
        for &vpp_mv in &[2500u64, 1500] {
            let Some(bers) = pops.get(&(mfr.letter(), vpp_mv)) else {
                continue;
            };
            if bers.is_empty() {
                continue;
            }
            let mean = bers.iter().sum::<f64>() / bers.len() as f64;
            let (_, p_nom, p_red) = paper_4s
                .iter()
                .find(|(l, _, _)| l.starts_with(mfr.letter()))
                .copied()
                .unwrap_or(("", 0.0, 0.0));
            hammervolt_bench::outln!(
                "{mfr} at {:.1} V: mean 4 s BER {mean:.2e} (paper: {:.1e} nominal → {:.1e} at 1.5 V)",
                vpp_mv as f64 / 1000.0,
                p_nom,
                p_red
            );
        }
    }
    let series = fig10b_series(&sweeps);
    let plot = render(
        &series,
        &PlotConfig {
            title: "row population density vs retention BER at 4 s".into(),
            x_label: "retention BER".into(),
            y_label: "density".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
    hammervolt_bench::outln!("{}", serde_json::to_string(&series).expect("serialize"));
}
