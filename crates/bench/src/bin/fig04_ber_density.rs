//! Regenerates Fig. 4: population density of per-row normalized BER at
//! `V_PPmin`, per manufacturer.

use hammervolt_bench::figures::fig04_series;
use hammervolt_bench::{paper, Scale};
use hammervolt_core::exec::rowhammer_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_core::study::ratios_by_manufacturer;
use hammervolt_dram::vendor::Manufacturer;
use hammervolt_stats::plot::{render, PlotConfig};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Fig. 4: Population density of normalized BER at V_PPmin, per Mfr.");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = rowhammer_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    let grouped = ratios_by_manufacturer(&sweeps);
    for mfr in Manufacturer::ALL {
        let Some((ber, _)) = grouped.get(&mfr) else {
            continue;
        };
        if ber.is_empty() {
            continue;
        }
        let min = ber.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ber.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let paper_range = paper::BER_RANGES
            .iter()
            .find(|(l, _, _)| l.starts_with(mfr.letter()))
            .map(|&(_, lo, hi)| (lo, hi))
            .unwrap_or((0.0, 0.0));
        hammervolt_bench::outln!(
            "{mfr}: {} rows, normalized BER range [{min:.2}, {max:.2}] (paper: [{:.2}, {:.2}])",
            ber.len(),
            paper_range.0,
            paper_range.1
        );
    }
    let series = fig04_series(&sweeps);
    let plot = render(
        &series,
        &PlotConfig {
            title: "row population density vs normalized BER at V_PPmin".into(),
            x_label: "normalized BER (1.0 = nominal)".into(),
            y_label: "density".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
    hammervolt_bench::outln!("{}", serde_json::to_string(&series).expect("serialize"));
}
