//! Regenerates Fig. 6: population density of per-row normalized `HC_first`
//! at `V_PPmin`, per manufacturer.

use hammervolt_bench::figures::fig06_series;
use hammervolt_bench::{paper, Scale};
use hammervolt_core::exec::rowhammer_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_core::study::ratios_by_manufacturer;
use hammervolt_dram::vendor::Manufacturer;
use hammervolt_stats::descriptive::fraction_where;
use hammervolt_stats::plot::{render, PlotConfig};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!(
        "Fig. 6: Population density of normalized HC_first at V_PPmin, per Mfr."
    );
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = rowhammer_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    let grouped = ratios_by_manufacturer(&sweeps);
    for mfr in Manufacturer::ALL {
        let Some((_, hc)) = grouped.get(&mfr) else {
            continue;
        };
        if hc.is_empty() {
            continue;
        }
        let min = hc.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = hc.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let increased = fraction_where(hc, |v| v > 1.01).unwrap_or(0.0);
        let paper_range = paper::HC_RANGES
            .iter()
            .find(|(l, _, _)| l.starts_with(mfr.letter()))
            .map(|&(_, lo, hi)| (lo, hi))
            .unwrap_or((0.0, 0.0));
        hammervolt_bench::outln!(
            "{mfr}: {} rows, range [{min:.2}, {max:.2}] (paper [{:.2}, {:.2}]), \
             {:.1} % rows increased",
            hc.len(),
            paper_range.0,
            paper_range.1,
            increased * 100.0
        );
    }
    hammervolt_bench::outln!(
        "\n(paper: HC_first increases in 83.5 % of Mfr. C rows vs 50.9 % of Mfr. A rows)"
    );
    let series = fig06_series(&sweeps);
    let plot = render(
        &series,
        &PlotConfig {
            title: "row population density vs normalized HC_first at V_PPmin".into(),
            x_label: "normalized HC_first (1.0 = nominal)".into(),
            y_label: "density".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
    hammervolt_bench::outln!("{}", serde_json::to_string(&series).expect("serialize"));
}
