//! Regenerates Fig. 10a: data-retention BER across refresh windows for
//! several `V_PP` levels (80 °C), averaged across modules and rows.

use hammervolt_bench::figures::fig10a_series;
use hammervolt_bench::Scale;
use hammervolt_core::exec::retention_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_stats::plot::{render, PlotConfig};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Fig. 10a: Retention BER across refresh windows per V_PP (80 °C)");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = retention_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    let series = fig10a_series(&sweeps);
    let four_s_log = 4.0f64.log10();
    for s in &series {
        let four_s = s
            .points
            .iter()
            .find(|p| (p.x - four_s_log).abs() < 0.01)
            .map(|p| p.y)
            .unwrap_or(f64::NAN);
        hammervolt_bench::outln!(
            "V_PP = {}: mean BER at t_REFW = 4 s is {four_s:.2e}",
            s.label
        );
    }
    hammervolt_bench::outln!(
        "\n(paper Obsv. 12: the retention BER curve is higher at smaller V_PP; \
         at 4 s, mean BER roughly doubles from 2.5 V to 1.5 V)"
    );
    let plot = render(
        &series,
        &PlotConfig {
            title: "retention BER vs refresh window (x = log10 seconds)".into(),
            x_label: "log10 t_REFW (s)".into(),
            y_label: "retention BER".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
    hammervolt_bench::outln!("{}", serde_json::to_string(&series).expect("serialize"));
}
