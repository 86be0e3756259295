//! Regenerates the §6.1 guardband analysis: average `t_RCD` guardband
//! reduction at `V_PPmin` across modules that stay reliable at the nominal
//! latency, plus the 24 ns / 15 ns fixes for the failing modules.

use hammervolt_bench::figures::guardband_summary;
use hammervolt_bench::{compare_line, paper, Scale};
use hammervolt_core::exec::trcd_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_stats::table::AsciiTable;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("§6.1: t_RCD guardband under reduced V_PP");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = trcd_sweeps(&cfg, 2, &scale.exec(), &JobControl::new()).expect("sweep");
    let summary = guardband_summary(&sweeps);
    let mut t = AsciiTable::new(vec![
        "DIMM".into(),
        "worst@2.5V (ns)".into(),
        "worst@VPPmin (ns)".into(),
        "guardband loss".into(),
        "nominal OK?".into(),
        "fix".into(),
    ]);
    for row in &summary.rows {
        t.add_row(vec![
            row.module.clone(),
            format!("{:.1}", row.worst_nominal_ns),
            format!("{:.1}", row.worst_vppmin_ns),
            row.guardband_loss
                .map(|l| format!("{:.1} %", l * 100.0))
                .unwrap_or_else(|| "-".into()),
            if row.reliable_at_nominal { "yes" } else { "NO" }.into(),
            row.fix.clone(),
        ]);
    }
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!(
        "\nmodules failing nominal t_RCD at V_PPmin: {} (paper: A0, A1, A2, B2, B5)",
        if summary.failing.is_empty() {
            "none".into()
        } else {
            summary.failing.join(", ")
        }
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "mean guardband reduction (reliable modules)",
            paper::GUARDBAND_REDUCTION,
            summary.mean_reduction
        )
    );
    hammervolt_bench::outln!("{}", serde_json::to_string(&summary).expect("serialize"));
}
