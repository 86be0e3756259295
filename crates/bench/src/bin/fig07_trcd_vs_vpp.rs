//! Regenerates Fig. 7: minimum reliable `t_RCD` across `V_PP` levels, one
//! curve per module, with the nominal 13.5 ns annotated.

use hammervolt_bench::figures::fig07_series;
use hammervolt_bench::Scale;
use hammervolt_core::exec::trcd_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_dram::timing::NOMINAL_T_RCD_NS;
use hammervolt_stats::plot::{render, PlotConfig};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Fig. 7: Minimum reliable t_RCD across different V_PP levels");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let levels_cap = match scale {
        Scale::Paper => 12,
        _ => 4,
    };
    let sweeps = trcd_sweeps(&cfg, levels_cap, &scale.exec(), &JobControl::new()).expect("sweep");
    let series = fig07_series(&sweeps);
    let mut exceeders = Vec::new();
    for s in &series {
        let sweep = sweeps
            .iter()
            .find(|sw| sw.module.label() == s.label)
            .expect("series labels come from sweeps");
        if let Some(last) = s.points.last() {
            if last.y > NOMINAL_T_RCD_NS {
                exceeders.push(format!("{} ({:.1} ns)", s.label, last.y));
            }
            hammervolt_bench::outln!(
                "{}: worst t_RCDmin {:.1} ns at 2.5 V → {:.1} ns at V_PPmin {:.1} V",
                s.label,
                s.points.first().unwrap().y,
                last.y,
                sweep.vpp_min,
            );
        }
    }
    hammervolt_bench::outln!(
        "\nmodules exceeding nominal 13.5 ns at V_PPmin: {} \
         (paper: A0, A1, A2, B2, B5)",
        if exceeders.is_empty() {
            "none".to_string()
        } else {
            exceeders.join(", ")
        }
    );
    let plot = render(
        &series,
        &PlotConfig {
            title: format!("t_RCDmin vs V_PP (nominal t_RCD = {NOMINAL_T_RCD_NS} ns)"),
            x_label: "V_PP (V)".into(),
            y_label: "t_RCDmin (ns)".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
    hammervolt_bench::outln!("{}", serde_json::to_string(&series).expect("serialize"));
}
