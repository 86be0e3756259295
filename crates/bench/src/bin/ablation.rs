//! Ablation study of the device model's two `V_PP` mechanisms.
//!
//! The model attributes a row's voltage response to two competing effects
//! (§2.3/§6.2): weaker per-activation disturbance (dq) and weaker charge
//! restoration (qcrit). This harness ablates each mechanism and shows that
//! *both* are required to reproduce the paper's population: dq-only predicts
//! universal improvement (no Obsv. 2/5 minority); qcrit-only predicts
//! universal worsening.

use hammervolt_dram::physics::{
    dq_relative, hc_multiplier, qcrit_relative, solve_coeffs, DisturbCoeffs,
};
use hammervolt_stats::table::AsciiTable;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("Ablation: which mechanism produces which population behaviour?\n");
    let vpp_min = 1.6;
    let mut t = AsciiTable::new(vec![
        "row archetype".into(),
        "full model".into(),
        "dq-only".into(),
        "qcrit-only".into(),
    ]);
    let archetypes = [
        ("typical (+7 %)", 1.074, 0.30, 0.80),
        ("strong responder (+86 %)", 1.858, 0.40, 0.50),
        ("minority (−9 %)", 0.909, 0.45, 0.95),
    ];
    for (label, target, margin, share) in archetypes {
        let c = solve_coeffs(target, vpp_min, margin, share);
        let dq_only = DisturbCoeffs {
            sense_margin: c.sense_margin,
            restore_shift_v: 2.0, // knee far below any tested V_PP
            ..c
        };
        let qcrit_only = DisturbCoeffs {
            sensitivity: 0.0,
            ..c
        };
        t.add_row(vec![
            label.to_string(),
            format!("{:.3}", hc_multiplier(vpp_min, &c)),
            format!("{:.3}", hc_multiplier(vpp_min, &dq_only)),
            format!("{:.3}", hc_multiplier(vpp_min, &qcrit_only)),
        ]);
    }
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!(
        "\n(normalized HC_first at V_PP = {vpp_min} V; > 1 = harder to hammer)\n"
    );

    hammervolt_bench::outln!("mechanism breakdown across the ladder for the typical archetype:");
    let c = solve_coeffs(1.074, vpp_min, 0.30, 0.80);
    let mut t2 = AsciiTable::new(vec![
        "V_PP (V)".into(),
        "dq (rel.)".into(),
        "qcrit (rel.)".into(),
        "HC multiplier".into(),
    ]);
    for vpp10 in (16..=25).rev() {
        let vpp = vpp10 as f64 / 10.0;
        t2.add_row(vec![
            format!("{vpp:.1}"),
            format!("{:.3}", dq_relative(vpp, &c)),
            format!("{:.3}", qcrit_relative(vpp, &c)),
            format!("{:.3}", hc_multiplier(vpp, &c)),
        ]);
    }
    hammervolt_bench::out!("{}", t2.render());
    hammervolt_bench::outln!(
        "\nTakeaway: the dq reduction drives the HC_first gain; the qcrit loss \
         below the restoration knee pulls against it and, for rows with weak \
         access devices, wins — the paper's Obsv. 2/5 minority."
    );
}
