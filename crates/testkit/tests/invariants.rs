//! Paper-invariant property suite: Observations 1–15 of the DSN 2022 study
//! as executable monotonicity/ordering properties over the `hammervolt`
//! physics model, plus device- and sweep-level checks of the same claims
//! through the measurement stack.
//!
//! Each property names the observation(s) it encodes. Pure-physics
//! properties run many cases; device-level properties run a handful (each
//! case brings up a simulated module).

use hammervolt_core::exec::{retention_sweeps, ExecConfig};
use hammervolt_core::job::JobControl;
use hammervolt_dram::physics::{
    dq_relative, hc_multiplier, qcrit_relative, restore_fraction, restore_level, solve_coeffs,
    t_ras_required_ns, t_rcd_required_ns, RetentionProfile, TrcdCoeffs, VDD, VPP_NOMINAL,
};
use hammervolt_dram::registry::ModuleId;
use hammervolt_testkit::golden_config;
use proptest::prelude::*;

/// Orders a `(f64, f64)` pair so `lo <= hi`.
fn ordered(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Obsv. 10: the restored cell voltage is full V_DD above the knee and
    // falls monotonically with V_PP below it, never out of [0, VDD].
    #[test]
    fn restore_level_monotone_and_bounded(a in 0.5f64..3.0, b in 0.5f64..3.0) {
        let (lo, hi) = ordered(a, b);
        prop_assert!(restore_level(lo) <= restore_level(hi) + 1e-12);
        prop_assert!(restore_level(lo) >= 0.0);
        prop_assert!(restore_level(hi) <= VDD + 1e-12);
    }

    // Obsv. 10 corollary: the restored-charge fraction is normalized — 1
    // at and above the ≈1.96 V knee, in [0, 1] everywhere.
    #[test]
    fn restore_fraction_normalized(vpp in 0.5f64..3.0) {
        let f = restore_fraction(vpp);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f), "fraction {f} at {vpp}");
        if vpp >= 2.0 {
            prop_assert!((f - 1.0).abs() < 1e-12, "fraction {f} at {vpp}");
        }
    }

    // §2.3: per-activation disturbance grows with V_PP (more charge
    // injection at higher wordline voltage), normalized to 1 at nominal.
    #[test]
    fn disturbance_monotone_in_vpp(
        sensitivity in 0.05f64..0.75,
        a in 0.5f64..3.0,
        b in 0.5f64..3.0,
    ) {
        let c = solve_coeffs(1.0, 1.6, 0.4, 0.8);
        let c = hammervolt_dram::physics::DisturbCoeffs { sensitivity, ..c };
        let (lo, hi) = ordered(a, b);
        prop_assert!(dq_relative(lo, &c) <= dq_relative(hi, &c) + 1e-12);
        prop_assert!((dq_relative(VPP_NOMINAL, &c) - 1.0).abs() < 1e-12);
        prop_assert!(dq_relative(lo, &c) > 0.0);
    }

    // Obsv. 10: critical charge is exactly nominal above the row's
    // restoration knee, degrades monotonically below it, and stays
    // positive.
    #[test]
    fn critical_charge_monotone_and_unity_at_nominal(
        margin in 0.36f64..1.1,
        shift in -0.3f64..0.3,
        a in 0.5f64..3.0,
        b in 0.5f64..3.0,
    ) {
        let c = hammervolt_dram::physics::DisturbCoeffs {
            sensitivity: 0.0,
            sense_margin: margin,
            restore_shift_v: shift,
        };
        let (lo, hi) = ordered(a, b);
        let q_lo = qcrit_relative(lo, &c);
        let q_hi = qcrit_relative(hi, &c);
        prop_assert!(q_lo <= q_hi + 1e-12, "qcrit({lo})={q_lo} > qcrit({hi})={q_hi}");
        prop_assert!(q_lo > 0.0);
        prop_assert!((qcrit_relative(VPP_NOMINAL, &c) - 1.0).abs() < 1e-12);
    }

    // Table 3 calibration: solve_coeffs realizes the target HC_first
    // multiplier *exactly* at V_PPmin, and the multiplier is exactly 1 at
    // nominal V_PP — both sides of the Obsv. 4 normalization.
    #[test]
    fn solved_rows_hit_their_target_multiplier(
        target in 0.86f64..1.86,
        vpp_min in 1.4f64..2.0,
        margin in 0.25f64..0.5,
        share in 0.5f64..0.95,
    ) {
        let c = solve_coeffs(target, vpp_min, margin, share);
        let m = hc_multiplier(vpp_min, &c);
        prop_assert!((m - target).abs() < 1e-6, "target {target}, realized {m}");
        prop_assert!((hc_multiplier(VPP_NOMINAL, &c) - 1.0).abs() < 1e-9);
        prop_assert!(c.sensitivity >= 0.0);
    }

    // Obsvs. 4 and 5: majority rows (target > 1) need *more* hammers at
    // V_PPmin; minority rows (target < 1) flip *easier* — and the minority
    // behaviour requires the critical-charge loss to dominate.
    #[test]
    fn majority_and_minority_rows_split_at_unity(
        up in 1.02f64..1.86,
        down in 0.86f64..0.98,
        vpp_min in 1.4f64..2.0,
        margin in 0.25f64..0.5,
    ) {
        let majority = solve_coeffs(up, vpp_min, margin, 0.75);
        prop_assert!(hc_multiplier(vpp_min, &majority) > 1.0);
        let minority = solve_coeffs(down, vpp_min, margin, 0.9);
        let m = hc_multiplier(vpp_min, &minority);
        prop_assert!(m < 1.0, "minority row realized {m}");
        prop_assert!(qcrit_relative(vpp_min, &minority) < 1.0);
    }

    // Obsvs. 8–9 (§6.1): the minimum reliable t_RCD never shrinks as V_PP
    // falls, and above nominal V_PP no speedup is modeled.
    #[test]
    fn trcd_requirement_nonincreasing_in_vpp(
        base in 10.0f64..13.0,
        slope in 0.0f64..12.0,
        curve in 1.0f64..3.0,
        a in 0.5f64..3.0,
        b in 0.5f64..3.0,
    ) {
        let c = TrcdCoeffs { base_ns: base, slope_ns: slope, curve };
        let (lo, hi) = ordered(a, b);
        prop_assert!(t_rcd_required_ns(lo, &c) + 1e-12 >= t_rcd_required_ns(hi, &c));
        prop_assert!((t_rcd_required_ns(VPP_NOMINAL, &c) - base).abs() < 1e-12);
        prop_assert!((t_rcd_required_ns(2.9, &c) - base).abs() < 1e-12);
    }

    // Fig. 9b (SPICE): required t_RAS sits in the calibrated 21–30 ns
    // band and never shrinks as V_PP falls.
    #[test]
    fn tras_requirement_bounded_and_nonincreasing(a in 0.5f64..3.0, b in 0.5f64..3.0) {
        let (lo, hi) = ordered(a, b);
        for v in [lo, hi] {
            let t = t_ras_required_ns(v);
            prop_assert!((21.0 - 1e-9..=30.0 + 1e-9).contains(&t), "t_RAS({v}) = {t}");
        }
        prop_assert!(t_ras_required_ns(lo) + 1e-12 >= t_ras_required_ns(hi));
    }

    // §6.3: retention-time temperature scaling is Arrhenius — exactly 1 at
    // the 80 °C reference, monotonically shorter when hotter.
    #[test]
    fn retention_temperature_scaling_is_arrhenius(
        ea in 0.3f64..0.7,
        a in 30.0f64..95.0,
        b in 30.0f64..95.0,
    ) {
        let p = RetentionProfile { mu_ln_s: 4.7, sigma_ln: 1.2, vpp_exponent: 1.0, ea_ev: ea };
        prop_assert!((p.temperature_scale(80.0) - 1.0).abs() < 1e-12);
        let (cool, hot) = ordered(a, b);
        prop_assert!(p.temperature_scale(cool) + 1e-12 >= p.temperature_scale(hot));
    }

    // Obsv. 12: reduced V_PP only ever *shortens* retention — the scale is
    // 1 above the restoration knee and decays monotonically below it.
    #[test]
    fn retention_vpp_scaling_shortens_below_knee(
        exponent in 0.5f64..2.0,
        a in 0.6f64..3.0,
        b in 0.6f64..3.0,
    ) {
        let p = RetentionProfile {
            mu_ln_s: 4.7,
            sigma_ln: 1.2,
            vpp_exponent: exponent,
            ea_ev: 0.55,
        };
        let (lo, hi) = ordered(a, b);
        let s_lo = p.vpp_scale(lo);
        let s_hi = p.vpp_scale(hi);
        prop_assert!(s_lo <= s_hi + 1e-12);
        prop_assert!(s_hi <= 1.0 + 1e-12);
        // Below vpp ≈ 0.984 V the restore level sits under the sense floor
        // and the scale is legitimately zero — cells hold no readable charge.
        let floor_vpp = (hammervolt_dram::physics::V_SENSE_FLOOR + 0.506) / 0.87;
        if lo > floor_vpp + 1e-9 {
            prop_assert!(s_lo > 0.0, "scale collapsed to {s_lo} at {lo}");
        } else {
            prop_assert!(s_lo >= 0.0);
        }
        if lo >= 2.0 {
            prop_assert!((s_lo - 1.0).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Obsv. 4 at device level: every instantiated row's ground-truth
    // HC_first multiplier is 1 at nominal V_PP, and its required t_RCD is
    // no smaller at V_PPmin than at nominal (Obsv. 8) — through the module
    // oracle rather than raw physics.
    #[test]
    fn module_oracles_respect_nominal_normalization(
        id in proptest::sample::select(vec![ModuleId::A0, ModuleId::B3, ModuleId::C5]),
        row in 0u32..8,
    ) {
        let cfg = golden_config();
        let mut mc = cfg.bring_up(id).expect("bring-up");
        let bank = cfg.bank;
        let m = mc.module_mut().oracle_hc_multiplier(bank, row, VPP_NOMINAL);
        prop_assert!((m - 1.0).abs() < 1e-9, "{id:?} row {row}: multiplier {m}");
        let vpp_min = hammervolt_dram::registry::spec(id).vpp_min;
        let t_nom = mc.module_mut().oracle_t_rcd_required(bank, row, VPP_NOMINAL);
        let t_min = mc.module_mut().oracle_t_rcd_required(bank, row, vpp_min);
        prop_assert!(t_min + 1e-9 >= t_nom, "{id:?} row {row}: {t_min} < {t_nom}");
    }
}

// Obsv. 11 through the full measurement stack: at every V_PP level of
// every golden module, the mean retention BER never decreases as the
// refresh window grows.
#[test]
fn retention_ber_monotone_in_refresh_window() {
    let cfg = golden_config();
    let sweeps = retention_sweeps(&cfg, &ExecConfig::serial(), &JobControl::new());
    let sweeps = sweeps.expect("retention sweep");
    assert_eq!(sweeps.len(), 3);
    for sweep in &sweeps {
        for &vpp in &sweep.vpp_levels {
            let curve = sweep.mean_ber_curve(vpp);
            assert!(
                curve.len() >= 2,
                "{:?} at {vpp}: degenerate curve",
                sweep.module
            );
            for pair in curve.windows(2) {
                assert!(
                    pair[1].1 + 1e-12 >= pair[0].1,
                    "{:?} at {vpp} V: BER fell from {} (t={}) to {} (t={})",
                    sweep.module,
                    pair[0].1,
                    pair[0].0,
                    pair[1].1,
                    pair[1].0
                );
            }
        }
    }
}

// Obsv. 12 across levels: at the paper's 4 s refresh window, the lowest
// swept V_PP shows at least the nominal level's mean retention BER.
// (Levels above the ≈1.96 V restoration knee share the nominal retention
// scale and differ only by measurement noise, so only the nominal-to-
// lowest comparison is a physical invariant.)
#[test]
fn retention_ber_at_4s_no_better_at_lowest_vpp() {
    let cfg = golden_config();
    let sweeps = retention_sweeps(&cfg, &ExecConfig::serial(), &JobControl::new());
    let sweeps = sweeps.expect("retention sweep");
    for sweep in &sweeps {
        let mean_at = |vpp: f64| {
            let rows = sweep.row_bers_at(vpp, 4.0);
            assert!(!rows.is_empty(), "{:?}: no rows at {vpp}", sweep.module);
            rows.iter().sum::<f64>() / rows.len() as f64
        };
        let nominal = *sweep.vpp_levels.first().expect("levels");
        let lowest = *sweep.vpp_levels.last().expect("levels");
        assert!(
            nominal > lowest,
            "{:?}: levels not descending",
            sweep.module
        );
        assert!(
            mean_at(lowest) + 1e-12 >= mean_at(nominal),
            "{:?}: mean 4 s BER fell from {nominal} V to {lowest} V",
            sweep.module
        );
    }
}
