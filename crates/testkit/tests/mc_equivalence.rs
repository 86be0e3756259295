//! Serial-vs-batched Monte-Carlo equivalence: the shared-structure parallel
//! runner must be *bit-identical* to the serial reference, for any worker
//! count — the same contract the `equivalence` suite enforces between each
//! SoftMC session operation and its program.
//!
//! Every test runs the same `(params, vpp, MonteCarlo)` study through
//! [`monte_carlo_activation_serial`] (fresh circuit, layout, and transient
//! engine per trial — the reference) and through [`BatchedActivation::run`]
//! at worker counts {1, 2, 8}, then asserts the resulting
//! [`McActivationStats`] agree field by field with every `f64` compared via
//! `to_bits` — an ulp of drift from reordered arithmetic or schedule-
//! dependent folding fails. The two paths solve with different code: the
//! reference steps one circuit with `Transient` and `Matrix::solve_in_place`,
//! the batched runner steps groups of eight trials in lockstep, one per
//! lane of `TransientSolver<8>`, with its lane-wide MOSFET evaluation and
//! lane LU (`linear::LaneLu`) compiled for AVX-512 where the host has it,
//! so these tests also pin the lanes — full groups, the partial last group,
//! lanes that fail beside lanes that complete — to the reference on the
//! activation system itself.
//!
//! The fault-injection tests pin the no-abort contract: a parameter draw
//! that makes the solver fail numerically is counted as a failed trial
//! (`solver_failures`) in both paths identically, while deterministic
//! configuration errors still propagate.

use hammervolt_spice::batch::BatchedActivation;
use hammervolt_spice::dram_cell::{
    monte_carlo_activation, monte_carlo_activation_serial, DramCellParams, McActivationStats,
};
use hammervolt_spice::montecarlo::MonteCarlo;
use hammervolt_spice::SpiceError;

/// Coarse-step parameters so a study of a few trials stays test-sized.
fn quick_params() -> DramCellParams {
    DramCellParams {
        t_stop: 40e-9,
        dt: 20e-12,
        ..DramCellParams::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_identical(fast: &McActivationStats, reference: &McActivationStats, what: &str) {
    assert_eq!(fast.vpp.to_bits(), reference.vpp.to_bits(), "{what}: vpp");
    assert_eq!(fast.trials, reference.trials, "{what}: trials");
    assert_eq!(fast.failures, reference.failures, "{what}: failures");
    assert_eq!(
        fast.solver_failures, reference.solver_failures,
        "{what}: solver_failures"
    );
    assert_eq!(bits(&fast.t_rcd), bits(&reference.t_rcd), "{what}: t_rcd");
    assert_eq!(bits(&fast.t_ras), bits(&reference.t_ras), "{what}: t_ras");
    assert_eq!(
        bits(&fast.v_restore),
        bits(&reference.v_restore),
        "{what}: v_restore"
    );
}

#[test]
fn batched_matches_serial_across_worker_counts() {
    // The coarse configuration, then the default one: 5,000 steps at 10 ps,
    // what `spice_mc` and the Fig. 8b/9b harnesses run, with its lowest
    // V_PP level.
    let studies = [
        ("quick", quick_params(), MonteCarlo::quick(10), [2.5, 1.8]),
        (
            "default",
            DramCellParams::default(),
            MonteCarlo::quick(3),
            [2.5, 1.6],
        ),
    ];
    for (name, base, mc, levels) in studies {
        for vpp in levels {
            let reference = monte_carlo_activation_serial(&base, vpp, &mc).unwrap();
            assert_eq!(reference.v_restore.len(), mc.trials, "all trials complete");
            let batch = BatchedActivation::new(&base, vpp).unwrap();
            for jobs in [1usize, 2, 8] {
                let fast = batch.run(&mc, jobs).unwrap();
                assert_bit_identical(
                    &fast,
                    &reference,
                    &format!("{name} params, vpp {vpp}, jobs {jobs}"),
                );
            }
        }
    }
}

#[test]
fn batched_results_are_schedule_independent() {
    // More trials than workers, so claiming order genuinely varies between
    // worker counts — results must not.
    let base = quick_params();
    let mc = MonteCarlo::quick(12);
    let batch = BatchedActivation::new(&base, 2.2).unwrap();
    let one = batch.run(&mc, 1).unwrap();
    let eight = batch.run(&mc, 8).unwrap();
    assert_bit_identical(&eight, &one, "1 vs 8 workers");
}

#[test]
fn default_entry_point_is_the_batched_path() {
    // `monte_carlo_activation` (what the fig08b/fig09b/table2 harnesses
    // call) must produce the same statistics as the serial oracle.
    let base = quick_params();
    let mc = MonteCarlo::quick(6);
    let via_default = monte_carlo_activation(&base, 2.5, &mc).unwrap();
    let reference = monte_carlo_activation_serial(&base, 2.5, &mc).unwrap();
    assert_bit_identical(&via_default, &reference, "default entry point");
}

#[test]
fn failing_trial_does_not_abort_the_batch() {
    // A one-iteration Newton budget cannot converge the sense-amplifier
    // latch: every trial fails numerically. The study must still complete,
    // reporting the failures, in both paths identically — the serial path
    // used to panic out of the whole study on the first bad trial.
    let base = DramCellParams {
        max_newton: 1,
        ..quick_params()
    };
    let mc = MonteCarlo::quick(5);
    let reference = monte_carlo_activation_serial(&base, 2.5, &mc).unwrap();
    assert_eq!(reference.solver_failures, mc.trials);
    assert_eq!(reference.failures, mc.trials);
    assert!(reference.t_rcd.is_empty() && reference.v_restore.is_empty());

    let batch = BatchedActivation::new(&base, 2.5).unwrap();
    for jobs in [1usize, 2, 8] {
        let fast = batch.run(&mc, jobs).unwrap();
        assert_bit_identical(&fast, &reference, &format!("failing trials, jobs {jobs}"));
    }
}

#[test]
fn trial_failures_leave_successful_trials_intact() {
    // Wide variation and a tight Newton budget split a study: some trials
    // fail numerically while others complete — the mixed case, and in the
    // batched runner a failing lane among live lanes of one group. Under
    // the generous default budget the same draws all complete, so the
    // failures are the budget's; the survivors' measurements are those of
    // the generous run (each trial is independent), and the batched runner
    // matches the serial reference bit for bit at every worker count. The
    // first study fails 13 of its 16 trials (mostly failing lanes around a
    // survivor), the second 1 of 16 (one failing lane beside seven that
    // complete).
    for (variation, vpp, max_newton) in [(0.9, 2.0, 3), (0.99, 2.5, 4)] {
        let mc = MonteCarlo {
            variation,
            ..MonteCarlo::quick(16)
        };
        let what = format!("variation {variation}, vpp {vpp}, max_newton {max_newton}");
        let generous = monte_carlo_activation_serial(&quick_params(), vpp, &mc).unwrap();
        assert_eq!(generous.solver_failures, 0, "{what}: generous budget");
        let base = DramCellParams {
            max_newton,
            ..quick_params()
        };
        let serial = monte_carlo_activation_serial(&base, vpp, &mc).unwrap();
        assert!(
            serial.solver_failures > 0 && serial.solver_failures < mc.trials,
            "{what}: {} of {} trials failed, not a split",
            serial.solver_failures,
            mc.trials
        );
        assert_eq!(
            serial.v_restore.len() + serial.solver_failures,
            mc.trials,
            "{what}: completed trials still report v_restore"
        );
        let mut all = bits(&generous.v_restore).into_iter();
        assert!(
            bits(&serial.v_restore).iter().all(|&v| all.any(|g| g == v)),
            "{what}: survivors' v_restore is the generous run's, in trial order"
        );
        let batch = BatchedActivation::new(&base, vpp).unwrap();
        for jobs in [1usize, 2, 8] {
            let fast = batch.run(&mc, jobs).unwrap();
            assert_bit_identical(&fast, &serial, &format!("{what}, jobs {jobs}"));
        }
    }
}

#[test]
fn config_errors_still_propagate() {
    // Deterministic configuration errors are properties of the whole study,
    // not of one draw: both paths must reject, not count-and-continue.
    let bad = DramCellParams {
        dt: -1.0,
        ..quick_params()
    };
    let mc = MonteCarlo::quick(2);
    assert!(matches!(
        monte_carlo_activation_serial(&bad, 2.5, &mc),
        Err(SpiceError::InvalidConfig { .. })
    ));
    assert!(matches!(
        BatchedActivation::new(&bad, 2.5),
        Err(SpiceError::InvalidConfig { .. })
    ));
    let zero_newton = DramCellParams {
        max_newton: 0,
        ..quick_params()
    };
    assert!(matches!(
        monte_carlo_activation_serial(&zero_newton, 2.5, &mc),
        Err(SpiceError::InvalidConfig { .. })
    ));
}
