//! `spice_mc`: the Fig. 8b protocol — Monte-Carlo activation at five `V_PP`
//! levels, 400 trials each, at 2 workers (`HAMMERVOLT_JOBS=2`) — and its
//! traced serial replay of every trial.

use crate::spans::{span, Tracer};
use crate::workload::{Layers, PassOutput, Size, TracedOutput};
use hammervolt_spice::batch::BatchedActivation;
use hammervolt_spice::dram_cell::{monte_carlo_activation, DramCellParams, McActivationStats};
use hammervolt_spice::montecarlo::MonteCarlo;
use std::fmt::Write as _;
use std::time::Instant;

const LEVELS: [f64; 5] = [2.5, 1.9, 1.8, 1.7, 1.6];

pub struct Inputs {
    params: DramCellParams,
    mc: MonteCarlo,
}

/// Seed 0 is the figure's own Monte-Carlo seed.
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let trials = match size {
        Size::Full => 400,
        Size::Tiny => 4,
    };
    let mc = MonteCarlo::quick(trials);
    Inputs {
        params: DramCellParams::default(),
        mc: MonteCarlo {
            seed: mc.seed.wrapping_add(seed),
            ..mc
        },
    }
}

/// One level's statistics as text lines, floats as exact bit patterns.
fn render(stats: &McActivationStats, out: &mut String) {
    let _ = writeln!(
        out,
        "vpp={:016x} trials={} failures={} solver_failures={}",
        stats.vpp.to_bits(),
        stats.trials,
        stats.failures,
        stats.solver_failures
    );
    for (name, values) in [
        ("t_rcd", &stats.t_rcd),
        ("t_ras", &stats.t_ras),
        ("v_restore", &stats.v_restore),
    ] {
        let _ = write!(out, "{name}");
        for v in values {
            let _ = write!(out, " {:016x}", v.to_bits());
        }
        out.push('\n');
    }
}

/// Every trial is accounted for exactly once.
fn consistent(stats: &McActivationStats, trials: usize) -> bool {
    stats.trials == trials
        && stats.t_rcd.len() + stats.failures == trials
        && stats.t_ras.len() == stats.t_rcd.len()
        && stats.v_restore.len() + stats.solver_failures == trials
}

/// The five levels' statistics from the library's batched runner.
fn engine(inputs: &Inputs) -> Result<Vec<McActivationStats>, String> {
    LEVELS
        .iter()
        .map(|&vpp| {
            monte_carlo_activation(&inputs.params, vpp, &inputs.mc)
                .map_err(|e| format!("Monte-Carlo at {vpp} V failed: {e}"))
        })
        .collect()
}

/// The payload text and the number of levels failing [`consistent`].
fn payload(inputs: &Inputs, levels: &[McActivationStats]) -> (String, u64) {
    let mut text = String::new();
    let mut failed = 0;
    for stats in levels {
        failed += u64::from(!consistent(stats, inputs.mc.trials));
        render(stats, &mut text);
    }
    (text, failed)
}

pub fn pass(inputs: &Inputs) -> Result<PassOutput, String> {
    let t0 = Instant::now();
    let levels = engine(inputs)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (text, failed) = payload(inputs, &levels);
    Ok(PassOutput {
        wall_s,
        payload: text.into_bytes(),
        attempted: LEVELS.len() as u64,
        failed,
        extras: Vec::new(),
    })
}

/// The serial replay: per level the symbolic analysis, one workspace, then
/// every trial in index order, folded the way the batch runner folds them.
fn replay(
    t: &mut Tracer,
    inputs: &Inputs,
    trial_ns: &mut Vec<u64>,
) -> Result<String, hammervolt_spice::SpiceError> {
    let base = &inputs.params;
    let mut text = String::new();
    for vpp in LEVELS {
        let batch = span(t, "spice.symbolic", |_| BatchedActivation::new(base, vpp))?;
        let mut ws = span(t, "spice.workspace", |_| batch.workspace());
        let mut stats = McActivationStats {
            vpp,
            t_rcd: Vec::new(),
            t_ras: Vec::new(),
            v_restore: Vec::new(),
            failures: 0,
            solver_failures: 0,
            trials: inputs.mc.trials,
        };
        for trial in 0..inputs.mc.trials {
            t.enter("spice.trial");
            let outcome = batch.run_trial(&mut ws, &inputs.mc, trial);
            trial_ns.push(t.exit());
            match outcome {
                Ok(m) => {
                    stats.v_restore.push(m.v_cell_final);
                    match (m.sensed_correctly, m.t_rcd_min, m.t_ras_min) {
                        (true, Some(rcd), Some(ras)) if rcd <= base.t_rcd_reliable_cap => {
                            stats.t_rcd.push(rcd);
                            stats.t_ras.push(ras);
                        }
                        _ => stats.failures += 1,
                    }
                }
                Err(e) if e.is_trial_failure() => {
                    stats.failures += 1;
                    stats.solver_failures += 1;
                }
                Err(e) => return Err(e),
            }
        }
        render(&stats, &mut text);
    }
    Ok(text)
}

pub fn traced(seed: u64, size: Size) -> Result<TracedOutput, String> {
    let inputs = inputs(seed, size);
    let t0 = Instant::now();
    let levels = engine(&inputs)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (reference, inconsistent) = payload(&inputs, &levels);

    let mut t = Tracer::new("spice_mc");
    let mut trial_ns = Vec::new();
    let replayed = replay(&mut t, &inputs, &mut trial_ns);
    let tree = t.finish();
    let replayed = replayed.map_err(|e| format!("replay failed: {e}"))?;

    let trial_ms: Vec<f64> = trial_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
    let failed_trials: usize = levels.iter().map(|s| s.failures).sum();
    let mut layers = Layers::default();
    layers.set("spice.symbolic_s", tree.total_s("spice.symbolic"));
    layers.set("spice.workspace_s", tree.total_s("spice.workspace"));
    layers.set("spice.trial_ms_p50", crate::stats::quantile(&trial_ms, 0.5));
    layers.set(
        "spice.trial_ms_p99",
        crate::stats::quantile(&trial_ms, 0.99),
    );
    layers.set("spice.failed_trials", failed_trials as f64);
    layers.set("spice.trials_per_s", trial_ms.len() as f64 / wall_s);
    layers.set(
        "par.efficiency",
        trial_ms.iter().sum::<f64>() * 1e-3 / (2.0 * wall_s),
    );
    layers.tracing(&tree);
    Ok(TracedOutput {
        layers,
        spans: tree,
        digest: crate::stats::fnv1a64(reference.as_bytes()),
        attempted: 1 + LEVELS.len() as u64,
        failed: u64::from(replayed != reference) + inconsistent,
    })
}
