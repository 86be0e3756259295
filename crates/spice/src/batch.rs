//! Batched, parallel Monte-Carlo activation runs with shared MNA structure.
//!
//! The serial study path ([`monte_carlo_activation_serial`]) rebuilds the
//! activation circuit, re-runs layout/validation, and reallocates the MNA
//! matrix, right-hand side, and traces for every one of its (up to 10 000)
//! trials. [`BatchedActivation`] removes all of that repeated work:
//!
//! - **One symbolic analysis per netlist shape.** The circuit template,
//!   node handles, element slots, and solver layout are computed once at
//!   construction. Per trial, only element *values* are patched in place.
//! - **Per-worker workspaces.** Each worker builds one [`TrialWorkspace`]
//!   (a template circuit per lane + [`TransientSolver`] + trace sink) and
//!   reuses it for every trial it claims — the steady-state trial loop
//!   performs no heap allocation.
//! - **Trial lanes.** Trials `[8g, 8g + 8)` run as lane group `g`: one
//!   `TransientSolver<8>` pass steps all eight in lockstep, each lane bit
//!   for bit the trial it would be alone (see [`crate::transient`]). With
//!   AVX-512 a lane group's `[f64; 8]` entry is one register, and the
//!   solver evaluates its MOSFETs lane-wide, so eight lanes beat four on
//!   either build (EXPERIMENTS.md, "Vectorized SPICE lanes"). The last
//!   group of a study may be partial. [`BatchedActivation::run_trial`]
//!   runs one trial as the one-lane instance of the same code.
//! - **Only what the measurements read.** A group keeps one time base and
//!   per lane the cell trace; the sensed bitline's first crossing of the
//!   read level is found as samples arrive, and both bitlines' final
//!   voltages come from the solver's final state.
//! - **Data-parallel groups.** Groups fan out over
//!   [`hammervolt_par::parallel_map_with`] — the same deterministic
//!   fork-join scheduler the engine crate uses. Because every trial's RNG
//!   stream is derived from its index alone ([`MonteCarlo::trial_rng`]),
//!   lanes never mix, and results are folded in trial order, the
//!   statistics are **bit-identical** to the serial path for any worker
//!   count.
//! - **No mid-study aborts.** A pathological parameter draw that makes the
//!   solver fail (singular matrix, Newton non-convergence, degenerate
//!   output) is counted as a failed trial, and its lane-mates complete;
//!   only deterministic configuration/netlist errors propagate.
//!
//! The equivalence contract is enforced by `hammervolt-testkit`'s
//! `mc_equivalence` suite, the same way its `equivalence` suite pins each
//! SoftMC session operation to its program.
//!
//! [`monte_carlo_activation_serial`]: crate::dram_cell::monte_carlo_activation_serial

use crate::analysis::Crossing;
use crate::dram_cell::{
    measure_activation, ActivationMeasurement, ActivationSim, CellNodes, DramCellParams,
    McActivationStats,
};
use crate::error::SpiceError;
use crate::montecarlo::MonteCarlo;
use crate::netlist::{Circuit, NodeId};
use crate::transient::{validate, TraceSink, TransientConfig, TransientSolver};
use hammervolt_par::parallel_map_with;
use std::ops::Range;

/// Element indices of every per-trial-varied component in the activation
/// circuit template, resolved once by name.
#[derive(Debug, Clone, Copy)]
struct ElementSlots {
    ccell: usize,
    cbl1: usize,
    cbl2: usize,
    cblr1: usize,
    cblr2: usize,
    rcell: usize,
    rbl: usize,
    rblr: usize,
    macc: usize,
    mn1: usize,
    mn2: usize,
    mp1: usize,
    mp2: usize,
}

impl ElementSlots {
    fn resolve(circuit: &Circuit) -> Result<Self, SpiceError> {
        let missing = |name: &str| SpiceError::InvalidElement {
            name: name.to_string(),
            reason: "activation template is missing this element".to_string(),
        };
        let cap = |n: &str| circuit.capacitor_index(n).ok_or_else(|| missing(n));
        let res = |n: &str| circuit.resistor_index(n).ok_or_else(|| missing(n));
        let fet = |n: &str| circuit.mosfet_index(n).ok_or_else(|| missing(n));
        Ok(ElementSlots {
            ccell: cap("Ccell")?,
            cbl1: cap("Cbl1")?,
            cbl2: cap("Cbl2")?,
            cblr1: cap("Cblr1")?,
            cblr2: cap("Cblr2")?,
            rcell: res("Rcell")?,
            rbl: res("Rbl")?,
            rblr: res("Rblr")?,
            macc: fet("Macc")?,
            mn1: fet("Mn1")?,
            mn2: fet("Mn2")?,
            mp1: fet("Mp1")?,
            mp2: fet("Mp2")?,
        })
    }
}

/// Trials per lane group of [`BatchedActivation::run`]: the width of the
/// [`TransientSolver`] it steps them with. Chosen by measurement: eight
/// lanes fill one AVX-512 register per entry, and on the portable build
/// they also ran faster than four.
const LANES: usize = 8;

/// One worker's reusable trial state for lane groups of `L` trials: a
/// patchable copy of the circuit template per lane, a prepared transient
/// solver, and a sink keeping only what the measurements read. Built once
/// per worker; every per-trial buffer is reused.
#[derive(Debug, Clone)]
pub struct TrialWorkspace<const L: usize> {
    circuits: [Circuit; L],
    solver: TransientSolver<L>,
    sink: ActivationTraces<L>,
}

/// The sink of an activation lane group: one time base, and per lane the
/// cell trace and the sensed bitline's read-level crossing — all that
/// [`measure_activation`] reads besides the bitlines' final voltages, which
/// come from the solver's final state. Finding the crossing as the samples
/// arrive, instead of keeping the sensed bitline's trace, halves the trace
/// memory a lane needs.
#[derive(Debug, Clone)]
struct ActivationTraces<const L: usize> {
    cell: NodeId,
    sat: NodeId,
    times: Vec<f64>,
    v_cell: [Vec<f64>; L],
    /// Each lane's read-level crossing, set for its trial before the run.
    read: [Crossing; L],
}

impl<const L: usize> TraceSink<L> for ActivationTraces<L> {
    fn begin(&mut self, _n_nodes: usize, capacity: usize) {
        self.times.clear();
        self.times.reserve(capacity);
        for trace in &mut self.v_cell {
            trace.clear();
            trace.reserve(capacity);
        }
    }

    fn record(&mut self, t: f64, volts: &[[f64; L]]) {
        self.times.push(t);
        let lanes = volts[self.cell].iter().zip(&volts[self.sat]);
        for ((trace, read), (&cell, &sat)) in self.v_cell.iter_mut().zip(&mut self.read).zip(lanes)
        {
            trace.push(cell);
            read.push(t, sat);
        }
    }
}

/// A prepared Monte-Carlo activation batch at one `V_PP` level.
///
/// Construction performs the symbolic analysis (circuit build, element-slot
/// resolution, layout/validation) once; [`run`] fans lane groups of trials
/// across workers.
///
/// [`run`]: BatchedActivation::run
#[derive(Debug, Clone)]
pub struct BatchedActivation {
    base: DramCellParams,
    vpp: f64,
    nodes: CellNodes,
    slots: ElementSlots,
    template: Circuit,
    config: TransientConfig,
}

impl BatchedActivation {
    /// Prepares a batch for a cell storing `1` at the given `V_PP` — the
    /// paper's Fig. 8/9 protocol.
    ///
    /// # Errors
    ///
    /// Fails on configuration/netlist errors (the same conditions the
    /// serial path rejects per trial).
    pub fn new(base: &DramCellParams, vpp: f64) -> Result<Self, SpiceError> {
        let (template, nodes) = ActivationSim::new(*base).build(vpp, true);
        let slots = ElementSlots::resolve(&template)?;
        let config = TransientConfig {
            t_stop: base.t_stop,
            dt: base.dt,
            record_stride: 1,
            max_newton: base.max_newton,
            ..TransientConfig::default()
        };
        validate(&template, &config)?;
        Ok(BatchedActivation {
            base: *base,
            vpp,
            nodes,
            slots,
            template,
            config,
        })
    }

    /// The node handles of the template circuit.
    pub fn nodes(&self) -> CellNodes {
        self.nodes
    }

    /// A fresh one-trial workspace for [`run_trial`](Self::run_trial).
    pub fn workspace(&self) -> TrialWorkspace<1> {
        self.lanes()
    }

    /// A fresh workspace for lane groups of `L` trials.
    fn lanes<const L: usize>(&self) -> TrialWorkspace<L> {
        TrialWorkspace {
            circuits: std::array::from_fn(|_| self.template.clone()),
            solver: TransientSolver::new(&self.template, self.config)
                .expect("`new` validated the template and its configuration"),
            sink: ActivationTraces {
                cell: self.nodes.cell,
                sat: self.nodes.sat,
                times: Vec::new(),
                v_cell: std::array::from_fn(|_| Vec::new()),
                read: [self.base.read_crossing(true); L],
            },
        }
    }

    /// Patches the perturbed parameters into the workspace circuit, writing
    /// exactly the values [`ActivationSim::build`] would compute — same
    /// expressions, same degenerate-value clamps — so the patched template
    /// is element-for-element identical to a freshly built circuit.
    fn patch(&self, circuit: &mut Circuit, p: &DramCellParams) {
        let s = &self.slots;
        let half = p.vdd / 2.0;
        circuit.set_capacitance(s.ccell, p.c_cell, p.restore_saturation(self.vpp));
        circuit.set_resistance(s.rcell, p.r_cell);
        circuit.set_capacitance(s.cbl1, p.c_bitline / 2.0, half);
        circuit.set_resistance(s.rbl, p.r_bitline);
        circuit.set_capacitance(s.cbl2, p.c_bitline / 2.0, half);
        circuit.set_capacitance(s.cblr1, p.c_bitline / 2.0, half);
        circuit.set_resistance(s.rblr, p.r_bitline);
        circuit.set_capacitance(s.cblr2, p.c_bitline / 2.0, half);
        circuit.set_mosfet_params(s.macc, p.access);
        circuit.set_mosfet_params(s.mn1, p.sa_nmos_t);
        circuit.set_mosfet_params(s.mn2, p.sa_nmos_r);
        circuit.set_mosfet_params(s.mp1, p.sa_pmos_t);
        circuit.set_mosfet_params(s.mp2, p.sa_pmos_r);
    }

    /// Runs one trial in the given workspace: draw the trial's parameters,
    /// patch the circuit, integrate, measure. Pure in the trial index —
    /// independent of worker assignment and of whatever ran in the
    /// workspace before.
    ///
    /// # Errors
    ///
    /// Returns the solver's error for a failed trial; callers classify it
    /// with [`SpiceError::is_trial_failure`].
    pub fn run_trial(
        &self,
        ws: &mut TrialWorkspace<1>,
        mc: &MonteCarlo,
        trial: usize,
    ) -> Result<ActivationMeasurement, SpiceError> {
        let [outcome] = self.run_group(ws, mc, trial..trial + 1);
        outcome.expect("a one-trial group fills its lane")
    }

    /// Runs trials `trials` (at most `L` of them) as one lane group:
    /// draws and patches each lane, integrates the group in lockstep, and
    /// measures each lane that completed. Lane `l` holds trial
    /// `trials.start + l`; lanes past the group are `None`. Each lane's
    /// outcome is what [`run_trial`](Self::run_trial) gives for its trial.
    fn run_group<const L: usize>(
        &self,
        ws: &mut TrialWorkspace<L>,
        mc: &MonteCarlo,
        trials: Range<usize>,
    ) -> [Option<Result<ActivationMeasurement, SpiceError>>; L] {
        let count = trials.len();
        let mut params = [self.base; L];
        let lanes = params
            .iter_mut()
            .zip(&mut ws.circuits)
            .zip(&mut ws.sink.read);
        for (((p, circuit), read), trial) in lanes.zip(trials) {
            let mut rng = mc.trial_rng(trial);
            *p = self.base.perturbed(mc, &mut rng);
            self.patch(circuit, p);
            *read = p.read_crossing(true);
        }
        let outcomes = ws.solver.run(&ws.circuits[..count], &mut ws.sink);
        let [sat, saf] = [self.nodes.sat, self.nodes.saf].map(|node| ws.solver.final_volts(node));
        std::array::from_fn(|lane| {
            if lane >= count {
                return None;
            }
            let newton = match &outcomes {
                Ok(lanes) => lanes[lane].clone(),
                Err(group) => Err(group.clone()),
            };
            Some(newton.and_then(|_| {
                measure_activation(
                    &params[lane],
                    true,
                    &ws.sink.times,
                    &ws.sink.v_cell[lane],
                    sat[lane],
                    saf[lane],
                    ws.sink.read[lane].time(),
                )
            }))
        })
    }

    /// Runs the full batch across `jobs` workers (0 = all cores), stepping
    /// trials `[8g, 8g + 8)` together as lane group `g`, and folds
    /// per-trial results in trial-index order.
    ///
    /// # Errors
    ///
    /// Propagates the first (by trial index) non-trial error. Trial-level
    /// numerical failures are counted in the statistics instead.
    pub fn run(&self, mc: &MonteCarlo, jobs: usize) -> Result<McActivationStats, SpiceError> {
        let groups: Vec<Range<usize>> = (0..mc.trials)
            .step_by(LANES)
            .map(|first| first..(first + LANES).min(mc.trials))
            .collect();
        let outcomes = parallel_map_with(
            &groups,
            jobs,
            || self.lanes::<LANES>(),
            |ws, trials| self.run_group(ws, mc, trials.clone()),
        );

        let mut stats = McActivationStats {
            vpp: self.vpp,
            t_rcd: Vec::new(),
            t_ras: Vec::new(),
            v_restore: Vec::new(),
            failures: 0,
            solver_failures: 0,
            trials: mc.trials,
        };
        for outcome in outcomes.into_iter().flatten().flatten() {
            match outcome {
                Ok(m) => stats.fold_measurement(&self.base, &m),
                Err(e) if e.is_trial_failure() => stats.fold_solver_failure(),
                Err(e) => return Err(e),
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram_cell::monte_carlo_activation_serial;
    use crate::ptm;

    fn quick_params() -> DramCellParams {
        DramCellParams {
            t_stop: 40e-9,
            dt: 20e-12,
            ..DramCellParams::default()
        }
    }

    fn assert_stats_bit_identical(a: &McActivationStats, b: &McActivationStats) {
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.solver_failures, b.solver_failures);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.t_rcd), bits(&b.t_rcd));
        assert_eq!(bits(&a.t_ras), bits(&b.t_ras));
        assert_eq!(bits(&a.v_restore), bits(&b.v_restore));
    }

    #[test]
    fn batched_matches_serial_bitwise() {
        let base = quick_params();
        let mc = MonteCarlo::quick(6);
        let serial = monte_carlo_activation_serial(&base, ptm::VPP_NOMINAL, &mc).unwrap();
        let batch = BatchedActivation::new(&base, ptm::VPP_NOMINAL).unwrap();
        for jobs in [1, 2] {
            let fast = batch.run(&mc, jobs).unwrap();
            assert_stats_bit_identical(&fast, &serial);
        }
    }

    #[test]
    fn patched_template_equals_fresh_build() {
        let base = quick_params();
        let mc = MonteCarlo::quick(3);
        let batch = BatchedActivation::new(&base, 2.2).unwrap();
        let [mut circuit] = batch.workspace().circuits;
        for trial in 0..mc.trials {
            let mut rng = mc.trial_rng(trial);
            let p = base.perturbed(&mc, &mut rng);
            batch.patch(&mut circuit, &p);
            let (fresh, _) = ActivationSim::new(p).build(2.2, true);
            assert_eq!(circuit.resistors, fresh.resistors, "trial {trial}");
            assert_eq!(circuit.capacitors, fresh.capacitors, "trial {trial}");
            assert_eq!(circuit.mosfets, fresh.mosfets, "trial {trial}");
            assert_eq!(circuit.sources, fresh.sources, "trial {trial}");
        }
    }

    #[test]
    fn failing_trials_are_counted_not_fatal() {
        // A one-iteration Newton budget cannot converge the latch: every
        // trial fails numerically, yet the batch completes and reports.
        let base = DramCellParams {
            max_newton: 1,
            ..quick_params()
        };
        let mc = MonteCarlo::quick(3);
        let stats = BatchedActivation::new(&base, ptm::VPP_NOMINAL)
            .unwrap()
            .run(&mc, 2)
            .unwrap();
        assert_eq!(stats.solver_failures, 3);
        assert_eq!(stats.failures, 3);
        assert!(stats.t_rcd.is_empty());
        assert!(stats.v_restore.is_empty());
        // and the serial oracle counts identically
        let serial = monte_carlo_activation_serial(&base, ptm::VPP_NOMINAL, &mc).unwrap();
        assert_stats_bit_identical(&stats, &serial);
    }

    #[test]
    fn config_errors_propagate() {
        let base = DramCellParams {
            dt: -1.0,
            ..quick_params()
        };
        assert!(matches!(
            BatchedActivation::new(&base, ptm::VPP_NOMINAL),
            Err(SpiceError::InvalidConfig { .. })
        ));
    }
}
