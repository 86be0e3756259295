//! Transient analysis: backward-Euler integration with Newton–Raphson.
//!
//! Capacitors use backward-Euler companion models (`g_eq = C/Δt` in parallel
//! with a history current source), which is L-stable — the right choice for
//! the stiff, strongly-regenerative sense-amplifier latch in the DRAM cell
//! netlist. Nonlinear devices (MOSFETs) are re-linearized every Newton
//! iteration; iteration continues until the solution is stationary within
//! `abstol + reltol·|v|`, with per-iteration voltage damping for robustness.
//!
//! Two engines share these semantics:
//!
//! - [`Transient`] — the reference implementation: one shot per circuit,
//!   re-stamps the full MNA system every Newton iteration and clones the
//!   matrix per solve. Simple, obviously correct, and retained as the
//!   equivalence oracle for the fast path.
//! - [`TransientSolver<L>`] — the fast path, stepping `L` same-shaped
//!   circuits in lockstep, one per lane: every matrix, right-hand-side and
//!   voltage entry is an `[f64; L]`. Symbolic analysis (layout, validation,
//!   workspace sizing) happens once at construction. Per run, each lane's
//!   step-invariant base matrix (gmin, resistors, capacitor companion
//!   conductances, source incidence) is stamped once, and each MOSFET's
//!   lane constants and stamp offsets are worked out once; per *timestep*
//!   only the base right-hand side (capacitor history currents, source
//!   values) is rebuilt; each Newton iteration copies the base, evaluates
//!   every MOSFET lane-wide, adds the linearizations and solves every lane
//!   by replaying the run's [`LuSchedule`] — no heap allocation anywhere in
//!   the stepping loop. Newton iterates until every running lane has
//!   converged. The stepping loop runs compiled for AVX-512 where the host
//!   has it. Designed for Monte-Carlo batches that patch element values
//!   into a template circuit and re-run thousands of times; the one-lane
//!   instance `TransientSolver<1>` runs a single trial.
//!
//! Each lane is bit-identical to the reference by construction:
//!
//! - **Base system.** Matrix and right-hand side accumulate independently,
//!   so splitting the base stamps between run and step still gives every
//!   entry the same floating-point additions in the same order (base stamps
//!   first, MOSFET stamps last — exactly the reference's stamping order).
//!   Each lane's base matrix is stamped by the reference's own [`Stamper`]
//!   calls; the right-hand side repeats them lane by lane.
//! - **Devices.** Per run, each MOSFET's [`LaneMosfet`] holds every lane's
//!   constants (`K'·(W/L)`, `√φ`, the mirrored bulk), computed by the
//!   scalar model's own expressions, and [`LaneMosfet::evaluate`] picks
//!   each lane's polarity mirror, terminal swap and region by select, so
//!   every lane gets [`MosfetParams::evaluate`]'s bits. The stamps land
//!   lane-wise in the reference's order, through matrix offsets worked out
//!   once per run.
//! - **Solve.** Per run the solver marks every matrix entry its stamps can
//!   touch (`mna::pattern`, from the first circuit's wiring, which every
//!   lane shares). The run's first system goes to the reference,
//!   [`LaneLu::solve`], which solves each lane with
//!   [`Matrix::solve_in_place`] and reports the rows the first lane's pivot
//!   search swapped in; from those rows and the pattern the solver compiles
//!   a [`LuSchedule`]. Every later system replays it on all lanes together
//!   ([`LaneLu::solve_scheduled`]): per column it checks in every pending
//!   lane that partial pivoting picks the scheduled row, then eliminates
//!   over the pattern and its fill-in in `solve_in_place`'s operation
//!   order, with no row swaps. Skipping an entry the pattern leaves out is
//!   exact, because the assembly leaves such an entry `+0.0` and never
//!   produces `−0.0`. The replay declines where a lane's pivot search would
//!   pick another row, where a scheduled pivot is under the threshold or
//!   NaN, and where a lane's solution is not finite; the solver then builds
//!   the working system again, solves each lane with the reference, and
//!   compiles a new schedule from its pivot rows. Either way each lane's
//!   solve is the same pure function of its assembled bits; the crate's
//!   property tests compare the replay with `solve_in_place` on
//!   adversarial systems and on stale schedules.
//! - **Newton.** A lane that has converged is frozen by select, never by
//!   arithmetic, so its later group iterations cannot touch it; a lane that
//!   fails leaves the group with the error the reference returns, and the
//!   others go on. Per-lane Newton counts equal the reference's.
//! - **Build.** The stepping loop — stamping, the scheduled LU, damping —
//!   is one [`Kernel`] with every step `#[inline(always)]`; the schedule's
//!   replay is one copy for every unknown count, since its lists carry
//!   their own lengths. Where `Avx512::detect` finds AVX-512F, DQ
//!   and VL it runs through `Avx512::run` (`hammervolt_par::simd`), where
//!   an `[f64; 8]` entry is one register; otherwise it is the portable
//!   build. No option chooses. Both builds compile the same IEEE
//!   operations in the same order, and Rust never fuses a multiply and an
//!   add, so the bits do not depend on the build (a NaN's sign and
//!   payload aside, which Rust leaves unspecified).
//!
//! This module's `lane_solver_matches_reference_bit_for_bit` property test
//! (through each build the host runs) and `hammervolt-testkit`'s
//! `mc_equivalence` suite enforce the contract against the reference
//! engine the same way the compiled-SoftMC-plan suites enforce interpreter
//! parity.
//!
//! [`MosfetParams::evaluate`]: crate::mosfet::MosfetParams::evaluate
//! [`Matrix::solve_in_place`]: crate::linear::Matrix::solve_in_place
//! [`LaneLu::solve`]: crate::linear::LaneLu::solve
//! [`LaneLu::solve_scheduled`]: crate::linear::LaneLu::solve_scheduled

use crate::error::SpiceError;
use crate::linear::{LaneLu, LaneMatrix, LuSchedule, LU_SCHEDULE_MAX};
use crate::mna::{self, Layout, Stamper};
use crate::mosfet::LaneMosfet;
use crate::netlist::{Circuit, Mosfet, NodeId};
#[cfg(target_arch = "x86_64")]
use hammervolt_par::simd::Avx512;
use hammervolt_par::simd::Kernel;

/// Transient analysis configuration.
#[derive(Debug, Clone, Copy)]
pub struct TransientConfig {
    /// Stop time in seconds.
    pub t_stop: f64,
    /// Fixed timestep in seconds.
    pub dt: f64,
    /// Maximum Newton iterations per timestep.
    pub max_newton: usize,
    /// Absolute voltage convergence tolerance (V).
    pub abstol: f64,
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Minimum conductance from every node to ground (S), for matrix
    /// conditioning.
    pub gmin: f64,
    /// Per-Newton-iteration voltage change clamp (V); damping for strongly
    /// regenerative circuits.
    pub max_dv: f64,
    /// Record every `record_stride`-th step (1 = every step). The initial
    /// point and the final step are always recorded.
    pub record_stride: usize,
}

impl Default for TransientConfig {
    fn default() -> Self {
        TransientConfig {
            t_stop: 1e-9,
            dt: 1e-12,
            max_newton: 100,
            abstol: 1e-6,
            reltol: 1e-4,
            gmin: 1e-12,
            max_dv: 0.5,
            record_stride: 1,
        }
    }
}

/// Result of a transient run: time points and per-node voltage traces.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// traces[node][sample]
    traces: Vec<Vec<f64>>,
    newton_iterations: usize,
}

impl TransientResult {
    /// Recorded time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage trace of a node, if it exists. Ground's trace is all zeros.
    pub fn trace(&self, node: NodeId) -> Option<&[f64]> {
        self.traces.get(node).map(Vec::as_slice)
    }

    /// Total Newton iterations spent across the run.
    pub fn newton_iterations(&self) -> usize {
        self.newton_iterations
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Validates a transient configuration against a circuit — shared by the
/// reference engine and the lane solver so both reject identically.
pub(crate) fn validate(circuit: &Circuit, config: &TransientConfig) -> Result<(), SpiceError> {
    if !(config.dt > 0.0 && config.dt.is_finite()) {
        return Err(SpiceError::InvalidConfig {
            reason: format!("dt must be positive, got {}", config.dt),
        });
    }
    if !(config.t_stop > 0.0 && config.t_stop.is_finite()) {
        return Err(SpiceError::InvalidConfig {
            reason: format!("t_stop must be positive, got {}", config.t_stop),
        });
    }
    if config.max_newton == 0 || config.record_stride == 0 {
        return Err(SpiceError::InvalidConfig {
            reason: "max_newton and record_stride must be at least 1".to_string(),
        });
    }
    check_nodes(circuit)
}

/// Rejects a circuit whose elements name a node it does not have.
fn check_nodes(circuit: &Circuit) -> Result<(), SpiceError> {
    match circuit.max_referenced_node() {
        Some(max) if max >= circuit.node_count() => Err(SpiceError::UnknownNode { node: max }),
        _ => Ok(()),
    }
}

/// Seeds the initial node voltages (UIC semantics) through `set`:
/// capacitor initial conditions pin their non-ground terminal; sources pin
/// their terminals at `t = 0`. The voltages must be zeroed beforehand.
fn seed_initial_volts(circuit: &Circuit, mut set: impl FnMut(NodeId, f64)) {
    for cap in &circuit.capacitors {
        if cap.b == 0 {
            set(cap.a, cap.initial_volts);
        } else if cap.a == 0 {
            set(cap.b, -cap.initial_volts);
        }
    }
    for src in &circuit.sources {
        let v = src.waveform.value(0.0);
        if src.minus == 0 {
            set(src.plus, v);
        } else if src.plus == 0 {
            set(src.minus, -v);
        }
    }
}

/// A configured transient analysis over a circuit.
#[derive(Debug)]
pub struct Transient<'c> {
    circuit: &'c Circuit,
    config: TransientConfig,
    layout: Layout,
}

impl<'c> Transient<'c> {
    /// Prepares a transient analysis.
    ///
    /// # Errors
    ///
    /// Fails if the configuration is invalid or an element references a node
    /// outside the circuit.
    pub fn new(circuit: &'c Circuit, config: TransientConfig) -> Result<Self, SpiceError> {
        validate(circuit, &config)?;
        Ok(Transient {
            circuit,
            config,
            layout: Layout::new(circuit),
        })
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Fails on a singular MNA matrix (floating node) or Newton
    /// non-convergence.
    pub fn run(&self) -> Result<TransientResult, SpiceError> {
        let c = self.circuit;
        let cfg = &self.config;
        let n_nodes = c.node_count();
        let mut stamper = Stamper::new(self.layout.clone());

        // Initial node voltages (UIC semantics): capacitor initial conditions
        // pin their non-ground terminal; sources pin their terminals at t=0.
        let mut volts = vec![0.0f64; n_nodes];
        seed_initial_volts(c, |node, v| volts[node] = v);

        let steps = (cfg.t_stop / cfg.dt).ceil() as usize;
        let mut times = Vec::with_capacity(steps / cfg.record_stride + 2);
        let mut traces: Vec<Vec<f64>> = vec![Vec::with_capacity(times.capacity()); n_nodes];
        let record = |t: f64, v: &[f64], times: &mut Vec<f64>, traces: &mut Vec<Vec<f64>>| {
            times.push(t);
            for (node, trace) in traces.iter_mut().enumerate() {
                trace.push(v[node]);
            }
        };
        record(0.0, &volts, &mut times, &mut traces);

        let mut newton_total = 0usize;

        for step in 1..=steps {
            let t = (step as f64) * cfg.dt;
            // Newton iteration: candidate starts from the previous timestep.
            let mut candidate: Vec<f64> = volts.clone();
            let mut converged = false;
            for _iter in 0..cfg.max_newton {
                newton_total += 1;
                stamper.clear();
                // gmin conditioning
                for node in 1..n_nodes {
                    stamper.conductance(node, 0, cfg.gmin);
                }
                // Resistors
                for r in &c.resistors {
                    stamper.conductance(r.a, r.b, 1.0 / r.ohms);
                }
                // Capacitors (backward-Euler companion w.r.t. previous step)
                for cap in &c.capacitors {
                    let geq = cap.farads / cfg.dt;
                    let v_hist = volts[cap.a] - volts[cap.b];
                    stamper.conductance(cap.a, cap.b, geq);
                    // history source pushes current from b to a: i = geq·v_hist
                    stamper.current_source(cap.b, cap.a, geq * v_hist);
                }
                // Voltage sources
                for (k, s) in c.sources.iter().enumerate() {
                    stamper.voltage_source(k, s.plus, s.minus, s.waveform.value(t));
                }
                // MOSFETs, linearized about the candidate
                for m in &c.mosfets {
                    let vd = candidate[m.drain];
                    let vg = candidate[m.gate];
                    let vs = candidate[m.source];
                    let op = m.params.evaluate(vd, vg, vs, m.bulk_volts);
                    let i0 = op.i_ds - op.di_dvd * vd - op.di_dvg * vg - op.di_dvs * vs;
                    stamper.linearized_fet(
                        m.drain, m.gate, m.source, i0, op.di_dvd, op.di_dvg, op.di_dvs,
                    );
                }

                let mut x = stamper.rhs.clone();
                stamper
                    .matrix
                    .clone()
                    .solve_in_place(&mut x)
                    .map_err(|e| match e {
                        SpiceError::SingularMatrix { .. } => SpiceError::SingularMatrix { time: t },
                        other => other,
                    })?;

                // Extract node voltages, damp, and check convergence.
                let mut max_err = 0.0f64;
                for (old, &target) in candidate.iter_mut().skip(1).zip(x.iter()).take(n_nodes - 1) {
                    let delta = (target - *old).clamp(-cfg.max_dv, cfg.max_dv);
                    let new = *old + delta;
                    let err = (new - *old).abs();
                    let tol = cfg.abstol + cfg.reltol * new.abs();
                    if err > tol {
                        max_err = max_err.max(err - tol);
                    }
                    *old = new;
                }
                if max_err == 0.0 {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SpiceError::NoConvergence {
                    time: t,
                    iterations: cfg.max_newton,
                });
            }
            volts.copy_from_slice(&candidate);
            if step % cfg.record_stride == 0 || step == steps {
                record(t, &volts, &mut times, &mut traces);
            }
        }

        Ok(TransientResult {
            times,
            traces,
            newton_iterations: newton_total,
        })
    }
}

// ---------------------------------------------------------------------------
// Lane solver
// ---------------------------------------------------------------------------

/// Receives recorded samples from a [`TransientSolver`] run, every lane at
/// once.
///
/// Implementations own their storage and are re-initialized by `begin` at
/// the start of every run, so a sink can be reused across thousands of
/// runs without allocating after the first.
pub trait TraceSink<const L: usize> {
    /// Called once before stepping with the circuits' node count and an
    /// estimate of how many samples the run will record.
    fn begin(&mut self, n_nodes: usize, capacity: usize);
    /// Called for every recorded sample with every lane's node voltages
    /// (indexed by `NodeId`, ground included). A lane whose run failed
    /// records meaningless values from then on.
    fn record(&mut self, t: f64, volts: &[[f64; L]]);
}

/// A [`TraceSink`] recording a fixed subset of nodes: one time base shared
/// by the lanes, and per lane one trace per selected node.
#[derive(Debug, Clone)]
pub struct SelectedTraces<const L: usize> {
    nodes: Vec<NodeId>,
    times: Vec<f64>,
    /// `traces[k * L + lane]`: the `k`-th selected node in `lane`.
    traces: Vec<Vec<f64>>,
}

impl<const L: usize> SelectedTraces<L> {
    /// Creates a sink recording the given nodes, in the given order.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        let n = nodes.len() * L;
        SelectedTraces {
            nodes,
            times: Vec::new(),
            traces: vec![Vec::new(); n],
        }
    }

    /// Recorded time points of the most recent run.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Trace of the `k`-th selected node (selection order, not `NodeId`)
    /// in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range of the selection or `lane >= L`.
    pub fn trace(&self, k: usize, lane: usize) -> &[f64] {
        assert!(lane < L, "lane {lane} out of range for {L} lanes");
        &self.traces[k * L + lane]
    }
}

impl<const L: usize> TraceSink<L> for SelectedTraces<L> {
    fn begin(&mut self, n_nodes: usize, capacity: usize) {
        for &node in &self.nodes {
            assert!(node < n_nodes, "selected node {node} outside circuit");
        }
        self.times.clear();
        self.times.reserve(capacity);
        for trace in &mut self.traces {
            trace.clear();
            trace.reserve(capacity);
        }
    }

    fn record(&mut self, t: f64, volts: &[[f64; L]]) {
        self.times.push(t);
        for (lanes, &node) in self.traces.chunks_mut(L).zip(&self.nodes) {
            for (trace, &v) in lanes.iter_mut().zip(&volts[node]) {
                trace.push(v);
            }
        }
    }
}

/// A reusable transient workspace that integrates up to `L` same-shaped
/// circuits in lockstep, one per lane, sharing one symbolic analysis across
/// many runs.
///
/// Construction performs the layout/validation work once, sizes the
/// [`LaneLu`] solve for the layout's unknown count and picks the widest
/// build the host runs. [`run`] accepts any circuits with the same *shape*
/// (node count, sources, and element wiring) — typically the same template
/// with element values patched in place — and integrates them without
/// allocating. Per run, each lane's step-invariant base matrix (gmin
/// conditioning, resistors, capacitor companion conductances, source
/// incidence) is stamped once, and each MOSFET's lane constants and stamp
/// offsets are worked out once; per timestep, only the base right-hand
/// side (capacitor history currents, source values) is rebuilt; each
/// Newton iteration copies the base into the working system, adds every
/// lane's MOSFET linearizations, and solves all lanes in place.
///
/// Every lane is bit-identical to [`Transient::run`] on its circuit: the
/// lanes never mix, each lane receives the reference's floating-point
/// operations in the reference's order (or, where the scheduled LU skips
/// one, an operation that provably leaves its operand as it was), where a
/// lane has converged or failed the solver selects per lane rather than
/// computing, and where a lane's pivot rows are not the schedule's each
/// lane is solved alone. `TransientSolver<1>` is the one-lane instance of
/// the same code.
///
/// [`run`]: TransientSolver::run
#[derive(Debug, Clone)]
pub struct TransientSolver<const L: usize> {
    config: TransientConfig,
    n_nodes: usize,
    n_sources: usize,
    /// The build the stepping loop runs in: the widest the host has.
    build: Build,
    lu: LaneLu<L>,
    /// The entries the run's stamps can touch, from its first circuit's
    /// wiring; `None` above [`LU_SCHEDULE_MAX`] unknowns.
    pattern: Option<[u32; LU_SCHEDULE_MAX]>,
    /// The run's elimination, compiled from the pivot rows of its latest
    /// reference solve; `None` until its first.
    schedule: Option<LuSchedule>,
    /// Schedules compiled, over the solver's lifetime.
    compiles: usize,
    /// Solves the schedule declined, over the solver's lifetime.
    declined: usize,
    /// Stamps one lane's base matrix at a time, in the reference's order.
    stamper: Stamper,
    base: LaneMatrix<L>,
    base_rhs: Vec<[f64; L]>,
    work: LaneMatrix<L>,
    work_rhs: Vec<[f64; L]>,
    /// Per capacitor, each lane's companion conductance `C/Δt`.
    geq: Vec<[f64; L]>,
    /// Per MOSFET, each lane's device constants, built per run.
    devices: Vec<LaneMosfet<L>>,
    /// Per MOSFET, where its stamps land, worked out per run.
    fet_stamps: Vec<FetStamp>,
    volts: Vec<[f64; L]>,
    candidate: Vec<[f64; L]>,
}

impl<const L: usize> TransientSolver<L> {
    /// Prepares a solver for circuits shaped like `circuit`.
    ///
    /// # Errors
    ///
    /// Fails if the configuration is invalid or an element references a node
    /// outside the circuit — the same conditions [`Transient::new`] rejects.
    pub fn new(circuit: &Circuit, config: TransientConfig) -> Result<Self, SpiceError> {
        validate(circuit, &config)?;
        let layout = Layout::new(circuit);
        let n = layout.unknowns();
        let n_nodes = circuit.node_count();
        Ok(TransientSolver {
            config,
            n_nodes,
            n_sources: circuit.sources.len(),
            build: Build::detect(),
            lu: LaneLu::new(n),
            pattern: None,
            schedule: None,
            compiles: 0,
            declined: 0,
            stamper: Stamper::new(layout),
            base: LaneMatrix::zeros(n),
            base_rhs: vec![[0.0; L]; n],
            work: LaneMatrix::zeros(n),
            work_rhs: vec![[0.0; L]; n],
            geq: Vec::new(),
            devices: Vec::new(),
            fet_stamps: Vec::new(),
            volts: vec![[0.0; L]; n_nodes],
            candidate: vec![[0.0; L]; n_nodes],
        })
    }

    /// Every lane's voltage at `node` when the most recent run ended: for a
    /// lane whose run completed, the last sample a sink recording `node`
    /// would hold.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the circuit.
    pub fn final_volts(&self, node: NodeId) -> [f64; L] {
        self.volts[node]
    }

    /// Integrates `circuits` in lockstep, lane `l` running `circuits[l]`,
    /// streaming recorded samples into `sink`. Returns per lane the Newton
    /// iterations its run spent, or the error it failed with
    /// ([`SingularMatrix`](SpiceError::SingularMatrix),
    /// [`NoConvergence`](SpiceError::NoConvergence)) — the value
    /// [`Transient::run`] gives for that circuit alone. Lanes past
    /// `circuits.len()` are idle and report `Ok(0)`.
    ///
    /// The circuits must have the shape the solver was built for; element
    /// *values* are free to differ (that is the point). All workspace state
    /// is re-initialized here, so a lane's output is a pure function of its
    /// circuit — independent of the other lanes and of whatever the solver
    /// ran before. A lane that fails stops being stepped; the group stops
    /// once every lane has failed.
    ///
    /// # Errors
    ///
    /// Fails, for the whole group, on an empty group or one of more than
    /// `L` circuits, a shape mismatch, an element naming a node outside its
    /// circuit, or lanes wired differently from the first.
    pub fn run(
        &mut self,
        circuits: &[Circuit],
        sink: &mut impl TraceSink<L>,
    ) -> Result<[Result<usize, SpiceError>; L], SpiceError> {
        self.check_group(circuits)?;
        // `check_group` made every lane share the first circuit's wiring.
        self.pattern = mna::pattern(self.stamper.layout(), &circuits[0]);
        self.schedule = None;
        self.prepare_mosfets(circuits);

        self.volts.fill([0.0; L]);
        self.base.clear();
        self.geq.clear();
        self.geq.resize(circuits[0].capacitors.len(), [0.0; L]);
        for (lane, c) in circuits.iter().enumerate() {
            seed_initial_volts(c, |node, v| self.volts[node][lane] = v);
            self.stamp_base(lane, c);
        }

        let cfg = &self.config;
        let steps = (cfg.t_stop / cfg.dt).ceil() as usize;
        sink.begin(self.n_nodes, steps / cfg.record_stride + 2);
        sink.record(0.0, &self.volts);
        let build = self.build;
        Ok(build.run(Stepping {
            solver: self,
            circuits,
            sink,
            steps,
        }))
    }

    /// Steps the group from the first timestep to `steps`: the loop
    /// [`Stepping`] compiles for the solver's build, with every piece of
    /// per-iteration work inlined into it.
    #[inline(always)]
    fn step_lanes(
        &mut self,
        circuits: &[Circuit],
        sink: &mut impl TraceSink<L>,
        steps: usize,
    ) -> [Result<usize, SpiceError>; L] {
        let cfg = self.config;
        let mut outcomes: [Result<usize, SpiceError>; L] = std::array::from_fn(|_| Ok(0));
        let mut running: [bool; L] = std::array::from_fn(|lane| lane < circuits.len());
        for step in 1..=steps {
            if !running.contains(&true) {
                break;
            }
            let t = (step as f64) * cfg.dt;
            self.step_rhs(circuits, t);

            // Newton iteration, every lane from its previous timestep, until
            // every running lane has converged. A converged lane is frozen
            // and a failed one leaves the group; either way it is no longer
            // pending, and its later iterations leave its candidate alone.
            self.candidate.copy_from_slice(&self.volts);
            let mut pending = running;
            let mut iterations = 0;
            while pending.contains(&true) {
                if iterations == cfg.max_newton {
                    for lane in (0..L).filter(|&l| pending[l]) {
                        outcomes[lane] = Err(SpiceError::NoConvergence {
                            time: t,
                            iterations: cfg.max_newton,
                        });
                        running[lane] = false;
                    }
                    break;
                }
                iterations += 1;
                for (outcome, _) in outcomes.iter_mut().zip(pending).filter(|&(_, p)| p) {
                    if let Ok(newton) = outcome {
                        *newton += 1;
                    }
                }
                self.build_work();
                let singular = self.solve(pending);
                for lane in (0..L).filter(|&l| singular[l]) {
                    outcomes[lane] = Err(SpiceError::SingularMatrix { time: t });
                    running[lane] = false;
                    pending[lane] = false;
                }
                let converged = self.damp(pending);
                for (p, c) in pending.iter_mut().zip(converged) {
                    *p &= !c;
                }
            }
            self.volts.copy_from_slice(&self.candidate);
            if step % cfg.record_stride == 0 || step == steps {
                sink.record(t, &self.volts);
            }
        }
        outcomes
    }

    /// Copies the base system into the working one and adds every lane's
    /// MOSFET linearizations.
    #[inline(always)]
    fn build_work(&mut self) {
        self.work.copy_from(&self.base);
        self.work_rhs.copy_from_slice(&self.base_rhs);
        self.stamp_mosfets();
    }

    /// Solves the working system in place for every pending lane, the
    /// solutions landing in the working right-hand side, and returns the
    /// lanes whose matrix was singular. The run's schedule solves all lanes
    /// at once; where it declines, or before the run has one,
    /// [`solve_declined`] and [`solve_reference`] take over.
    ///
    /// The assembly meets the schedule's contract by construction: every
    /// entry starts at `+0.0` and only ever has stamps added, an entry
    /// outside the pattern is never stamped, and `x + y` (or `x − y`) is
    /// `−0.0` only when `x` already is.
    ///
    /// [`solve_declined`]: Self::solve_declined
    /// [`solve_reference`]: Self::solve_reference
    #[inline(always)]
    fn solve(&mut self, pending: [bool; L]) -> [bool; L] {
        match &self.schedule {
            Some(schedule) => {
                if self
                    .lu
                    .solve_scheduled(schedule, &mut self.work, &mut self.work_rhs, pending)
                {
                    return [false; L];
                }
                self.solve_declined(pending)
            }
            None => self.solve_reference(pending),
        }
    }

    /// The path of a solve the schedule declined: the working system holds
    /// scratch, so it is built again and solved by the reference, which
    /// compiles a new schedule. Kept out of line, as is the reference: both
    /// are rare, and their bits do not depend on the build they run in.
    #[cold]
    #[inline(never)]
    fn solve_declined(&mut self, pending: [bool; L]) -> [bool; L] {
        self.declined += 1;
        self.build_work();
        self.solve_reference(pending)
    }

    /// Solves each pending lane with the reference, then compiles the run's
    /// schedule from the first pending lane's pivot rows, or drops it where
    /// that lane was singular or there is no pattern.
    #[cold]
    #[inline(never)]
    fn solve_reference(&mut self, pending: [bool; L]) -> [bool; L] {
        let singular = self.lu.solve(&mut self.work, &mut self.work_rhs, pending);
        self.schedule = self
            .pattern
            .as_ref()
            .zip(self.lu.pivots())
            .and_then(|(pattern, pivots)| LuSchedule::compile(pattern, pivots));
        self.compiles += usize::from(self.schedule.is_some());
        singular
    }

    /// Rejects a group the solver cannot step together.
    fn check_group(&self, circuits: &[Circuit]) -> Result<(), SpiceError> {
        let Some((first, rest)) = circuits.split_first().filter(|_| circuits.len() <= L) else {
            return Err(SpiceError::InvalidConfig {
                reason: format!("a run takes 1 to {L} circuits, got {}", circuits.len()),
            });
        };
        for circuit in circuits {
            if circuit.node_count() != self.n_nodes || circuit.sources.len() != self.n_sources {
                return Err(SpiceError::InvalidConfig {
                    reason: format!(
                        "circuit shape changed: solver built for {} nodes / {} sources, \
                         got {} nodes / {} sources",
                        self.n_nodes,
                        self.n_sources,
                        circuit.node_count(),
                        circuit.sources.len()
                    ),
                });
            }
            check_nodes(circuit)?;
        }
        if rest.iter().any(|c| !same_wiring(first, c)) {
            return Err(SpiceError::InvalidConfig {
                reason: "lanes differ in element wiring: every circuit of a run must connect \
                         its elements as the first one does"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Stamps one lane's step-invariant matrix in the reference engine's
    /// stamp order (gmin, resistors, capacitors, sources) and keeps its
    /// capacitor companion conductances for the per-step right-hand side.
    fn stamp_base(&mut self, lane: usize, circuit: &Circuit) {
        let cfg = &self.config;
        let st = &mut self.stamper;
        st.clear();
        for node in 1..self.n_nodes {
            st.conductance(node, 0, cfg.gmin);
        }
        for r in &circuit.resistors {
            st.conductance(r.a, r.b, 1.0 / r.ohms);
        }
        for (cap, geq) in circuit.capacitors.iter().zip(&mut self.geq) {
            geq[lane] = cap.farads / cfg.dt;
            st.conductance(cap.a, cap.b, geq[lane]);
        }
        for (k, s) in circuit.sources.iter().enumerate() {
            st.source_incidence(k, s.plus, s.minus);
        }
        self.base.set_lane(lane, &st.matrix);
    }

    /// This step's base right-hand side, in the reference's order:
    /// capacitor history currents, then source values. MOSFETs are the only
    /// re-linearized stamps and land last, per iteration, in the working
    /// copy.
    #[inline(always)]
    fn step_rhs(&mut self, circuits: &[Circuit], t: f64) {
        let layout = self.stamper.layout();
        let rhs = &mut self.base_rhs;
        rhs.fill([0.0; L]);
        for (cap, geq) in circuits[0].capacitors.iter().zip(&self.geq) {
            let (va, vb) = (self.volts[cap.a], self.volts[cap.b]);
            // history source pushes current from b to a: i = geq·v_hist
            let amps: [f64; L] = std::array::from_fn(|l| geq[l] * (va[l] - vb[l]));
            if let Some(i) = layout.node_index(cap.b) {
                for (x, a) in rhs[i].iter_mut().zip(amps) {
                    *x -= a;
                }
            }
            if let Some(j) = layout.node_index(cap.a) {
                for (x, a) in rhs[j].iter_mut().zip(amps) {
                    *x += a;
                }
            }
        }
        for k in 0..self.n_sources {
            let row = &mut rhs[layout.source_index(k)];
            for (x, c) in row.iter_mut().zip(circuits) {
                *x += c.sources[k].waveform.value(t);
            }
        }
    }

    /// Builds each MOSFET's lane constants from the lanes' circuits (an
    /// idle lane repeats the first lane's device) and works out where its
    /// stamps land from the first circuit's wiring, which every lane
    /// shares.
    fn prepare_mosfets(&mut self, circuits: &[Circuit]) {
        self.devices.clear();
        self.fet_stamps.clear();
        for (i, m) in circuits[0].mosfets.iter().enumerate() {
            self.devices
                .push(LaneMosfet::new(std::array::from_fn(|lane| {
                    let fet = &circuits.get(lane).unwrap_or(&circuits[0]).mosfets[i];
                    (fet.params, fet.bulk_volts)
                })));
            let stamp = FetStamp::new(self.stamper.layout(), &self.work, m);
            self.fet_stamps.push(stamp);
        }
    }

    /// Adds every lane's MOSFET linearizations about its candidate to the
    /// working system in the reference's order: MOSFET by MOSFET, the
    /// drain row then the source row, each over the `(d, g, s)` terms. A
    /// lane that is no longer pending is evaluated too; its system is
    /// never read.
    #[inline(always)]
    fn stamp_mosfets(&mut self) {
        let entries = self.work.entries_mut();
        let rhs = &mut self.work_rhs;
        for (device, stamp) in self.devices.iter().zip(&self.fet_stamps) {
            let [vd, vg, vs] = stamp.nodes.map(|node| self.candidate[node]);
            let op = device.evaluate(vd, vg, vs);
            let i0: [f64; L] = std::array::from_fn(|l| {
                op.i_ds[l] - op.di_dvd[l] * vd[l] - op.di_dvg[l] * vg[l] - op.di_dvs[l] * vs[l]
            });
            let terms = [op.di_dvd, op.di_dvg, op.di_dvs];
            if let Some((row, cols)) = stamp.drain {
                for (at, g) in cols.iter().zip(terms) {
                    if let Some(at) = *at {
                        for (x, v) in entries[at].iter_mut().zip(g) {
                            *x += v;
                        }
                    }
                }
                for (x, i) in rhs[row].iter_mut().zip(i0) {
                    *x -= i;
                }
            }
            if let Some((row, cols)) = stamp.source {
                for (at, g) in cols.iter().zip(terms) {
                    if let Some(at) = *at {
                        for (x, v) in entries[at].iter_mut().zip(g) {
                            *x += -v;
                        }
                    }
                }
                for (x, i) in rhs[row].iter_mut().zip(i0) {
                    *x += i;
                }
            }
        }
    }

    /// Moves each pending lane's candidate toward its solution in the
    /// working right-hand side, damped to `max_dv` per node, and returns
    /// the pending lanes that are now stationary within
    /// `abstol + reltol·|v|`. Other lanes keep their candidates by select.
    ///
    /// The reference tracks the largest excess `err − tol` and calls a step
    /// converged when it is `0.0`; an excess is only taken where
    /// `err > tol`, so it is positive (IEEE subtraction of unequal values
    /// is never zero), and "no node with `err > tol`" is the same verdict.
    #[inline(always)]
    fn damp(&mut self, pending: [bool; L]) -> [bool; L] {
        let cfg = &self.config;
        let mut moving = [false; L];
        for (old, target) in self
            .candidate
            .iter_mut()
            .skip(1)
            .zip(&self.work_rhs)
            .take(self.n_nodes - 1)
        {
            for l in 0..L {
                let delta = (target[l] - old[l]).clamp(-cfg.max_dv, cfg.max_dv);
                let new = old[l] + delta;
                let err = (new - old[l]).abs();
                let tol = cfg.abstol + cfg.reltol * new.abs();
                moving[l] |= err > tol;
                old[l] = if pending[l] { new } else { old[l] };
            }
        }
        std::array::from_fn(|l| pending[l] && !moving[l])
    }
}

/// The code a [`TransientSolver`] steps its lanes with. Both builds give
/// the same bits, since they compile the same IEEE operations in the same
/// order (Rust never fuses a multiply and an add); they differ only in
/// speed, and the wide one is chosen when the host has it. Tests reach the
/// portable build by setting a solver's `build` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Build {
    /// The stepping loop compiled for the baseline target: the only build
    /// off x86-64 or without AVX-512.
    Portable,
    /// The stepping loop compiled for AVX-512F, DQ and VL, carrying the
    /// proof that this host has them.
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512),
}

impl Build {
    /// The widest build this host runs.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(wide) = Avx512::detect() {
            return Build::Avx512(wide);
        }
        Build::Portable
    }

    /// Runs a kernel's body through this build.
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self {
            Build::Portable => kernel.run(),
            #[cfg(target_arch = "x86_64")]
            Build::Avx512(wide) => wide.run(kernel),
        }
    }

    /// Every build this host runs, the portable one first; on a host with
    /// the portable build alone it says so on stderr.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Build> {
        match Build::detect() {
            Build::Portable => {
                eprintln!("no AVX-512 on this host: checking the portable build alone");
                vec![Build::Portable]
            }
            wide => vec![Build::Portable, wide],
        }
    }
}

/// A lane group's stepping loop as a [`Kernel`], so that [`Build::run`]
/// compiles the whole Newton iteration — stamping, scheduled LU, damping —
/// for the host.
struct Stepping<'a, const L: usize, S> {
    solver: &'a mut TransientSolver<L>,
    circuits: &'a [Circuit],
    sink: &'a mut S,
    steps: usize,
}

impl<const L: usize, S: TraceSink<L>> Kernel for Stepping<'_, L, S> {
    type Output = [Result<usize, SpiceError>; L];

    #[inline(always)]
    fn run(self) -> Self::Output {
        self.solver.step_lanes(self.circuits, self.sink, self.steps)
    }
}

/// Where one MOSFET's linearization lands in the working system, worked
/// out once per run: the nodes its voltages are read from, and for the
/// drain row and then the source row (each absent for ground) the
/// right-hand-side index and, per `(d, g, s)` term, the matrix entry's
/// offset (absent for a grounded terminal) — the entries
/// [`Stamper::linearized_fet`] adds to, in its order.
#[derive(Debug, Clone, Copy)]
struct FetStamp {
    nodes: [NodeId; 3],
    drain: Option<(usize, [Option<usize>; 3])>,
    source: Option<(usize, [Option<usize>; 3])>,
}

impl FetStamp {
    fn new<const L: usize>(layout: &Layout, work: &LaneMatrix<L>, m: &Mosfet) -> Self {
        let nodes = [m.drain, m.gate, m.source];
        let row = |terminal: NodeId| {
            layout.node_index(terminal).map(|row| {
                let cols = nodes.map(|n| layout.node_index(n).map(|col| work.offset(row, col)));
                (row, cols)
            })
        };
        FetStamp {
            nodes,
            drain: row(m.drain),
            source: row(m.source),
        }
    }
}

/// Whether two circuits connect the same elements to the same nodes in the
/// same order — what the lanes of one run share.
fn same_wiring(a: &Circuit, b: &Circuit) -> bool {
    fn same<T>(x: &[T], y: &[T], ends: impl Fn(&T) -> [NodeId; 3]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| ends(p) == ends(q))
    }
    same(&a.resistors, &b.resistors, |r| [r.a, r.b, 0])
        && same(&a.capacitors, &b.capacitors, |c| [c.a, c.b, 0])
        && same(&a.sources, &b.sources, |s| [s.plus, s.minus, 0])
        && same(&a.mosfets, &b.mosfets, |m| [m.drain, m.gate, m.source])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram_cell::{ActivationSim, DramCellParams};
    use crate::montecarlo::MonteCarlo;
    use crate::netlist::Circuit;
    use crate::ptm;
    use crate::waveform::Waveform;
    use proptest::prelude::*;

    #[test]
    fn rc_charge_matches_analytic() {
        // 1 kΩ / 1 nF: τ = 1 µs. After 1 τ the output is 1 − e⁻¹ ≈ 0.632.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.voltage_source("V1", vin, 0, Waveform::Dc(1.0));
        c.resistor("R1", vin, vout, 1000.0);
        c.capacitor("C1", vout, 0, 1e-9, 0.0);
        let cfg = TransientConfig {
            t_stop: 1e-6,
            dt: 1e-9,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let v_end = *res.trace(vout).unwrap().last().unwrap();
        assert!((v_end - 0.632).abs() < 0.01, "v_end = {v_end}");
    }

    #[test]
    fn rc_discharge_from_initial_condition() {
        let mut c = Circuit::new();
        let vout = c.node("out");
        c.resistor("R1", vout, 0, 1000.0);
        c.capacitor("C1", vout, 0, 1e-9, 1.0);
        let cfg = TransientConfig {
            t_stop: 1e-6,
            dt: 1e-9,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let v_end = *res.trace(vout).unwrap().last().unwrap();
        assert!((v_end - (-1.0f64).exp()).abs() < 0.01, "v_end = {v_end}");
        // initial sample carries the initial condition
        assert!((res.trace(vout).unwrap()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn divider_reaches_dc_solution() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source("V1", a, 0, Waveform::Dc(2.0));
        c.resistor("R1", a, b, 100.0);
        c.resistor("R2", b, 0, 300.0);
        // small parasitic cap so the node is dynamic
        c.capacitor("Cp", b, 0, 1e-15, 0.0);
        let cfg = TransientConfig {
            t_stop: 1e-9,
            dt: 1e-12,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let v_end = *res.trace(b).unwrap().last().unwrap();
        assert!((v_end - 1.5).abs() < 1e-3, "v_end = {v_end}");
    }

    #[test]
    fn nmos_source_follower_settles_below_gate_by_vt() {
        // Gate driven to 2.0 V, drain at 1.2 V; source loaded by a capacitor.
        // The source charges until V_GS ≈ V_T (with body effect).
        let mut c = Circuit::new();
        let gate = c.node("g");
        let drain = c.node("d");
        let src = c.node("s");
        c.voltage_source("Vg", gate, 0, Waveform::Dc(2.0));
        c.voltage_source("Vd", drain, 0, Waveform::Dc(1.2));
        c.mosfet("M1", drain, gate, src, 0.0, ptm::cell_access_nmos());
        c.capacitor("Cl", src, 0, 16.8e-15, 0.0);
        let cfg = TransientConfig {
            t_stop: 100e-9,
            dt: 10e-12,
            record_stride: 10,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let v_end = *res.trace(src).unwrap().last().unwrap();
        let dev = ptm::cell_access_nmos();
        let expected = {
            // self-consistent V_S where 2.0 − V_S = V_T(V_S)
            let mut v = 1.0;
            for _ in 0..60 {
                v = (2.0 - dev.threshold(v)).min(1.2);
            }
            v
        };
        assert!(
            (v_end - expected).abs() < 0.08,
            "source settled at {v_end}, expected ≈ {expected}"
        );
    }

    #[test]
    fn pwl_source_is_tracked() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V1", a, 0, Waveform::ramp(0.0, 0.0, 1e-9, 1.0));
        c.resistor("R1", a, 0, 1000.0);
        let cfg = TransientConfig {
            t_stop: 2e-9,
            dt: 1e-12,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let trace = res.trace(a).unwrap();
        let times = res.times();
        // halfway through the ramp the node should read ~0.5 V
        let mid = times.iter().position(|&t| t >= 0.5e-9).unwrap();
        assert!((trace[mid] - 0.5).abs() < 0.01);
        assert!((trace.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = Circuit::new();
        let bad_dt = TransientConfig {
            dt: 0.0,
            ..TransientConfig::default()
        };
        assert!(Transient::new(&c, bad_dt).is_err());
        let bad_stop = TransientConfig {
            t_stop: -1.0,
            ..TransientConfig::default()
        };
        assert!(Transient::new(&c, bad_stop).is_err());
        let bad_newton = TransientConfig {
            max_newton: 0,
            ..TransientConfig::default()
        };
        assert!(Transient::new(&c, bad_newton).is_err());
    }

    #[test]
    fn floating_node_reports_singular() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor("R1", a, b, 1000.0);
        // no path to ground anywhere, and gmin=0 to force singularity
        let cfg = TransientConfig {
            gmin: 0.0,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run();
        assert!(matches!(res, Err(SpiceError::SingularMatrix { .. })));
    }

    /// A representative nonlinear circuit for solver-vs-reference checks:
    /// source follower driving a capacitive load with a bleed resistor.
    fn follower_circuit(width_scale: f64) -> Circuit {
        let mut c = Circuit::new();
        let gate = c.node("g");
        let drain = c.node("d");
        let src = c.node("s");
        c.voltage_source("Vg", gate, 0, Waveform::ramp(0.0, 0.0, 5e-9, 2.0));
        c.voltage_source("Vd", drain, 0, Waveform::Dc(1.2));
        let mut params = ptm::cell_access_nmos();
        params.width *= width_scale;
        c.mosfet("M1", drain, gate, src, 0.0, params);
        c.capacitor("Cl", src, 0, 16.8e-15, 0.0);
        c.resistor("Rb", src, 0, 1e9);
        c
    }

    #[test]
    fn solver_is_bit_identical_to_reference() {
        let c = follower_circuit(1.0);
        let cfg = TransientConfig {
            t_stop: 20e-9,
            dt: 20e-12,
            record_stride: 4,
            ..TransientConfig::default()
        };
        let reference = Transient::new(&c, cfg).unwrap().run().unwrap();
        let mut solver = TransientSolver::<1>::new(&c, cfg).unwrap();
        let src = c.find_node("s").unwrap();
        let mut sink = SelectedTraces::new(vec![src]);
        let [iters] = solver.run(std::slice::from_ref(&c), &mut sink).unwrap();
        assert_eq!(iters.unwrap(), reference.newton_iterations());
        assert_eq!(sink.times(), reference.times());
        let ref_trace = reference.trace(src).unwrap();
        assert_eq!(sink.trace(0, 0).len(), ref_trace.len());
        for (i, (&fast, &slow)) in sink.trace(0, 0).iter().zip(ref_trace).enumerate() {
            assert_eq!(fast.to_bits(), slow.to_bits(), "sample {i}");
        }
        assert_eq!(
            solver.final_volts(src)[0].to_bits(),
            ref_trace.last().unwrap().to_bits()
        );
    }

    #[test]
    fn solver_reuse_across_patched_circuits_matches_fresh_runs() {
        // One solver, many circuits of the same shape, one at a time and
        // then all four as lanes of one run: each must equal a fresh
        // reference run bit-for-bit, regardless of what the solver ran
        // before or beside it.
        let cfg = TransientConfig {
            t_stop: 10e-9,
            dt: 20e-12,
            ..TransientConfig::default()
        };
        let circuits: Vec<Circuit> = [0.6, 1.0, 1.7, 0.9]
            .into_iter()
            .map(follower_circuit)
            .collect();
        let src = circuits[0].find_node("s").unwrap();
        let references: Vec<TransientResult> = circuits
            .iter()
            .map(|c| Transient::new(c, cfg).unwrap().run().unwrap())
            .collect();
        let mut one = TransientSolver::<1>::new(&circuits[0], cfg).unwrap();
        let mut sink = SelectedTraces::new(vec![src]);
        for (c, reference) in circuits.iter().zip(&references) {
            let [iters] = one.run(std::slice::from_ref(c), &mut sink).unwrap();
            assert_eq!(iters.unwrap(), reference.newton_iterations());
            for (a, b) in sink.trace(0, 0).iter().zip(reference.trace(src).unwrap()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let mut four = TransientSolver::<4>::new(&circuits[0], cfg).unwrap();
        let mut sink = SelectedTraces::new(vec![src]);
        let outcomes = four.run(&circuits, &mut sink).unwrap();
        for (lane, reference) in references.iter().enumerate() {
            assert_eq!(
                outcomes[lane].clone().unwrap(),
                reference.newton_iterations()
            );
            let ref_trace = reference.trace(src).unwrap();
            assert_eq!(sink.trace(0, lane).len(), ref_trace.len());
            for (a, b) in sink.trace(0, lane).iter().zip(ref_trace) {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {lane}");
            }
        }
        // A run may wire its circuits differently from the runs before it,
        // with the same node and source counts. Two charged capacitors, the
        // resistor first from the second to ground, then between the two:
        // the second run stamps entries the first run's pattern leaves out,
        // so it needs its own pattern and schedule.
        let pair = |tied: bool| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.capacitor("Ca", a, 0, 1e-12, 1.0);
            c.capacitor("Cb", b, 0, 1e-12, 0.0);
            c.resistor("R", b, if tied { a } else { 0 }, 1e3);
            c
        };
        let mut one = TransientSolver::<1>::new(&pair(false), cfg).unwrap();
        for tied in [false, true] {
            let c = pair(tied);
            let mut sink = SelectedTraces::new((0..c.node_count()).collect());
            let outcomes = one.run(std::slice::from_ref(&c), &mut sink).unwrap();
            assert_lanes_are_reference(&[c], cfg, &outcomes, &sink, &format!("tied {tied}"));
        }
    }

    /// Every lane of a finished group run must be its circuit's reference
    /// run bit for bit: the Newton count and every node's trace.
    fn assert_lanes_are_reference<const L: usize>(
        circuits: &[Circuit],
        cfg: TransientConfig,
        outcomes: &[Result<usize, SpiceError>; L],
        sink: &SelectedTraces<L>,
        context: &str,
    ) {
        for (lane, c) in circuits.iter().enumerate() {
            let reference = Transient::new(c, cfg).unwrap().run().unwrap();
            assert_eq!(
                outcomes[lane].clone().unwrap(),
                reference.newton_iterations(),
                "{context}, lane {lane}"
            );
            for node in 0..c.node_count() {
                let expected = reference.trace(node).unwrap();
                assert_eq!(sink.trace(node, lane).len(), expected.len());
                for (a, b) in sink.trace(node, lane).iter().zip(expected) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{context}, lane {lane}, node {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn declined_solves_fall_back_to_the_reference_bit_for_bit() {
        // Each lane's gate node has a resistor to ground. At 1 GΩ the gate
        // column pivots on the gate source's incidence entry (1.0); the
        // third lane's 1 mΩ puts 1,000 S on the diagonal instead, so that
        // lane picks another pivot row than the first lane, whose pivot
        // rows the schedule is compiled from, and the schedule declines
        // every solve it takes part in. Every lane must still be its
        // reference run, and an ordinary group must never decline.
        let cfg = TransientConfig {
            t_stop: 10e-9,
            dt: 20e-12,
            ..TransientConfig::default()
        };
        for (third, declines) in [(1e-3, true), (1e9, false)] {
            let circuits: Vec<Circuit> = [1e9, 1e9, third, 1e9]
                .into_iter()
                .map(|ohms| {
                    let mut c = follower_circuit(1.0);
                    let g = c.find_node("g").unwrap();
                    c.resistor("Rg", g, 0, ohms);
                    c
                })
                .collect();
            let nodes: Vec<NodeId> = (0..circuits[0].node_count()).collect();
            let mut solver = TransientSolver::<4>::new(&circuits[0], cfg).unwrap();
            let mut sink = SelectedTraces::new(nodes);
            let outcomes = solver.run(&circuits, &mut sink).unwrap();
            assert_eq!(
                solver.declined > 0,
                declines,
                "declined {}",
                solver.declined
            );
            assert_lanes_are_reference(&circuits, cfg, &outcomes, &sink, &format!("{third} Ω"));
        }
    }

    #[test]
    fn changing_pivot_order_recompiles_and_matches_the_reference() {
        // A source follower whose transistor is 200,000 to 1,000,000 times
        // the access device's width, its source tied to ground through
        // 1 mΩ. While the gate ramps through the threshold, the device's
        // conductances grow past the sources' unit incidence entries, so
        // the gate and drain columns stop pivoting on the sources' branch
        // rows partway through the run. The run's first schedule then
        // declines, and the reference's pivot rows compile another. The
        // lanes cross at different steps, so between their crossings the
        // lanes split their pivots. Every lane must be its reference run.
        let cfg = TransientConfig {
            t_stop: 10e-9,
            dt: 20e-12,
            ..TransientConfig::default()
        };
        let circuits: Vec<Circuit> = [5e5, 1e6, 2e5]
            .into_iter()
            .map(|scale| {
                let mut c = follower_circuit(scale);
                let s = c.find_node("s").unwrap();
                c.resistor("Rs", s, 0, 1e-3);
                c
            })
            .collect();
        let nodes: Vec<NodeId> = (0..circuits[0].node_count()).collect();
        for build in Build::all() {
            let mut solver = TransientSolver::<4>::new(&circuits[0], cfg).unwrap();
            solver.build = build;
            let mut sink = SelectedTraces::new(nodes.clone());
            let outcomes = solver.run(&circuits, &mut sink).unwrap();
            assert!(
                solver.compiles >= 2 && solver.declined >= 1,
                "{build:?}: {} compiles, {} declines",
                solver.compiles,
                solver.declined
            );
            assert_lanes_are_reference(&circuits, cfg, &outcomes, &sink, &format!("{build:?}"));
        }
    }

    /// An error's variant and its numbers, floats as bits.
    fn error_bits(e: &SpiceError) -> (String, u64, usize) {
        match e {
            SpiceError::SingularMatrix { time } => ("singular".into(), time.to_bits(), 0),
            SpiceError::NoConvergence { time, iterations } => {
                ("no convergence".into(), time.to_bits(), *iterations)
            }
            other => (format!("{other:?}"), 0, 0),
        }
    }

    fn trace_bits(trace: &[f64]) -> Vec<u64> {
        trace.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // A group of activation circuits, each its own wide parameter draw,
        // wordline level and stored value, stepped in lockstep by the
        // eight-lane solver (a partial group when fewer than eight), and
        // each run alone by the one-lane solver, through every build the
        // host runs: every lane must be its circuit's reference `Transient`
        // run bit for bit — times, every node's trace, the final state, the
        // Newton count, or the error. Wide variation and tight Newton
        // budgets make lanes converge at different iterations and some
        // fail while the others complete.
        #[test]
        fn lane_solver_matches_reference_bit_for_bit(
            lanes in 1usize..=8,
            variation in prop::sample::select(vec![0.05, 0.9, 0.99]),
            max_newton in prop::sample::select(vec![3usize, 4, 100]),
            vpps in prop::collection::vec(prop::sample::select(vec![1.6, 2.0, 2.5]), 8..9),
            seed in any::<u64>(),
        ) {
            let base = DramCellParams {
                t_stop: 20e-9,
                dt: 20e-12,
                ..DramCellParams::default()
            };
            let mc = MonteCarlo { trials: lanes, seed, variation };
            let circuits: Vec<Circuit> = (0..lanes)
                .map(|lane| {
                    let p = base.perturbed(&mc, &mut mc.trial_rng(lane));
                    ActivationSim::new(p).build(vpps[lane], (seed >> lane) & 1 == 0).0
                })
                .collect();
            let cfg = TransientConfig {
                t_stop: base.t_stop,
                dt: base.dt,
                max_newton,
                ..TransientConfig::default()
            };
            let references: Vec<_> = circuits
                .iter()
                .map(|c| Transient::new(c, cfg).unwrap().run())
                .collect();
            let nodes: Vec<NodeId> = (0..circuits[0].node_count()).collect();
            for build in Build::all() {
                let mut group = TransientSolver::<8>::new(&circuits[0], cfg).unwrap();
                group.build = build;
                let mut group_sink = SelectedTraces::<8>::new(nodes.clone());
                let outcomes = group.run(&circuits, &mut group_sink).unwrap();
                let mut alone = TransientSolver::<1>::new(&circuits[0], cfg).unwrap();
                alone.build = build;
                let mut alone_sink = SelectedTraces::<1>::new(nodes.clone());
                for (lane, (circuit, reference)) in circuits.iter().zip(&references).enumerate() {
                    let [single] = alone.run(std::slice::from_ref(circuit), &mut alone_sink).unwrap();
                    match reference {
                        Ok(reference) => {
                            let newton = Ok(reference.newton_iterations());
                            prop_assert!(outcomes[lane] == newton, "{build:?}, lane {lane}");
                            prop_assert!(single == newton, "{build:?}, lane {lane}");
                            let times = trace_bits(reference.times());
                            prop_assert_eq!(trace_bits(group_sink.times()), times.clone());
                            prop_assert_eq!(trace_bits(alone_sink.times()), times);
                            for (k, &node) in nodes.iter().enumerate() {
                                let expected = trace_bits(reference.trace(node).unwrap());
                                let last = *expected.last().unwrap();
                                prop_assert!(
                                    trace_bits(group_sink.trace(k, lane)) == expected,
                                    "{build:?}, lane {lane}, node {node}: group trace"
                                );
                                prop_assert!(
                                    trace_bits(alone_sink.trace(k, 0)) == expected,
                                    "{build:?}, lane {lane}, node {node}: one-lane trace"
                                );
                                prop_assert_eq!(group.final_volts(node)[lane].to_bits(), last);
                                prop_assert_eq!(alone.final_volts(node)[0].to_bits(), last);
                            }
                        }
                        Err(e) => {
                            let expected = error_bits(e);
                            prop_assert!(
                                outcomes[lane].as_ref().map_err(error_bits) == Err(expected.clone()),
                                "{build:?}, lane {lane}"
                            );
                            prop_assert_eq!(single.as_ref().map_err(error_bits), Err(expected));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn solver_rejects_shape_change() {
        let c = follower_circuit(1.0);
        let mut solver = TransientSolver::<1>::new(&c, TransientConfig::default()).unwrap();
        let mut other = Circuit::new();
        let a = other.node("a");
        other.resistor("R1", a, 0, 1.0);
        let mut sink = SelectedTraces::new(Vec::new());
        assert!(matches!(
            solver.run(&[other], &mut sink),
            Err(SpiceError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn solver_rejects_lanes_wired_differently() {
        // Same node and source counts in every lane, but the second lane's
        // load capacitor sits on the gate: stepping it with the first
        // lane's wiring would simulate a circuit nobody built.
        let c = follower_circuit(1.0);
        let mut solver = TransientSolver::<2>::new(&c, TransientConfig::default()).unwrap();
        let mut rewired = c.clone();
        rewired.capacitors[0].a = c.find_node("g").unwrap();
        let mut sink = SelectedTraces::new(Vec::new());
        for group in [
            vec![c.clone(), rewired],
            Vec::new(),
            vec![c.clone(), c.clone(), c],
        ] {
            assert!(matches!(
                solver.run(&group, &mut sink),
                Err(SpiceError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn solver_rejects_an_element_naming_a_missing_node() {
        // Same node and source counts as the solver's circuit, but the load
        // capacitor names a node the circuit does not have: an error, as
        // `Transient::new` gives, not an out-of-bounds panic.
        let c = follower_circuit(1.0);
        let mut solver = TransientSolver::<1>::new(&c, TransientConfig::default()).unwrap();
        let mut bad = c.clone();
        let missing = c.node_count() + 3;
        bad.capacitors[0].a = missing;
        let mut sink = SelectedTraces::new(Vec::new());
        assert_eq!(
            solver.run(&[bad.clone()], &mut sink).unwrap_err(),
            SpiceError::UnknownNode { node: missing }
        );
        assert!(matches!(
            Transient::new(&bad, TransientConfig::default()),
            Err(SpiceError::UnknownNode { node }) if node == missing
        ));
    }

    #[test]
    fn selected_traces_reuse_clears_previous_run() {
        let c = follower_circuit(1.0);
        let cfg = TransientConfig {
            t_stop: 2e-9,
            dt: 20e-12,
            ..TransientConfig::default()
        };
        let mut solver = TransientSolver::<1>::new(&c, cfg).unwrap();
        let mut sink = SelectedTraces::new(vec![c.find_node("s").unwrap()]);
        let group = std::slice::from_ref(&c);
        let [first] = solver.run(group, &mut sink).unwrap();
        first.unwrap();
        let first_len = sink.times().len();
        let [second] = solver.run(group, &mut sink).unwrap();
        second.unwrap();
        assert_eq!(sink.times().len(), first_len);
        assert_eq!(sink.trace(0, 0).len(), first_len);
    }

    #[test]
    fn record_stride_thins_output() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source("V1", a, 0, Waveform::Dc(1.0));
        c.resistor("R1", a, 0, 1.0);
        let dense = TransientConfig {
            t_stop: 1e-9,
            dt: 1e-12,
            ..TransientConfig::default()
        };
        let sparse = TransientConfig {
            record_stride: 100,
            ..dense
        };
        let dense_len = Transient::new(&c, dense).unwrap().run().unwrap().len();
        let sparse_len = Transient::new(&c, sparse).unwrap().run().unwrap().len();
        assert!(sparse_len < dense_len / 10);
        assert!(sparse_len >= 11);
    }
}
