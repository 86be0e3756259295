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
//! - [`TransientSolver`] — the batched fast path: symbolic analysis
//!   (layout, validation, workspace sizing, choice of LU kernel) happens
//!   once at construction. Per run, the step-invariant matrix of the base
//!   system (gmin, resistors, capacitor companion conductances, source
//!   incidence) is stamped once; per *timestep* only the base right-hand
//!   side (capacitor history currents, source values) is rebuilt; each
//!   Newton iteration copies the base, adds the MOSFET linearizations and
//!   solves with a fixed-size LU kernel ([`crate::linear::fixed_lu`]) — no
//!   heap allocation anywhere in the stepping loop. Designed for
//!   Monte-Carlo batches that patch element values into a template circuit
//!   and re-run thousands of times.
//!
//! The two are bit-identical by construction. Matrix and right-hand side
//! accumulate independently, so splitting the base stamps between run and
//! step still gives every entry the same floating-point additions in the
//! same order (base stamps first, MOSFET stamps last — exactly the
//! reference's stamping order). The fixed-size kernel repeats
//! [`Matrix::solve_in_place`], which the reference uses, operation for
//! operation, so the solve is the same pure function of the assembled bits;
//! the crate's property tests compare the two on adversarial systems.
//! `hammervolt-testkit`'s `mc_equivalence` suite enforces the whole
//! contract against the reference engine the same way the
//! compiled-SoftMC-plan suites enforce interpreter parity.

use crate::error::SpiceError;
use crate::linear::{fixed_lu, Matrix, Solve};
use crate::mna::{Layout, Stamper};
use crate::netlist::{Circuit, NodeId};

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
/// reference engine and the batched solver so both reject identically.
fn validate(circuit: &Circuit, config: &TransientConfig) -> Result<(), SpiceError> {
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

/// Seeds the initial node-voltage vector (UIC semantics): capacitor initial
/// conditions pin their non-ground terminal; sources pin their terminals at
/// `t = 0`. `volts` must be zeroed beforehand.
fn seed_initial_volts(circuit: &Circuit, volts: &mut [f64]) {
    for cap in &circuit.capacitors {
        if cap.b == 0 {
            volts[cap.a] = cap.initial_volts;
        } else if cap.a == 0 {
            volts[cap.b] = -cap.initial_volts;
        }
    }
    for src in &circuit.sources {
        let v = src.waveform.value(0.0);
        if src.minus == 0 {
            volts[src.plus] = v;
        } else if src.plus == 0 {
            volts[src.minus] = -v;
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
        seed_initial_volts(c, &mut volts);

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
// Batched fast path
// ---------------------------------------------------------------------------

/// Receives recorded samples from a [`TransientSolver`] run.
///
/// Implementations own their storage and are re-initialized by `begin` at
/// the start of every run, so a sink can be reused across thousands of
/// trials without allocating after the first.
pub trait TraceSink {
    /// Called once before stepping with the circuit's node count and an
    /// estimate of how many samples the run will record.
    fn begin(&mut self, n_nodes: usize, capacity: usize);
    /// Called for every recorded sample with the full node-voltage vector
    /// (indexed by `NodeId`, ground included).
    fn record(&mut self, t: f64, volts: &[f64]);
}

/// A [`TraceSink`] recording the time base plus a fixed subset of nodes
/// into reusable buffers — the Monte-Carlo measurement sink, which needs
/// only the handful of nodes the measurements read instead of every node
/// in the netlist.
#[derive(Debug, Clone)]
pub struct SelectedTraces {
    nodes: Vec<NodeId>,
    times: Vec<f64>,
    traces: Vec<Vec<f64>>,
}

impl SelectedTraces {
    /// Creates a sink recording the given nodes, in the given order.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        let n = nodes.len();
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

    /// Trace of the `k`-th selected node (selection order, not `NodeId`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range of the selection.
    pub fn trace(&self, k: usize) -> &[f64] {
        &self.traces[k]
    }
}

impl TraceSink for SelectedTraces {
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

    fn record(&mut self, t: f64, volts: &[f64]) {
        self.times.push(t);
        for (trace, &node) in self.traces.iter_mut().zip(&self.nodes) {
            trace.push(volts[node]);
        }
    }
}

/// A [`TraceSink`] recording every node — produces a full
/// [`TransientResult`], for one-shot callers and oracle comparisons.
#[derive(Debug, Clone, Default)]
pub struct FullTraces {
    times: Vec<f64>,
    traces: Vec<Vec<f64>>,
}

impl TraceSink for FullTraces {
    fn begin(&mut self, n_nodes: usize, capacity: usize) {
        self.times.clear();
        self.times.reserve(capacity);
        self.traces.resize(n_nodes, Vec::new());
        for trace in &mut self.traces {
            trace.clear();
            trace.reserve(capacity);
        }
    }

    fn record(&mut self, t: f64, volts: &[f64]) {
        self.times.push(t);
        for (trace, &v) in self.traces.iter_mut().zip(volts) {
            trace.push(v);
        }
    }
}

/// A reusable transient workspace sharing one symbolic analysis across many
/// solves of same-shaped circuits.
///
/// Construction performs the full layout/validation work once and picks the
/// LU solve for the layout's unknown count: the fixed-size kernel from
/// [`fixed_lu`] up to [`FIXED_LU_MAX`](crate::linear::FIXED_LU_MAX)
/// unknowns, [`Matrix::solve_in_place`] above. [`run`] accepts any circuit
/// with the same *shape* (node, source, and element structure) — typically
/// the same template with element values patched in place — and integrates
/// it without allocating. Per run, the step-invariant matrix of the base
/// system (gmin conditioning, resistors, capacitor companion conductances,
/// source incidence) is stamped once; per timestep, only the base
/// right-hand side (capacitor history currents, source values) is rebuilt;
/// each Newton iteration copies the base into the working system, adds the
/// MOSFET linearizations, and solves in place.
///
/// Results are bit-identical to [`Transient::run`] on the same circuit: the
/// per-entry stamp order (base first, MOSFETs last) matches the reference's
/// assembly order, so every f64 accumulation happens in the same sequence,
/// and the kernel performs [`Matrix::solve_in_place`]'s operations in its
/// order.
///
/// [`run`]: TransientSolver::run
#[derive(Debug, Clone)]
pub struct TransientSolver {
    config: TransientConfig,
    n_nodes: usize,
    n_sources: usize,
    solve: Solve,
    base: Stamper,
    work: Stamper,
    volts: Vec<f64>,
    candidate: Vec<f64>,
    newton_iterations: usize,
}

impl TransientSolver {
    /// Prepares a solver for circuits shaped like `circuit`.
    ///
    /// # Errors
    ///
    /// Fails if the configuration is invalid or an element references a node
    /// outside the circuit — the same conditions [`Transient::new`] rejects.
    pub fn new(circuit: &Circuit, config: TransientConfig) -> Result<Self, SpiceError> {
        validate(circuit, &config)?;
        let layout = Layout::new(circuit);
        let n_nodes = circuit.node_count();
        Ok(TransientSolver {
            config,
            n_nodes,
            n_sources: circuit.sources.len(),
            solve: fixed_lu(layout.unknowns()).unwrap_or(Matrix::solve_in_place),
            base: Stamper::new(layout.clone()),
            work: Stamper::new(layout),
            volts: vec![0.0; n_nodes],
            candidate: vec![0.0; n_nodes],
            newton_iterations: 0,
        })
    }

    /// Total Newton iterations spent across all runs of this solver.
    pub fn newton_iterations(&self) -> usize {
        self.newton_iterations
    }

    /// Integrates `circuit`, streaming recorded samples into `sink`.
    /// Returns the Newton iterations spent on this run.
    ///
    /// The circuit must have the shape the solver was built for; element
    /// *values* are free to differ (that is the point). All workspace state
    /// is re-initialized here, so a run's output is a pure function of the
    /// circuit — independent of whatever the solver ran before.
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch, an element naming a node outside the
    /// circuit, a singular MNA matrix, or Newton non-convergence.
    pub fn run(
        &mut self,
        circuit: &Circuit,
        sink: &mut impl TraceSink,
    ) -> Result<usize, SpiceError> {
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
        let cfg = self.config;
        let n_nodes = self.n_nodes;

        self.volts.iter_mut().for_each(|v| *v = 0.0);
        seed_initial_volts(circuit, &mut self.volts);

        // The base matrix is step-invariant: stamp it once, in the reference
        // engine's stamp order (gmin, resistors, capacitors, sources). Only
        // the right-hand side changes from step to step.
        self.base.clear();
        for node in 1..n_nodes {
            self.base.conductance(node, 0, cfg.gmin);
        }
        for r in &circuit.resistors {
            self.base.conductance(r.a, r.b, 1.0 / r.ohms);
        }
        for cap in &circuit.capacitors {
            self.base.conductance(cap.a, cap.b, cap.farads / cfg.dt);
        }
        for (k, s) in circuit.sources.iter().enumerate() {
            self.base.source_incidence(k, s.plus, s.minus);
        }

        let steps = (cfg.t_stop / cfg.dt).ceil() as usize;
        sink.begin(n_nodes, steps / cfg.record_stride + 2);
        sink.record(0.0, &self.volts);

        let mut newton_run = 0usize;
        for step in 1..=steps {
            let t = (step as f64) * cfg.dt;

            // This step's base right-hand side, in the same order:
            // capacitor history currents, then source values. MOSFETs are
            // the only re-linearized stamps and land last, per iteration,
            // in the working copy.
            self.base.rhs.fill(0.0);
            for cap in &circuit.capacitors {
                let geq = cap.farads / cfg.dt;
                let v_hist = self.volts[cap.a] - self.volts[cap.b];
                self.base.current_source(cap.b, cap.a, geq * v_hist);
            }
            for (k, s) in circuit.sources.iter().enumerate() {
                self.base.source_value(k, s.waveform.value(t));
            }

            self.candidate.copy_from_slice(&self.volts);
            let mut converged = false;
            for _iter in 0..cfg.max_newton {
                newton_run += 1;
                self.work.matrix.copy_from(&self.base.matrix);
                self.work.rhs.copy_from_slice(&self.base.rhs);
                for m in &circuit.mosfets {
                    let vd = self.candidate[m.drain];
                    let vg = self.candidate[m.gate];
                    let vs = self.candidate[m.source];
                    let op = m.params.evaluate(vd, vg, vs, m.bulk_volts);
                    let i0 = op.i_ds - op.di_dvd * vd - op.di_dvg * vg - op.di_dvs * vs;
                    self.work.linearized_fet(
                        m.drain, m.gate, m.source, i0, op.di_dvd, op.di_dvg, op.di_dvs,
                    );
                }

                // The working system is already a scratch copy: factorize it
                // in place, solution lands in the working RHS.
                (self.solve)(&mut self.work.matrix, &mut self.work.rhs).map_err(|e| match e {
                    SpiceError::SingularMatrix { .. } => SpiceError::SingularMatrix { time: t },
                    other => other,
                })?;

                let x = &self.work.rhs;
                let mut max_err = 0.0f64;
                for (old, &target) in self
                    .candidate
                    .iter_mut()
                    .skip(1)
                    .zip(x.iter())
                    .take(n_nodes - 1)
                {
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
                self.newton_iterations += newton_run;
                return Err(SpiceError::NoConvergence {
                    time: t,
                    iterations: cfg.max_newton,
                });
            }
            self.volts.copy_from_slice(&self.candidate);
            if step % cfg.record_stride == 0 || step == steps {
                sink.record(t, &self.volts);
            }
        }
        self.newton_iterations += newton_run;
        Ok(newton_run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::ptm;
    use crate::waveform::Waveform;

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
        let mut solver = TransientSolver::new(&c, cfg).unwrap();
        let src = c.find_node("s").unwrap();
        let mut sink = SelectedTraces::new(vec![src]);
        let iters = solver.run(&c, &mut sink).unwrap();
        assert_eq!(iters, reference.newton_iterations());
        assert_eq!(sink.times(), reference.times());
        let ref_trace = reference.trace(src).unwrap();
        assert_eq!(sink.trace(0).len(), ref_trace.len());
        for (i, (&fast, &slow)) in sink.trace(0).iter().zip(ref_trace).enumerate() {
            assert_eq!(fast.to_bits(), slow.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn solver_reuse_across_patched_circuits_matches_fresh_runs() {
        // One solver, many circuits of the same shape: each run must equal
        // a from-scratch reference run bit-for-bit, regardless of what the
        // solver ran before.
        let mut solver = TransientSolver::new(
            &follower_circuit(1.0),
            TransientConfig {
                t_stop: 10e-9,
                dt: 20e-12,
                ..TransientConfig::default()
            },
        )
        .unwrap();
        let cfg = TransientConfig {
            t_stop: 10e-9,
            dt: 20e-12,
            ..TransientConfig::default()
        };
        for scale in [0.6, 1.0, 1.7, 0.9] {
            let c = follower_circuit(scale);
            let reference = Transient::new(&c, cfg).unwrap().run().unwrap();
            let mut sink = FullTraces::default();
            solver.run(&c, &mut sink).unwrap();
            let src = c.find_node("s").unwrap();
            for (a, b) in sink.traces[src].iter().zip(reference.trace(src).unwrap()) {
                assert_eq!(a.to_bits(), b.to_bits(), "scale {scale}");
            }
        }
    }

    #[test]
    fn solver_rejects_shape_change() {
        let c = follower_circuit(1.0);
        let mut solver = TransientSolver::new(&c, TransientConfig::default()).unwrap();
        let mut other = Circuit::new();
        let a = other.node("a");
        other.resistor("R1", a, 0, 1.0);
        let mut sink = FullTraces::default();
        assert!(matches!(
            solver.run(&other, &mut sink),
            Err(SpiceError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn solver_rejects_an_element_naming_a_missing_node() {
        // Same node and source counts as the solver's circuit, but the load
        // capacitor names a node the circuit does not have: an error, as
        // `Transient::new` gives, not an out-of-bounds panic.
        let c = follower_circuit(1.0);
        let mut solver = TransientSolver::new(&c, TransientConfig::default()).unwrap();
        let mut bad = c.clone();
        let missing = c.node_count() + 3;
        bad.capacitors[0].a = missing;
        let mut sink = FullTraces::default();
        assert_eq!(
            solver.run(&bad, &mut sink).unwrap_err(),
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
        let mut solver = TransientSolver::new(&c, cfg).unwrap();
        let mut sink = SelectedTraces::new(vec![c.find_node("s").unwrap()]);
        solver.run(&c, &mut sink).unwrap();
        let first_len = sink.times().len();
        solver.run(&c, &mut sink).unwrap();
        assert_eq!(sink.times().len(), first_len);
        assert_eq!(sink.trace(0).len(), first_len);
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
