//! The paper's Table 2 DRAM netlist and activation/restoration experiments.
//!
//! The circuit models one DRAM cell on one bitline with its sense amplifier:
//!
//! ```text
//!                         WL (V_PP ramp)
//!                           │
//!            cell   698Ω   ┌┴┐   bl      6.98kΩ    sat ── sense amp ── saf ── 6.98kΩ ── blr
//!   16.8fF ──┤├──/\/\/──┤access├──┬──/\/\/────┬──          (latch)        ┬──/\/\/──┬
//!                                50.25fF    50.25fF                    50.25fF   50.25fF
//! ```
//!
//! The sense amplifier is a cross-coupled inverter pair between nodes `sat`
//! (true bitline, sense end) and `saf` (reference bitline) whose common
//! sources `san`/`sap` are released from V_DD/2 to 0/V_DD at the sense-enable
//! time, as in a standard DRAM activation sequence. The bitline's 100.5 fF /
//! 6.98 kΩ (Table 2) is lumped as a two-section RC on each side.
//!
//! Experiments ([`ActivationSim`]):
//!
//! - `t_RCDmin` — first time the sensed bitline crosses the read threshold
//!   (Fig. 8),
//! - `t_RASmin` — time for the cell capacitor to settle to its restored
//!   voltage (Fig. 9),
//! - restored cell voltage — saturates below V_DD when V_PP is low
//!   (Obsv. 10),
//! - mis-sense detection — at very low V_PP the reduced charge-sharing
//!   differential lets device mismatch flip the latch the wrong way
//!   (the mechanism behind the paper's footnote 13).

use crate::analysis::{self, Crossing};
use crate::error::SpiceError;
use crate::montecarlo::MonteCarlo;
use crate::mosfet::MosfetParams;
use crate::netlist::Circuit;
use crate::ptm;
use crate::transient::{Transient, TransientConfig, TransientResult};
use crate::waveform::Waveform;
use rand_chacha::ChaCha8Rng;

/// Component values and timing for the activation experiment.
///
/// Defaults are the paper's Table 2 values with a standard DDR4-like
/// activation sequence.
#[derive(Debug, Clone, Copy)]
pub struct DramCellParams {
    /// Cell storage capacitance (F). Table 2: 16.8 fF.
    pub c_cell: f64,
    /// Cell series resistance (Ω). Table 2: 698 Ω.
    pub r_cell: f64,
    /// Total bitline capacitance (F). Table 2: 100.5 fF.
    pub c_bitline: f64,
    /// Total bitline resistance (Ω). Table 2: 6980 Ω.
    pub r_bitline: f64,
    /// Cell access transistor.
    pub access: MosfetParams,
    /// Sense-amplifier NMOS pulling down the true side (drain on `sat`).
    pub sa_nmos_t: MosfetParams,
    /// Sense-amplifier NMOS pulling down the reference side (drain on `saf`).
    pub sa_nmos_r: MosfetParams,
    /// Sense-amplifier PMOS pulling up the true side.
    pub sa_pmos_t: MosfetParams,
    /// Sense-amplifier PMOS pulling up the reference side.
    pub sa_pmos_r: MosfetParams,
    /// Array supply voltage (V).
    pub vdd: f64,
    /// Wordline rise time (s).
    pub t_wl_rise: f64,
    /// Sense-amplifier enable time (s): end of the charge-sharing phase.
    pub t_sense: f64,
    /// Sense-enable ramp time (s).
    pub t_sense_ramp: f64,
    /// Fraction of V_DD the sensed bitline must reach for a reliable read.
    pub read_threshold_fraction: f64,
    /// Cell settling tolerance for `t_RASmin` (V).
    pub restore_tolerance: f64,
    /// Reliability cap on `t_RCDmin` (s): a trial whose activation takes
    /// longer than this counts as a failure. Models the bounded ACT-to-read
    /// window of the DDR4 command protocol; with the default 20 ns cap the
    /// Monte-Carlo study reports no reliable operation at V_PP ≤ 1.6 V,
    /// matching the paper's footnote 13.
    pub t_rcd_reliable_cap: f64,
    /// Simulation stop time (s).
    pub t_stop: f64,
    /// Timestep (s).
    pub dt: f64,
    /// Newton iteration budget per timestep. The default (100) converges
    /// comfortably; lowering it makes individual trials fail with
    /// `NoConvergence`, which batch runners count as trial failures —
    /// also the fault-injection hook for testing that behaviour.
    pub max_newton: usize,
}

impl Default for DramCellParams {
    fn default() -> Self {
        DramCellParams {
            c_cell: 16.8e-15,
            r_cell: 698.0,
            c_bitline: 100.5e-15,
            r_bitline: 6980.0,
            access: ptm::cell_access_nmos(),
            sa_nmos_t: ptm::sense_amp_nmos(),
            sa_nmos_r: ptm::sense_amp_nmos(),
            sa_pmos_t: ptm::sense_amp_pmos(),
            sa_pmos_r: ptm::sense_amp_pmos(),
            vdd: ptm::VDD,
            t_wl_rise: 0.5e-9,
            t_sense: 1.5e-9,
            t_sense_ramp: 2.5e-9,
            read_threshold_fraction: 0.8,
            restore_tolerance: 0.01,
            t_rcd_reliable_cap: 20e-9,
            t_stop: 50e-9,
            dt: 10e-12,
            max_newton: 100,
        }
    }
}

impl DramCellParams {
    /// Returns a copy with every component parameter independently varied by
    /// up to `mc.variation` — the paper's ±5 % process-variation protocol.
    pub fn perturbed(&self, mc: &MonteCarlo, rng: &mut ChaCha8Rng) -> Self {
        let mut p = *self;
        p.c_cell = mc.vary(p.c_cell, rng);
        p.r_cell = mc.vary(p.r_cell, rng);
        p.c_bitline = mc.vary(p.c_bitline, rng);
        p.r_bitline = mc.vary(p.r_bitline, rng);
        p.access.width = mc.vary(p.access.width, rng);
        p.access.model.vt0 = mc.vary(p.access.model.vt0, rng);
        // Each latch transistor varies independently: the *mismatch* between
        // the two sides is what produces an input-referred sense offset.
        for dev in [
            &mut p.sa_nmos_t,
            &mut p.sa_nmos_r,
            &mut p.sa_pmos_t,
            &mut p.sa_pmos_r,
        ] {
            dev.width = mc.vary(dev.width, rng);
            dev.model.vt0 = mc.vary(dev.model.vt0, rng);
        }
        p
    }

    /// The sensed bitline's first crossing of the read level for the stored
    /// value — `t_RCD`'s event: rising to `read_threshold_fraction · V_DD`
    /// for a 1, falling to `(1 − read_threshold_fraction) · V_DD` for a 0.
    pub fn read_crossing(&self, store_one: bool) -> Crossing {
        if store_one {
            Crossing::rising(self.read_threshold_fraction * self.vdd)
        } else {
            Crossing::falling((1.0 - self.read_threshold_fraction) * self.vdd)
        }
    }

    /// Analytic self-consistent restored cell voltage at a given `V_PP`:
    /// the access transistor stops conducting once
    /// `V_PP − V_T(V_cell) ≤ V_cell`, clamped at V_DD (Obsv. 10).
    pub fn restore_saturation(&self, vpp: f64) -> f64 {
        // Damped fixed-point iteration; the undamped map can oscillate when
        // the body-effect slope is steep.
        let mut v = self.vdd / 2.0;
        for _ in 0..200 {
            let target = (vpp - self.access.threshold(v)).clamp(0.0, self.vdd);
            v += 0.5 * (target - v);
        }
        v
    }
}

/// Node handles of the built activation circuit.
#[derive(Debug, Clone, Copy)]
pub struct CellNodes {
    /// Storage-capacitor node.
    pub cell: usize,
    /// Bitline node at the cell end.
    pub bl: usize,
    /// Sense-amplifier true node (bitline at the sense end).
    pub sat: usize,
    /// Sense-amplifier reference node.
    pub saf: usize,
    /// Wordline node.
    pub wl: usize,
}

/// Result of one activation simulation.
#[derive(Debug, Clone)]
pub struct ActivationResult {
    /// Recorded time points (s).
    pub times: Vec<f64>,
    /// Cell capacitor voltage trace (V).
    pub v_cell: Vec<f64>,
    /// Sensed bitline voltage trace at the sense-amplifier node (V).
    pub v_bitline: Vec<f64>,
    /// Minimum reliable activation latency: first read-threshold crossing of
    /// the sensed bitline (s); `None` when activation never completes.
    pub t_rcd_min: Option<f64>,
    /// Charge-restoration completion latency (s); `None` when the cell never
    /// settles or the sense failed.
    pub t_ras_min: Option<f64>,
    /// Final (restored) cell voltage (V).
    pub v_cell_final: f64,
    /// Whether the latch resolved in the correct direction for the stored
    /// value. A `false` here is a destructive mis-sense.
    pub sensed_correctly: bool,
}

/// Builder/runner for the activation experiment.
#[derive(Debug, Clone)]
pub struct ActivationSim {
    params: DramCellParams,
}

impl ActivationSim {
    /// Creates a simulation with the given parameters.
    pub fn new(params: DramCellParams) -> Self {
        ActivationSim { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &DramCellParams {
        &self.params
    }

    /// Builds the activation circuit for a given wordline voltage and stored
    /// value.
    pub fn build(&self, vpp: f64, store_one: bool) -> (Circuit, CellNodes) {
        let p = &self.params;
        let vdd = p.vdd;
        let half = vdd / 2.0;
        // The cell starts from its *steady-state* restored voltage: under
        // repeated activations (the study's regime) a stored 1 holds
        // min(V_DD, V_PP − V_T), not V_DD — this is how reduced V_PP couples
        // into the activation latency (Obsvs. 8 and 10).
        let v_cell0 = if store_one {
            p.restore_saturation(vpp)
        } else {
            0.0
        };

        let mut c = Circuit::new();
        let cell = c.node("cell");
        let acc = c.node("acc");
        let bl = c.node("bl");
        let sat = c.node("sat");
        let saf = c.node("saf");
        let blr = c.node("blr");
        let wl = c.node("wl");
        let san = c.node("san");
        let sap = c.node("sap");

        // Storage cell: capacitor + series resistance to the access device.
        c.capacitor("Ccell", cell, Circuit::GROUND, p.c_cell, v_cell0);
        c.resistor("Rcell", cell, acc, p.r_cell);
        // Access transistor between the bitline and the cell.
        c.mosfet("Macc", bl, wl, acc, 0.0, p.access);
        // True bitline: two lumped RC sections.
        c.capacitor("Cbl1", bl, Circuit::GROUND, p.c_bitline / 2.0, half);
        c.resistor("Rbl", bl, sat, p.r_bitline);
        c.capacitor("Cbl2", sat, Circuit::GROUND, p.c_bitline / 2.0, half);
        // Reference bitline, symmetric.
        c.capacitor("Cblr1", blr, Circuit::GROUND, p.c_bitline / 2.0, half);
        c.resistor("Rblr", blr, saf, p.r_bitline);
        c.capacitor("Cblr2", saf, Circuit::GROUND, p.c_bitline / 2.0, half);
        // Cross-coupled sense amplifier.
        c.mosfet("Mn1", sat, saf, san, 0.0, p.sa_nmos_t);
        c.mosfet("Mn2", saf, sat, san, 0.0, p.sa_nmos_r);
        c.mosfet("Mp1", sat, saf, sap, vdd, p.sa_pmos_t);
        c.mosfet("Mp2", saf, sat, sap, vdd, p.sa_pmos_r);
        // Drive waveforms.
        c.voltage_source(
            "Vwl",
            wl,
            Circuit::GROUND,
            Waveform::ramp(0.0, 0.0, p.t_wl_rise, vpp),
        );
        c.voltage_source(
            "Vsan",
            san,
            Circuit::GROUND,
            Waveform::Pwl(vec![
                (0.0, half),
                (p.t_sense, half),
                (p.t_sense + p.t_sense_ramp, 0.0),
            ]),
        );
        c.voltage_source(
            "Vsap",
            sap,
            Circuit::GROUND,
            Waveform::Pwl(vec![
                (0.0, half),
                (p.t_sense, half),
                (p.t_sense + p.t_sense_ramp, vdd),
            ]),
        );

        (
            c,
            CellNodes {
                cell,
                bl,
                sat,
                saf,
                wl,
            },
        )
    }

    /// Runs a full activation (charge sharing → sensing → restoration) for a
    /// cell storing `1` at the given `V_PP`.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (singular matrix, non-convergence).
    pub fn run(&self, vpp: f64) -> Result<ActivationResult, SpiceError> {
        self.run_stored(vpp, true)
    }

    /// Runs a full activation with an explicit stored value.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures. A degenerate result (missing or empty
    /// trace) is reported as [`SpiceError::DegenerateResult`] rather than a
    /// panic, so batch runners can count the trial as failed and continue.
    pub fn run_stored(&self, vpp: f64, store_one: bool) -> Result<ActivationResult, SpiceError> {
        let p = &self.params;
        let (circuit, nodes) = self.build(vpp, store_one);
        let cfg = TransientConfig {
            t_stop: p.t_stop,
            dt: p.dt,
            record_stride: 1,
            max_newton: p.max_newton,
            ..TransientConfig::default()
        };
        let result: TransientResult = Transient::new(&circuit, cfg)?.run()?;
        let missing = |what: &str| SpiceError::DegenerateResult {
            reason: format!("missing {what} trace"),
        };
        let empty = |what: &str| SpiceError::DegenerateResult {
            reason: format!("empty {what} trace"),
        };
        let times = result.times().to_vec();
        let v_cell = result
            .trace(nodes.cell)
            .ok_or_else(|| missing("cell"))?
            .to_vec();
        let v_sat = result.trace(nodes.sat).ok_or_else(|| missing("sat"))?;
        let v_saf = result.trace(nodes.saf).ok_or_else(|| missing("saf"))?;
        let sat_final = *v_sat.last().ok_or_else(|| empty("sat"))?;
        let saf_final = *v_saf.last().ok_or_else(|| empty("saf"))?;
        let read_at = p.read_crossing(store_one).first_in(&times, v_sat);

        let m = measure_activation(p, store_one, &times, &v_cell, sat_final, saf_final, read_at)?;
        Ok(ActivationResult {
            times,
            v_cell,
            v_bitline: v_sat.to_vec(),
            t_rcd_min: m.t_rcd_min,
            t_ras_min: m.t_ras_min,
            v_cell_final: m.v_cell_final,
            sensed_correctly: m.sensed_correctly,
        })
    }
}

/// Scalar measurements extracted from one activation's traces — everything
/// the Monte-Carlo statistics need, without the traces themselves.
#[derive(Debug, Clone, Copy)]
pub struct ActivationMeasurement {
    /// First read-threshold crossing (s), `None` if activation never
    /// completed.
    pub t_rcd_min: Option<f64>,
    /// Charge-restoration settling time (s).
    pub t_ras_min: Option<f64>,
    /// Final (restored) cell voltage (V).
    pub v_cell_final: f64,
    /// Whether the latch resolved in the correct direction.
    pub sensed_correctly: bool,
}

/// Extracts the activation measurements from the cell trace and what the
/// measurements read of the bitlines: the sensed (sat) and reference (saf)
/// sides' final voltages and the sensed side's first crossing of the read
/// level ([`DramCellParams::read_crossing`]). Shared by
/// [`ActivationSim::run_stored`], which finds the crossing in its recorded
/// trace, and the batched Monte-Carlo runner, which finds it as samples
/// arrive, so both produce identical verdicts from identical samples.
///
/// # Errors
///
/// Returns [`SpiceError::DegenerateResult`] for an empty cell trace — a
/// property of one parameter draw, counted as a trial failure by batch
/// runners.
pub fn measure_activation(
    p: &DramCellParams,
    store_one: bool,
    times: &[f64],
    v_cell: &[f64],
    sat_final: f64,
    saf_final: f64,
    read_at: Option<f64>,
) -> Result<ActivationMeasurement, SpiceError> {
    // Sense verdict: after the latch resolves, the true side must sit on
    // the rail matching the stored value.
    let v_cell_final = *v_cell.last().ok_or_else(|| SpiceError::DegenerateResult {
        reason: "empty cell trace".to_string(),
    })?;
    let sensed_correctly = if store_one {
        sat_final > saf_final + 0.1 * p.vdd
    } else {
        saf_final > sat_final + 0.1 * p.vdd
    };

    // t_RCD: the sensed bitline reaching the read level for the stored
    // value.
    let t_rcd_min = if sensed_correctly { read_at } else { None };

    // t_RAS: cell settled to its restored level.
    let t_ras_min = if sensed_correctly {
        analysis::settling_time(times, v_cell, p.restore_tolerance)
    } else {
        None
    };

    Ok(ActivationMeasurement {
        t_rcd_min,
        t_ras_min,
        v_cell_final,
        sensed_correctly,
    })
}

/// Aggregate Monte-Carlo statistics for one `V_PP` level (Figs. 8b and 9b).
#[derive(Debug, Clone)]
pub struct McActivationStats {
    /// The `V_PP` level simulated (V).
    pub vpp: f64,
    /// Per-trial `t_RCDmin` values (s); failed trials omitted.
    pub t_rcd: Vec<f64>,
    /// Per-trial `t_RASmin` values (s); failed trials omitted.
    pub t_ras: Vec<f64>,
    /// Per-trial restored cell voltage (V), for every trial whose simulation
    /// completed (solver failures omitted).
    pub v_restore: Vec<f64>,
    /// Number of trials whose activation failed — mis-sense, no threshold
    /// crossing, or a solver failure. Superset of `solver_failures`.
    pub failures: usize,
    /// Number of trials whose *simulation* failed numerically (singular
    /// matrix, Newton non-convergence, degenerate output). These draws count
    /// as failed activations rather than aborting the whole study.
    pub solver_failures: usize,
    /// Total trials run.
    pub trials: usize,
}

impl McActivationStats {
    /// Whether every trial completed activation reliably.
    pub fn reliable(&self) -> bool {
        self.failures == 0
    }

    /// Worst-case (largest) `t_RCDmin` across trials, if any succeeded.
    pub fn worst_t_rcd(&self) -> Option<f64> {
        self.t_rcd
            .iter()
            .cloned()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Worst-case (largest) `t_RASmin` across trials, if any succeeded.
    pub fn worst_t_ras(&self) -> Option<f64> {
        self.t_ras
            .iter()
            .cloned()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Folds one completed trial's measurements into the statistics. Shared
    /// by the serial and batched runners so both count identically.
    pub(crate) fn fold_measurement(&mut self, base: &DramCellParams, m: &ActivationMeasurement) {
        self.v_restore.push(m.v_cell_final);
        match (m.sensed_correctly, m.t_rcd_min, m.t_ras_min) {
            (true, Some(rcd), Some(ras)) if rcd <= base.t_rcd_reliable_cap => {
                self.t_rcd.push(rcd);
                self.t_ras.push(ras);
            }
            _ => self.failures += 1,
        }
    }

    /// Folds one numerically-failed trial into the statistics.
    pub(crate) fn fold_solver_failure(&mut self) {
        self.failures += 1;
        self.solver_failures += 1;
    }
}

/// Runs the paper's Monte-Carlo activation study at one `V_PP` level.
///
/// Delegates to the batched runner ([`crate::batch::BatchedActivation`]);
/// worker count comes from the `HAMMERVOLT_JOBS` environment variable
/// (0 or unset = all cores; a malformed value warns and means all cores,
/// see [`hammervolt_par::jobs_from_env`]). Results are bit-identical to
/// [`monte_carlo_activation_serial`] for any worker count.
///
/// # Errors
///
/// Propagates configuration/netlist errors. Per-trial numerical failures
/// (singular matrix, non-convergence, degenerate output) are counted in the
/// statistics, not propagated — one pathological draw must not abort a
/// 10 000-trial study.
pub fn monte_carlo_activation(
    base: &DramCellParams,
    vpp: f64,
    mc: &MonteCarlo,
) -> Result<McActivationStats, SpiceError> {
    crate::batch::BatchedActivation::new(base, vpp)?.run(mc, hammervolt_par::jobs_from_env())
}

/// The serial reference for [`monte_carlo_activation`]: one fresh circuit,
/// layout, and transient engine per trial. Retained as the equivalence
/// oracle for the batched fast path (`hammervolt-testkit`'s
/// `mc_equivalence` suite), with identical failure-counting semantics.
///
/// # Errors
///
/// Propagates configuration/netlist errors; counts per-trial numerical
/// failures.
pub fn monte_carlo_activation_serial(
    base: &DramCellParams,
    vpp: f64,
    mc: &MonteCarlo,
) -> Result<McActivationStats, SpiceError> {
    let mut stats = McActivationStats {
        vpp,
        t_rcd: Vec::new(),
        t_ras: Vec::new(),
        v_restore: Vec::new(),
        failures: 0,
        solver_failures: 0,
        trials: mc.trials,
    };
    for trial in 0..mc.trials {
        let mut rng = mc.trial_rng(trial);
        let params = base.perturbed(mc, &mut rng);
        let sim = ActivationSim::new(params);
        match sim.run(vpp) {
            Ok(res) => {
                let m = ActivationMeasurement {
                    t_rcd_min: res.t_rcd_min,
                    t_ras_min: res.t_ras_min,
                    v_cell_final: res.v_cell_final,
                    sensed_correctly: res.sensed_correctly,
                };
                stats.fold_measurement(base, &m);
            }
            Err(e) if e.is_trial_failure() => stats.fold_solver_failure(),
            Err(e) => return Err(e),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> DramCellParams {
        DramCellParams {
            t_stop: 40e-9,
            dt: 20e-12,
            ..DramCellParams::default()
        }
    }

    #[test]
    fn activation_at_nominal_vpp_completes() {
        let sim = ActivationSim::new(quick_params());
        let res = sim.run(ptm::VPP_NOMINAL).unwrap();
        assert!(
            res.sensed_correctly,
            "latch must resolve high for a stored 1"
        );
        let t_rcd = res.t_rcd_min.expect("activation completes");
        assert!(
            t_rcd > 1e-9 && t_rcd < 30e-9,
            "t_RCD = {:.2} ns out of plausible range",
            t_rcd * 1e9
        );
        // cell restored to V_DD at nominal V_PP
        assert!(
            (res.v_cell_final - 1.2).abs() < 0.05,
            "restored to {} V",
            res.v_cell_final
        );
    }

    #[test]
    fn activation_latency_increases_as_vpp_falls() {
        let sim = ActivationSim::new(quick_params());
        let hi = sim.run(2.5).unwrap().t_rcd_min.unwrap();
        let lo = sim.run(1.8).unwrap().t_rcd_min.unwrap();
        assert!(
            lo > hi,
            "t_RCD {:.2} ns at 1.8 V vs {:.2} ns at 2.5 V",
            lo * 1e9,
            hi * 1e9
        );
    }

    #[test]
    fn restoration_saturates_below_vdd_at_low_vpp() {
        let sim = ActivationSim::new(quick_params());
        let res = sim.run(1.7).unwrap();
        assert!(
            res.v_cell_final < 1.1,
            "cell must saturate below V_DD, got {} V",
            res.v_cell_final
        );
        assert!(res.v_cell_final > 0.8);
        // matches the analytic self-consistent saturation level
        let analytic = quick_params().restore_saturation(1.7);
        assert!(
            (res.v_cell_final - analytic).abs() < 0.1,
            "simulated {} vs analytic {}",
            res.v_cell_final,
            analytic
        );
    }

    #[test]
    fn stored_zero_senses_low() {
        let sim = ActivationSim::new(quick_params());
        let res = sim.run_stored(2.5, false).unwrap();
        assert!(res.sensed_correctly);
        assert!(res.t_rcd_min.is_some());
        assert!(
            res.v_cell_final < 0.2,
            "cell restored low, got {}",
            res.v_cell_final
        );
    }

    #[test]
    fn analytic_saturation_matches_obsv10_shape() {
        let p = DramCellParams::default();
        // At and above 2.0 V the cell reaches V_DD.
        assert!((p.restore_saturation(2.5) - 1.2).abs() < 1e-6);
        assert!((p.restore_saturation(2.0) - 1.2).abs() < 0.02);
        // Below 2.0 V it saturates progressively lower.
        let v19 = p.restore_saturation(1.9);
        let v18 = p.restore_saturation(1.8);
        let v17 = p.restore_saturation(1.7);
        assert!(v19 < 1.2 && v18 < v19 && v17 < v18);
        assert!(v17 > 0.9 && v17 < 1.05, "v17 = {v17}");
    }

    #[test]
    fn monte_carlo_collects_trials() {
        let mc = MonteCarlo::quick(4);
        let stats = monte_carlo_activation(&quick_params(), 2.5, &mc).unwrap();
        assert_eq!(stats.trials, 4);
        assert_eq!(stats.t_rcd.len() + stats.failures, 4);
        assert!(stats.reliable(), "nominal V_PP must be reliable");
        assert!(stats.worst_t_rcd().unwrap() >= stats.t_rcd.iter().cloned().fold(0.0, f64::max));
        assert_eq!(stats.v_restore.len(), 4);
    }

    #[test]
    fn perturbed_parameters_stay_within_bounds() {
        let mc = MonteCarlo::quick(1);
        let base = DramCellParams::default();
        let mut rng = mc.trial_rng(0);
        let p = base.perturbed(&mc, &mut rng);
        assert!((p.c_cell / base.c_cell - 1.0).abs() <= 0.05 + 1e-12);
        assert!((p.access.model.vt0 / base.access.model.vt0 - 1.0).abs() <= 0.05 + 1e-12);
        assert_ne!(p.c_cell, base.c_cell);
    }
}
