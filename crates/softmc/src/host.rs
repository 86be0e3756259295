//! The top-level test session: device + supply + interposer + thermal.
//!
//! [`SoftMc`] is the object the study methodology drives. Its constructor
//! performs the paper's §4.1 bring-up: remove the interposer shunt, attach
//! the external supply at nominal `V_PP`, and settle the thermal loop at
//! 50 °C. Voltage changes go through the supply (1 mV quantization) and the
//! interposer, then to the device — which stops responding below its
//! `V_PPmin`, making [`SoftMc::find_vppmin`] the exact §4.1 procedure:
//! "gradually reduce `V_PP` with 0.1 V steps until the lowest `V_PP` at which
//! the DRAM module can successfully communicate with the FPGA".

use crate::engine::{Engine, EngineScratch};
use crate::error::SoftMcError;
use crate::power::{CurrentMeter, Interposer, PowerSupply};
use crate::program::Program;
use crate::thermal::{SettleReport, TemperatureController};
use hammervolt_dram::physics::VPP_NOMINAL;
use hammervolt_dram::timing::TimingParams;

/// Conservative ACT→RD latency used by support operations (ns).
///
/// Real SoftMC test programs leave generous margins on every timing that is
/// *not* under test, so that e.g. a RowHammer measurement at reduced `V_PP`
/// is not polluted by activation-latency failures (§4.1's interference
/// isolation). 30 ns covers the worst requirement of any Table 3 module at
/// its `V_PPmin` (24 ns for Mfr. A) with margin.
pub const CONSERVATIVE_T_RCD_NS: f64 = 30.0;
use hammervolt_dram::{DramError, DramModule};

/// A live test session over one module.
#[derive(Debug)]
pub struct SoftMc {
    module: DramModule,
    timing: TimingParams,
    supply: PowerSupply,
    interposer: Interposer,
    thermal: TemperatureController,
    meter: CurrentMeter,
    scratch: EngineScratch,
    /// Readback buffer of the session's row reads; the scratch reads
    /// return a slice of it.
    readback: Vec<u64>,
}

impl SoftMc {
    /// Brings up a module on the test infrastructure: shunt removed, external
    /// supply at the nominal 2.5 V, thermal loop settled at 50 °C, nominal
    /// timings.
    ///
    /// Every session starts from the default controller, so the 50 °C
    /// settle is simulated once per process and copied afterwards
    /// ([`TemperatureController::settle_to`]); bring-up costs about what
    /// the session's allocations do.
    pub fn new(module: DramModule) -> Self {
        let mut mc = SoftMc {
            module,
            timing: TimingParams::default(),
            supply: PowerSupply::new(),
            interposer: Interposer::new(),
            thermal: TemperatureController::default(),
            meter: CurrentMeter::default(),
            scratch: EngineScratch::new(),
            readback: Vec::new(),
        };
        mc.interposer.remove_shunt();
        mc.supply
            .set_volts(VPP_NOMINAL)
            .expect("nominal V_PP is within supply range");
        mc.supply.output_on();
        mc.module
            .set_vpp(VPP_NOMINAL)
            .expect("nominal V_PP accepted");
        let report = mc.thermal.settle_to(50.0);
        mc.module.set_temperature_c(report.final_c);
        mc
    }

    /// The device under test.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Mutable access to the device under test (for oracle queries in
    /// validation code).
    pub fn module_mut(&mut self) -> &mut DramModule {
        &mut self.module
    }

    /// Current `V_PP` at the device.
    pub fn vpp(&self) -> f64 {
        self.module.vpp()
    }

    /// The external supply's programmed setpoint (V).
    pub fn supply_setpoint(&self) -> f64 {
        self.supply.setpoint()
    }

    /// Samples the interposer current meter: average `I_PP` since the last
    /// sample (§4.1's current-measurement capability).
    pub fn measure_vpp_current(&mut self) -> f64 {
        self.meter.sample(
            self.module.total_activations(),
            self.module.now_ns(),
            self.module.vpp(),
        )
    }

    /// Drives `V_PP` through the supply/interposer to the device.
    ///
    /// # Errors
    ///
    /// Fails if the supply cannot produce the voltage, the shunt is
    /// installed, or the module stops responding (below `V_PPmin`). On a
    /// device failure the supply is restored to the previous working level.
    pub fn set_vpp(&mut self, vpp: f64) -> Result<(), SoftMcError> {
        let previous = self.supply.setpoint();
        self.supply.set_volts(vpp)?;
        let rail = self.interposer.rail_volts(VPP_NOMINAL, &self.supply)?;
        match self.module.set_vpp(rail) {
            Ok(()) => Ok(()),
            Err(e) => {
                // restore the last working level so the session stays usable
                self.supply
                    .set_volts(previous)
                    .expect("previous setpoint was valid");
                let _ = self
                    .module
                    .set_vpp(self.interposer.rail_volts(VPP_NOMINAL, &self.supply)?);
                Err(e.into())
            }
        }
    }

    /// §4.1's `V_PPmin` search: from nominal downward in 0.1 V steps until
    /// the module stops responding; returns the lowest working level and
    /// leaves the module there.
    ///
    /// # Errors
    ///
    /// Fails if even nominal `V_PP` is rejected.
    pub fn find_vppmin(&mut self) -> Result<f64, SoftMcError> {
        let (last_good, _) = self.vppmin_ladder()?;
        self.set_vpp(last_good)?;
        Ok(last_good)
    }

    /// One-shot per-module `V_PPmin` characterization: runs the §4.1 ladder,
    /// then restores the session to `VPP_NOMINAL` — the single place the
    /// post-search restore lives, so a session that later reads the
    /// memoized result and one that just searched end in the same state.
    ///
    /// Returns `(V_PPmin, ladder steps)`.
    ///
    /// # Errors
    ///
    /// Fails if even nominal `V_PP` is rejected.
    pub fn calibrate_vppmin(&mut self) -> Result<(f64, u64), SoftMcError> {
        let result = self.vppmin_ladder()?;
        self.set_vpp(VPP_NOMINAL)?;
        Ok(result)
    }

    /// The raw §4.1 descending ladder: from nominal downward in 0.1 V steps
    /// until the module stops responding. Leaves the session at the last
    /// *probed* level; callers settle it (at `V_PPmin` or nominal). Each
    /// search traces a `softmc.find_vppmin` span and counts one
    /// `softmc_vppmin_searches` plus its `softmc_vppmin_steps`.
    fn vppmin_ladder(&mut self) -> Result<(f64, u64), SoftMcError> {
        let mut span = hammervolt_obs::Span::begin("softmc.find_vppmin");
        self.set_vpp(VPP_NOMINAL)?;
        let mut last_good = VPP_NOMINAL;
        let mut step: u64 = 1;
        loop {
            let next = VPP_NOMINAL - 0.1 * step as f64;
            if next < 0.5 {
                break;
            }
            match self.set_vpp(next) {
                Ok(()) => last_good = self.vpp(),
                Err(SoftMcError::Device(DramError::CommunicationLost { .. })) => break,
                Err(other) => return Err(other),
            }
            step += 1;
        }
        hammervolt_obs::counter_add!("softmc_vppmin_searches", 1);
        hammervolt_obs::counter_add!("softmc_vppmin_steps", step);
        span.field_u64("steps", step);
        Ok((last_good, step))
    }

    /// Settles the thermal loop at a new target and applies the achieved
    /// temperature to the device.
    ///
    /// # Errors
    ///
    /// Fails if the loop cannot hold the FT200's ±0.1 °C precision.
    pub fn set_temperature(&mut self, target_c: f64) -> Result<SettleReport, SoftMcError> {
        let report = self.thermal.settle_to(target_c);
        if !report.within_precision() {
            return Err(SoftMcError::ThermalUnsettled {
                target_c,
                error_c: report.final_c - target_c,
            });
        }
        self.module.set_temperature_c(report.final_c);
        Ok(report)
    }

    /// Runs a program with the session's timing parameters through
    /// [`Engine::run`]. The session operations below build no program: each
    /// runs one bulk engine step, bit-identical to its program.
    ///
    /// # Errors
    ///
    /// Propagates program and device errors.
    pub fn run(&mut self, program: &Program) -> Result<Vec<u64>, SoftMcError> {
        self.engine().run(program)
    }

    /// An engine over the session's device at the session's timing.
    fn engine(&mut self) -> Engine<'_> {
        Engine::new(&mut self.module, self.timing, &mut self.scratch)
    }

    /// Convenience: initialize a row with a repeated word (Alg. 1's
    /// `initialize_row`).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn init_row(&mut self, bank: u32, row: u32, word: u64) -> Result<(), SoftMcError> {
        self.engine().init_row(bank, row, word)
    }

    /// Reads a whole row into the session's readback buffer with the given
    /// timing parameters; the slice stays valid until the next session
    /// operation.
    fn read_row_into_readback(
        &mut self,
        bank: u32,
        row: u32,
        timing: TimingParams,
    ) -> Result<(), SoftMcError> {
        Engine::new(&mut self.module, timing, &mut self.scratch).read_row(
            bank,
            row,
            &mut self.readback,
        )
    }

    /// Convenience: read a whole row with the session's timing parameters.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_row(&mut self, bank: u32, row: u32) -> Result<Vec<u64>, SoftMcError> {
        self.read_row_into_readback(bank, row, self.timing)?;
        Ok(self.readback.clone())
    }

    /// Allocation-free [`SoftMc::read_row`]: the returned slice borrows the
    /// session's readback buffer and stays valid until the next session
    /// operation.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_row_scratch(&mut self, bank: u32, row: u32) -> Result<&[u64], SoftMcError> {
        self.read_row_into_readback(bank, row, self.timing)?;
        Ok(&self.readback)
    }

    /// Allocation-free whole-row read with a one-shot `t_RCD` override —
    /// Alg. 2's probe read, without the save/override/restore dance on the
    /// session timing. Slice validity as for [`SoftMc::read_row_scratch`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_row_with_t_rcd_scratch(
        &mut self,
        bank: u32,
        row: u32,
        t_rcd_ns: f64,
    ) -> Result<&[u64], SoftMcError> {
        let timing = self.timing.with_t_rcd(t_rcd_ns);
        self.read_row_into_readback(bank, row, timing)?;
        Ok(&self.readback)
    }

    /// Reads a whole row with the conservative ACT→RD latency
    /// ([`CONSERVATIVE_T_RCD_NS`]), regardless of the session timing. Support
    /// reads in the study methodology use this so that activation-latency
    /// failures cannot pollute RowHammer or retention measurements.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_row_conservative(&mut self, bank: u32, row: u32) -> Result<Vec<u64>, SoftMcError> {
        self.read_row_conservative_scratch(bank, row)?;
        Ok(self.readback.clone())
    }

    /// Allocation-free [`SoftMc::read_row_conservative`]. Slice validity as
    /// for [`SoftMc::read_row_scratch`].
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn read_row_conservative_scratch(
        &mut self,
        bank: u32,
        row: u32,
    ) -> Result<&[u64], SoftMcError> {
        let timing = self
            .timing
            .with_t_rcd(CONSERVATIVE_T_RCD_NS.max(self.timing.t_rcd_ns));
        self.read_row_into_readback(bank, row, timing)?;
        Ok(&self.readback)
    }

    /// Convenience: the double-sided hammer of Alg. 1.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn hammer_double_sided(
        &mut self,
        bank: u32,
        aggressor_a: u32,
        aggressor_b: u32,
        hc: u64,
    ) -> Result<(), SoftMcError> {
        self.engine()
            .hammer(hc, &[(bank, aggressor_a), (bank, aggressor_b)])
    }

    /// Convenience: single-sided hammering (adjacency probing).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn hammer_single_sided(
        &mut self,
        bank: u32,
        aggressor: u32,
        hc: u64,
    ) -> Result<(), SoftMcError> {
        self.engine().hammer(hc, &[(bank, aggressor)])
    }

    /// Convenience: idle wait (Alg. 3's retention window).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn wait_ns(&mut self, ns: f64) -> Result<(), SoftMcError> {
        self.engine().wait(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammervolt_dram::geometry::Geometry;
    use hammervolt_dram::registry::{self, ModuleId};

    fn session(id: ModuleId, seed: u64) -> SoftMc {
        let module =
            DramModule::with_geometry(registry::spec(id), seed, Geometry::small_test()).unwrap();
        SoftMc::new(module)
    }

    #[test]
    fn bring_up_settles_at_50c_and_nominal_vpp() {
        let mc = session(ModuleId::A0, 1);
        assert_eq!(mc.vpp(), 2.5);
        assert!((mc.module().temperature_c() - 50.0).abs() <= 0.1);
    }

    #[test]
    fn vppmin_search_matches_table3() {
        for (id, expected) in [
            (ModuleId::A0, 1.4),
            (ModuleId::A5, 2.4),
            (ModuleId::B3, 1.6),
            (ModuleId::C5, 1.5),
        ] {
            let mut mc = session(id, 9);
            let vppmin = mc.find_vppmin().unwrap();
            assert!(
                (vppmin - expected).abs() < 1e-9,
                "{id:?}: found {vppmin}, table says {expected}"
            );
            // the session is left at V_PPmin and still works
            assert_eq!(mc.vpp(), vppmin);
            mc.init_row(0, 3, 0xFF).unwrap();
        }
    }

    #[test]
    fn calibrate_vppmin_finds_the_same_level_but_ends_at_nominal() {
        // The ending-state contract: `find_vppmin` leaves the session at
        // V_PPmin (the §4.1 search semantics); `calibrate_vppmin` — the
        // memoization entry point — runs the same ladder but restores
        // nominal, so memoized and fresh bring-up end in the same state.
        for id in [ModuleId::A0, ModuleId::A5, ModuleId::B3, ModuleId::C5] {
            let mut searched = session(id, 9);
            let vppmin = searched.find_vppmin().unwrap();
            let mut calibrated = session(id, 9);
            let (calibrated_min, steps) = calibrated.calibrate_vppmin().unwrap();
            assert_eq!(calibrated_min, vppmin, "{id:?}");
            assert!(steps > 0, "{id:?}");
            assert_eq!(calibrated.vpp(), 2.5, "{id:?}: must end at nominal");
            assert_eq!(calibrated.supply_setpoint(), 2.5, "{id:?}");
            // and the session still works
            calibrated.init_row(0, 3, 0xFF).unwrap();
        }
    }

    #[test]
    fn failed_vpp_restores_previous_level() {
        let mut mc = session(ModuleId::A5, 1); // V_PPmin = 2.4
        mc.set_vpp(2.4).unwrap();
        assert!(mc.set_vpp(2.0).is_err());
        assert_eq!(mc.vpp(), 2.4, "module must stay at the last working V_PP");
        assert_eq!(mc.supply_setpoint(), 2.4);
    }

    #[test]
    fn rows_round_trip_through_programs() {
        let mut mc = session(ModuleId::B3, 4);
        mc.init_row(0, 17, 0xCCCC_CCCC_CCCC_CCCC).unwrap();
        let data = mc.read_row(0, 17).unwrap();
        assert!(data.iter().all(|&w| w == 0xCCCC_CCCC_CCCC_CCCC));
    }

    #[test]
    fn hammer_session_stays_under_30ms() {
        // §4.1: each RowHammer experiment completes within 30 ms.
        let mut mc = session(ModuleId::B0, 2);
        let start = mc.module().now_ns();
        mc.hammer_double_sided(0, 10, 12, 300_000).unwrap();
        let elapsed_ms = (mc.module().now_ns() - start) * 1e-6;
        assert!(elapsed_ms < 30.0, "hammering took {elapsed_ms} ms");
    }

    #[test]
    fn temperature_retarget_for_retention_tests() {
        let mut mc = session(ModuleId::C1, 5);
        let report = mc.set_temperature(80.0).unwrap();
        assert!(report.within_precision());
        assert!((mc.module().temperature_c() - 80.0).abs() <= 0.1);
    }
}
