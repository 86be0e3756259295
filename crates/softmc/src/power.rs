//! External `V_PP` supply and interposer model.
//!
//! §4.1: "The interposer board enforces the power to be supplied through a
//! shunt resistor on the V_PP rail. We remove this shunt resistor to
//! electrically disconnect the V_PP rails of the DRAM module and the FPGA
//! board. Then, we supply power to the DRAM module's V_PP power rail from an
//! external TTi PL068-P power supply, which enables us to control V_PP at
//! the precision of ±1 mV."

use crate::error::SoftMcError;
use serde::{Deserialize, Serialize};

/// The TTi PL068-P bench supply: 0–6 V, 8 A, 1 mV setpoint resolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSupply {
    /// Current output setpoint (V), quantized to 1 mV.
    setpoint_v: f64,
    /// Output enabled?
    output_on: bool,
    /// Maximum output voltage (V).
    max_v: f64,
}

impl Default for PowerSupply {
    fn default() -> Self {
        PowerSupply::new()
    }
}

impl PowerSupply {
    /// A PL068-P at its power-on state: output off, 0 V.
    pub fn new() -> Self {
        PowerSupply {
            setpoint_v: 0.0,
            output_on: false,
            max_v: 6.0,
        }
    }

    /// Programs the output voltage, quantized to the supply's 1 mV
    /// resolution.
    ///
    /// # Errors
    ///
    /// Fails if the request exceeds the supply's range.
    pub fn set_volts(&mut self, volts: f64) -> Result<(), SoftMcError> {
        if !(0.0..=self.max_v).contains(&volts) || !volts.is_finite() {
            return Err(SoftMcError::SupplyRange {
                requested: volts,
                max: self.max_v,
            });
        }
        self.setpoint_v = (volts * 1000.0).round() / 1000.0;
        Ok(())
    }

    /// Enables the output.
    pub fn output_on(&mut self) {
        self.output_on = true;
    }

    /// The voltage currently present at the terminals: the setpoint when the
    /// output is enabled, 0 V otherwise.
    pub fn terminal_volts(&self) -> f64 {
        if self.output_on {
            self.setpoint_v
        } else {
            0.0
        }
    }

    /// The programmed setpoint.
    pub fn setpoint(&self) -> f64 {
        self.setpoint_v
    }
}

/// The Adexelec interposer's `V_PP` path: by default the rail is fed from
/// the FPGA board through a shunt resistor; removing the shunt disconnects
/// it so the external supply can take over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interposer {
    shunt_installed: bool,
}

impl Default for Interposer {
    fn default() -> Self {
        Interposer::new()
    }
}

impl Interposer {
    /// A factory-fresh interposer with the shunt installed.
    pub fn new() -> Self {
        Interposer {
            shunt_installed: true,
        }
    }

    /// Whether the shunt is still in place.
    pub fn shunt_installed(&self) -> bool {
        self.shunt_installed
    }

    /// Removes the shunt (a one-way, physical modification).
    pub fn remove_shunt(&mut self) {
        self.shunt_installed = false;
    }

    /// The `V_PP` the module sees given the FPGA rail and the external
    /// supply.
    ///
    /// # Errors
    ///
    /// With the shunt installed, attaching an external supply would fight
    /// the FPGA rail: reported as [`SoftMcError::ShuntInstalled`] when the
    /// supply output is on.
    pub fn rail_volts(&self, fpga_rail_v: f64, external: &PowerSupply) -> Result<f64, SoftMcError> {
        if self.shunt_installed {
            if external.terminal_volts() > 0.0 {
                return Err(SoftMcError::ShuntInstalled);
            }
            Ok(fpga_rail_v)
        } else {
            Ok(external.terminal_volts())
        }
    }
}

/// Wordline-pump current estimation — the measurement the Adexelec
/// interposer's shunt path provides (§4.1: "a commercial interposer board
/// ... with current measurement capability").
///
/// Each ACT pumps the wordline capacitance to `V_PP` and back; the supply
/// current is the activation rate times that charge plus a static pump
/// leakage term.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurrentMeter {
    /// Effective wordline capacitance charged per activation (F).
    pub c_wordline: f64,
    /// Static V_PP rail draw (A).
    pub standby_a: f64,
    last_activations: u64,
    last_ns: f64,
}

impl Default for CurrentMeter {
    fn default() -> Self {
        CurrentMeter {
            // ~150 pF of wordline + driver capacitance across the rank
            c_wordline: 150e-12,
            standby_a: 4e-3,
            last_activations: 0,
            last_ns: 0.0,
        }
    }
}

impl CurrentMeter {
    /// Samples the meter: given the device's cumulative activation count and
    /// clock, returns the average `I_PP` over the interval since the last
    /// sample. The first sample (or a zero-length interval) reports the
    /// standby current.
    pub fn sample(&mut self, activations: u64, now_ns: f64, vpp: f64) -> f64 {
        let d_act = activations.saturating_sub(self.last_activations) as f64;
        let d_t = (now_ns - self.last_ns) * 1e-9;
        self.last_activations = activations;
        self.last_ns = now_ns;
        if d_t <= 0.0 {
            return self.standby_a;
        }
        let charge_per_act = self.c_wordline * vpp;
        self.standby_a + d_act * charge_per_act / d_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setpoint_quantizes_to_millivolts() {
        let mut s = PowerSupply::new();
        s.set_volts(2.4996).unwrap();
        assert_eq!(s.setpoint(), 2.5);
        s.set_volts(1.7004).unwrap();
        assert_eq!(s.setpoint(), 1.7);
    }

    #[test]
    fn range_is_enforced() {
        let mut s = PowerSupply::new();
        assert!(s.set_volts(6.0).is_ok());
        assert!(matches!(
            s.set_volts(6.5),
            Err(SoftMcError::SupplyRange { .. })
        ));
        assert!(s.set_volts(-0.1).is_err());
        assert!(s.set_volts(f64::NAN).is_err());
    }

    #[test]
    fn output_gating() {
        let mut s = PowerSupply::new();
        s.set_volts(2.5).unwrap();
        assert_eq!(s.terminal_volts(), 0.0);
        s.output_on();
        assert_eq!(s.terminal_volts(), 2.5);
    }

    #[test]
    fn shunt_blocks_external_supply() {
        let interposer = Interposer::new();
        let mut supply = PowerSupply::new();
        supply.set_volts(2.5).unwrap();
        supply.output_on();
        assert!(matches!(
            interposer.rail_volts(2.5, &supply),
            Err(SoftMcError::ShuntInstalled)
        ));
    }

    #[test]
    fn shunt_passes_fpga_rail_when_supply_off() {
        let interposer = Interposer::new();
        let supply = PowerSupply::new();
        assert_eq!(interposer.rail_volts(2.5, &supply).unwrap(), 2.5);
    }

    #[test]
    fn current_meter_tracks_activation_rate() {
        let mut m = CurrentMeter::default();
        // first sample: standby only
        assert_eq!(m.sample(0, 0.0, 2.5), m.standby_a);
        // 1M activations over 48.5 ms (the hammer period): I = standby + rate·Q
        let i = m.sample(1_000_000, 48.5e6, 2.5);
        let expected = 4e-3 + 1_000_000.0 * 150e-12 * 2.5 / 48.5e-3;
        assert!((i - expected).abs() < 1e-6, "i = {i}, expected {expected}");
        // idle interval back to standby
        let idle = m.sample(1_000_000, 60e6, 2.5);
        assert_eq!(idle, m.standby_a);
    }

    #[test]
    fn lower_vpp_draws_less_pump_current() {
        let mut hi = CurrentMeter::default();
        let mut lo = CurrentMeter::default();
        hi.sample(0, 0.0, 2.5);
        lo.sample(0, 0.0, 1.6);
        let i_hi = hi.sample(500_000, 24e6, 2.5);
        let i_lo = lo.sample(500_000, 24e6, 1.6);
        assert!(i_lo < i_hi);
    }

    #[test]
    fn removed_shunt_hands_control_to_supply() {
        let mut interposer = Interposer::new();
        interposer.remove_shunt();
        assert!(!interposer.shunt_installed());
        let mut supply = PowerSupply::new();
        supply.set_volts(1.8).unwrap();
        supply.output_on();
        assert_eq!(interposer.rail_volts(2.5, &supply).unwrap(), 1.8);
    }
}
