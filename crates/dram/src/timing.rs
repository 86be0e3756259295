//! DDR4 timing parameters.
//!
//! All values in nanoseconds. The defaults are the study's operating point:
//! `t_RCD = 13.5 ns` (the nominal value the paper sweeps around in Alg. 2,
//! quantized by SoftMC's 1.5 ns command slots), `t_RAS = 35 ns`,
//! `t_RP = 13.5 ns`, and a 64 ms nominal refresh window.

use serde::{Deserialize, Serialize};

/// SoftMC's command-slot granularity (§4.3, footnote 10): "Our version of
/// SoftMC can send a DRAM command every 1.5 ns".
pub const COMMAND_SLOT_NS: f64 = 1.5;

/// Nominal activate-to-read latency (ns).
pub const NOMINAL_T_RCD_NS: f64 = 13.5;

/// Nominal activate-to-precharge (charge restoration) latency (ns).
pub const NOMINAL_T_RAS_NS: f64 = 35.0;

/// Nominal precharge latency (ns).
pub const NOMINAL_T_RP_NS: f64 = 13.5;

/// Nominal refresh window (ms): every cell refreshed at least this often.
pub const NOMINAL_T_REFW_MS: f64 = 64.0;

/// A set of DRAM timing parameters used by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Activate-to-read delay (ns).
    pub t_rcd_ns: f64,
    /// Activate-to-precharge delay (ns).
    pub t_ras_ns: f64,
    /// Precharge-to-activate delay (ns).
    pub t_rp_ns: f64,
    /// Refresh window (ms).
    pub t_refw_ms: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            t_rcd_ns: NOMINAL_T_RCD_NS,
            t_ras_ns: NOMINAL_T_RAS_NS,
            t_rp_ns: NOMINAL_T_RP_NS,
            t_refw_ms: NOMINAL_T_REFW_MS,
        }
    }
}

impl TimingParams {
    /// Duration of one activate–precharge cycle (ns): the hammering period.
    pub fn act_pre_period_ns(&self) -> f64 {
        self.t_ras_ns + self.t_rp_ns
    }

    /// Returns a copy with a different `t_RCD`.
    pub fn with_t_rcd(mut self, t_rcd_ns: f64) -> Self {
        self.t_rcd_ns = t_rcd_ns;
        self
    }
}

/// 2^51 ns. A multiple of 0.5 ns below this in magnitude stays exactly
/// representable after adding `u32::MAX` command slots
/// (2^51 + 1.5 · 2^32 < 2^52).
const GRID_LIMIT_NS: f64 = 2_251_799_813_685_248.0;

/// Whether `t_ns` is a multiple of 0.5 ns below [`GRID_LIMIT_NS`] in
/// magnitude. False for NaN and ±∞.
fn on_half_ns_grid(t_ns: f64) -> bool {
    t_ns.abs() < GRID_LIMIT_NS && (t_ns * 2.0).fract() == 0.0
}

/// One column command's issue slot after a command issued at `clock`: the
/// later of the next command slot and `rcd_target`, reached by advancing
/// the clock by the difference — the memory controller's issue step,
/// float-op for float-op.
#[inline]
fn next_column_slot(clock: f64, rcd_target: f64) -> f64 {
    let target = (clock + COMMAND_SLOT_NS).max(rcd_target);
    if target > clock {
        clock + (target - clock)
    } else {
        clock
    }
}

/// The command slots of a row burst's column commands (RD or WR).
///
/// After an ACT issued at `act_at`, a memory controller issues each column
/// command on the first slot that is one command slot after the previous
/// command and no earlier than `rcd_target = act_at + t_RCD`. Issued one
/// command at a time, column `k`'s slot is the `k + 1`-th step of a
/// loop-carried recurrence starting from the ACT's slot. `ColumnSlots`
/// returns that exact value, bit for bit, without the loop whenever it can:
///
/// - Column 0 is always computed literally, as one step from `act_at`.
/// - **On the grid** — `act_at` and `rcd_target` both multiples of 0.5 ns
///   below 2^51 ns — column 0's slot is itself such a multiple no earlier
///   than `rcd_target`. Every later step then adds one slot to a multiple of
///   0.5 ns, and each intermediate value (`c + 1.5`, `(c + 1.5) − c`,
///   `c + 1.5`) is exactly representable, so column `k` sits at exactly
///   `first + 1.5 · k`: O(1) per column.
/// - **Off the grid** (any other value, NaN and ±∞ included) the
///   recurrence is advanced literally, once per column, from the last
///   column asked for — never re-run from column 0. There a step rounds
///   wherever a slot crosses a power of two, and those stepped roundings
///   need not equal one rounding of `first + 1.5 · k`.
#[derive(Debug)]
pub struct ColumnSlots {
    rcd_target: f64,
    /// Column 0's slot.
    first: f64,
    on_grid: bool,
    /// Off the grid: the slot of `column`, the furthest column reached.
    clock: f64,
    column: u32,
}

impl ColumnSlots {
    /// The column slots of a burst whose ACT issued at `act_at`, with the
    /// `t_RCD` constraint at the absolute instant `rcd_target`.
    pub fn new(act_at: f64, rcd_target: f64) -> Self {
        let first = next_column_slot(act_at, rcd_target);
        ColumnSlots {
            rcd_target,
            first,
            on_grid: on_half_ns_grid(act_at) && on_half_ns_grid(rcd_target),
            clock: first,
            column: 0,
        }
    }

    /// The issue slot of `column` (0-based), bit-identical to stepping the
    /// controller's recurrence `column + 1` times from the ACT. Off the grid
    /// the walk resumes from the furthest column asked for so far, so ask
    /// for columns in non-decreasing order.
    ///
    /// # Panics
    ///
    /// Off the grid, if `column` precedes a column already asked for.
    pub fn slot(&mut self, column: u32) -> f64 {
        if self.on_grid {
            return match column {
                0 => self.first,
                k => self.first + COMMAND_SLOT_NS * f64::from(k),
            };
        }
        assert!(
            column >= self.column,
            "column slots asked out of order: {column} after {}",
            self.column
        );
        while self.column < column {
            self.clock = next_column_slot(self.clock, self.rcd_target);
            self.column += 1;
        }
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_nominal() {
        let t = TimingParams::default();
        assert_eq!(t.t_rcd_ns, 13.5);
        assert_eq!(t.t_ras_ns, 35.0);
        assert_eq!(t.t_rp_ns, 13.5);
        assert_eq!(t.t_refw_ms, 64.0);
    }

    #[test]
    fn hammer_period() {
        let t = TimingParams::default();
        assert_eq!(t.act_pre_period_ns(), 48.5);
        // 300K double-sided hammers fit inside the paper's 30 ms test window
        let total_ms = 2.0 * 300_000.0 * t.act_pre_period_ns() * 1e-6;
        assert!(total_ms < 30.0, "hammer session takes {total_ms} ms");
    }

    #[test]
    fn with_t_rcd_builder() {
        let t = TimingParams::default().with_t_rcd(24.0);
        assert_eq!(t.t_rcd_ns, 24.0);
        assert_eq!(t.t_ras_ns, 35.0);
    }

    #[test]
    fn grid_membership() {
        for t in [0.0, -0.0, 0.5, 13.5, -7.5, 2_251_799_813_685_247.5] {
            assert!(on_half_ns_grid(t), "{t} is on the grid");
        }
        for t in [
            0.25,
            13.3,
            GRID_LIMIT_NS,
            -GRID_LIMIT_NS,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(!on_half_ns_grid(t), "{t} is off the grid");
        }
    }

    #[test]
    fn nominal_burst_slots() {
        let mut slots = ColumnSlots::new(100.0, 100.0 + NOMINAL_T_RCD_NS);
        assert_eq!(slots.slot(0), 113.5);
        assert_eq!(slots.slot(1), 115.0);
        assert_eq!(slots.slot(1023), 113.5 + 1.5 * 1023.0);
        // A t_RCD below one slot leaves the bus rate in charge.
        let mut fast = ColumnSlots::new(100.0, 100.5);
        assert_eq!(fast.slot(0), 101.5);
        assert_eq!(fast.slot(2), 104.5);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn off_grid_slots_must_be_asked_in_order() {
        let mut slots = ColumnSlots::new(0.0, 13.3);
        slots.slot(5);
        slots.slot(4);
    }
}
