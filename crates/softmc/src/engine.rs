//! The command engine: program execution against a device.
//!
//! The engine enforces the configured [`TimingParams`] the way a memory
//! controller does — inserting the ACT→RD (`t_RCD`), ACT→PRE (`t_RAS`), and
//! PRE→ACT (`t_RP`) delays — and issues commands on SoftMC's 1.5 ns slot
//! grid. [`Engine::run`] executes a [`Program`] instruction by instruction,
//! except that a loop whose body is only ACT–PRE pairs (`LOOP n { ACT; PRE;
//! ... }`) runs through the device's bulk-hammer operation, in O(1)
//! dispatches instead of O(n).
//!
//! The session operations [`crate::SoftMc`] issues (init row, read row,
//! hammer, wait) build no program: each calls one bulk step as one program
//! run. A whole-row write or read moves the row through the device's bulk
//! row operations in O(1) dispatches instead of O(columns), issuing every
//! logical command at the slot the program's single commands reach, drawing
//! the same noise, tallying the same [`CommandMix`] and failing at the same
//! command, so each operation is bit-identical to running its program
//! through [`Engine::run`].

use crate::error::SoftMcError;
use crate::inst::Instruction;
use crate::program::{Op, Program};
use hammervolt_dram::timing::{ColumnSlots, TimingParams, COMMAND_SLOT_NS};
use hammervolt_dram::DramModule;
use hammervolt_obs::counter_add;

/// A program run's DDR4 command mix, tallied locally (plain integer adds on
/// the hot path) and flushed to the process-wide metrics registry once per
/// run. Coalesced hammer loops and row bursts count their *logical*
/// commands — `count × pairs` ACT/PRE, one RD/WR per column — so the mix
/// reports what the device experienced, not how the engine optimized it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandMix {
    /// ACT commands issued.
    pub act: u64,
    /// PRE commands issued.
    pub pre: u64,
    /// RD commands issued.
    pub rd: u64,
    /// WR commands issued.
    pub wr: u64,
    /// REF commands issued.
    pub refresh: u64,
    /// WAIT pseudo-commands executed.
    pub wait: u64,
}

/// Per-bank controller-side state.
#[derive(Debug, Clone, Copy, Default)]
struct BankTrack {
    /// Time of the last ACT, if the bank is open.
    act_at_ns: Option<f64>,
    /// Time of the last PRE.
    pre_at_ns: f64,
}

/// Reusable engine working memory: the per-bank bookkeeping every
/// [`Engine`] borrows. A host that runs many short programs (one per
/// Alg. 1–3 measurement step) keeps one `EngineScratch`, so building an
/// engine allocates nothing after the first.
#[derive(Debug, Default)]
pub struct EngineScratch {
    banks: Vec<BankTrack>,
}

impl EngineScratch {
    /// Creates empty scratch; sized lazily by the first engine built on it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Executes programs against a device with timing enforcement.
#[derive(Debug)]
pub struct Engine<'d> {
    module: &'d mut DramModule,
    timing: TimingParams,
    /// Per-bank bookkeeping, borrowed from an [`EngineScratch`].
    banks: &'d mut [BankTrack],
    /// Issue time of the previous command (bus occupancy: one command per
    /// 1.5 ns slot).
    last_cmd_ns: f64,
    /// Command tally for the current program run.
    mix: CommandMix,
}

impl<'d> Engine<'d> {
    /// Creates an engine over a device with the given timing parameters.
    /// Its bank bookkeeping lives in `scratch`, reset here, so after the
    /// scratch's first use building an engine allocates nothing.
    pub fn new(
        module: &'d mut DramModule,
        timing: TimingParams,
        scratch: &'d mut EngineScratch,
    ) -> Self {
        scratch.banks.clear();
        scratch
            .banks
            .resize(module.geometry().banks as usize, BankTrack::default());
        let last_cmd_ns = module.now_ns() - COMMAND_SLOT_NS;
        Engine {
            module,
            timing,
            banks: &mut scratch.banks,
            last_cmd_ns,
            mix: CommandMix::default(),
        }
    }

    /// Runs a program to completion, returning all data read.
    ///
    /// # Errors
    ///
    /// Propagates program and device errors; the device clock reflects all
    /// commands issued up to the failure point.
    pub fn run(&mut self, program: &Program) -> Result<Vec<u64>, SoftMcError> {
        let mut out = Vec::new();
        self.as_program(|e| e.run_ops(&program.ops, &mut out))?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Session operations: one bulk step, run as one program with no
    // program built.
    // ------------------------------------------------------------------

    /// The whole-row `ACT; WR×columns; PRE` of [`Program::init_row`],
    /// writing `word` to every column.
    pub(crate) fn init_row(&mut self, bank: u32, row: u32, word: u64) -> Result<(), SoftMcError> {
        self.as_program(|e| e.write_burst(bank, row, word))
    }

    /// The whole-row `ACT; RD×columns; PRE` of [`Program::read_row`], the
    /// words read replacing `out`'s contents.
    pub(crate) fn read_row(
        &mut self,
        bank: u32,
        row: u32,
        out: &mut Vec<u64>,
    ) -> Result<(), SoftMcError> {
        out.clear();
        self.as_program(|e| e.read_burst(bank, row, out))
    }

    /// `count` passes over the (bank, row) ACT–PRE `pairs`: the hammer loop
    /// of [`Program::hammer_double_sided`] and
    /// [`Program::hammer_single_sided`].
    pub(crate) fn hammer(&mut self, count: u64, pairs: &[(u32, u32)]) -> Result<(), SoftMcError> {
        self.as_program(|e| e.run_hammer_loop(count, pairs))
    }

    /// An idle wait of `ns`: a one-`WAIT` program.
    pub(crate) fn wait(&mut self, ns: f64) -> Result<(), SoftMcError> {
        self.as_program(|e| e.issue(Instruction::Wait { ns }, &mut Vec::new()))
    }

    /// Runs `body` as one program: resets the command tally, runs it, and
    /// flushes the tally with the outcome.
    fn as_program(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<(), SoftMcError>,
    ) -> Result<(), SoftMcError> {
        self.mix = CommandMix::default();
        let result = body(self);
        self.flush_mix(&result);
        result
    }

    /// The command tally of the most recent run (complete or failed).
    pub fn command_mix(&self) -> CommandMix {
        self.mix
    }

    /// Flushes the run's command tally to the metrics registry. Pure side
    /// channel: a handful of relaxed atomic adds when metrics are on, one
    /// atomic load when off.
    fn flush_mix(&self, result: &Result<(), SoftMcError>) {
        if !hammervolt_obs::metrics_enabled() {
            return;
        }
        counter_add!("softmc_programs", 1);
        counter_add!("softmc_act", self.mix.act);
        counter_add!("softmc_pre", self.mix.pre);
        counter_add!("softmc_rd", self.mix.rd);
        counter_add!("softmc_wr", self.mix.wr);
        counter_add!("softmc_ref", self.mix.refresh);
        counter_add!("softmc_wait", self.mix.wait);
        match result {
            Ok(()) => {}
            Err(SoftMcError::BadProgram { .. }) => counter_add!("softmc_bad_programs", 1),
            Err(_) => counter_add!("softmc_device_errors", 1),
        }
    }

    /// The controller-side state of `bank`; a bank outside the geometry
    /// reads as closed and never precharged (the device rejects its
    /// commands).
    #[inline]
    fn track(&self, bank: u32) -> BankTrack {
        self.banks.get(bank as usize).copied().unwrap_or_default()
    }

    /// Executes `ACT; WR×columns; PRE` over the whole row in one bulk fill.
    fn write_burst(&mut self, bank: u32, row: u32, word: u64) -> Result<(), SoftMcError> {
        let columns = self.module.geometry().columns_per_row;
        // Writes read nothing, so the sink stays empty.
        let none = &mut Vec::new();
        self.issue(Instruction::Act { bank, row }, none)?;
        let t_act = self.last_cmd_ns;
        self.mix.wr += u64::from(columns);
        // All writes land in one bulk fill; only the final write's clock is
        // observable (it stamps the row's restore time), so the clock jumps
        // straight to the last WR slot — the slot the per-column
        // `issue_slot` calls reach, bit for bit, in O(1) on the
        // half-nanosecond grid. The geometry has at least one column.
        let t_last = ColumnSlots::new(t_act, t_act + self.timing.t_rcd_ns).slot(columns - 1);
        self.module.advance_to_ns(t_last);
        self.last_cmd_ns = t_last;
        self.module.fill_open_row(bank, columns, word)?;
        self.issue(Instruction::Pre { bank }, none)
    }

    /// Executes `ACT; RD×columns; PRE` over the whole row, appending the
    /// read words to `out`. The device's bulk read takes each column's slot
    /// from [`ColumnSlots`] — the values the per-column `issue_slot` calls
    /// reach, bit for bit — so every column sees the identical effective
    /// `t_RCD`, and the clock is left at the final read's slot.
    fn read_burst(&mut self, bank: u32, row: u32, out: &mut Vec<u64>) -> Result<(), SoftMcError> {
        let columns = self.module.geometry().columns_per_row;
        self.issue(Instruction::Act { bank, row }, out)?;
        self.mix.rd += u64::from(columns);
        self.module
            .read_open_row_into(bank, self.timing.t_rcd_ns, columns, out)?;
        self.last_cmd_ns = self.module.now_ns();
        self.issue(Instruction::Pre { bank }, out)
    }

    // ------------------------------------------------------------------
    // Program execution
    // ------------------------------------------------------------------

    fn run_ops(&mut self, ops: &[Op], out: &mut Vec<u64>) -> Result<(), SoftMcError> {
        for op in ops {
            match op {
                Op::Inst(inst) => self.issue(*inst, out)?,
                Op::Loop { count, body } => {
                    if let Some(pairs) = hammer_pairs(body) {
                        self.run_hammer_loop(*count, &pairs)?;
                    } else {
                        for _ in 0..*count {
                            self.run_ops(body, out)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn run_hammer_loop(&mut self, count: u64, pairs: &[(u32, u32)]) -> Result<(), SoftMcError> {
        let period = self.timing.act_pre_period_ns();
        let logical = count.saturating_mul(pairs.len() as u64);
        self.mix.act = self.mix.act.saturating_add(logical);
        self.mix.pre = self.mix.pre.saturating_add(logical);
        for &(bank, row) in pairs {
            // Close timing bookkeeping for the bank: hammering leaves it
            // precharged.
            self.module.hammer(bank, row, count, period)?;
            if let Some(track) = self.banks.get_mut(bank as usize) {
                track.act_at_ns = None;
                track.pre_at_ns = self.module.now_ns();
            }
        }
        self.last_cmd_ns = self.module.now_ns();
        Ok(())
    }

    /// Advances the device clock to the issue slot of the next command: the
    /// later of the timing `constraint` and one command slot after the
    /// previous command. Command slots overlap timing waits, exactly as on a
    /// real controller — a PRE issues *at* `t_RAS`, not a slot after it.
    fn issue_slot(&mut self, constraint: f64) -> f64 {
        let t = (self.last_cmd_ns + COMMAND_SLOT_NS).max(constraint);
        let now = self.module.now_ns();
        if t > now {
            self.module.advance_ns(t - now);
        }
        self.last_cmd_ns = self.module.now_ns();
        self.last_cmd_ns
    }

    /// Issues one instruction with timing enforcement.
    fn issue(&mut self, inst: Instruction, out: &mut Vec<u64>) -> Result<(), SoftMcError> {
        match inst {
            Instruction::Act { .. } => self.mix.act += 1,
            Instruction::Pre { .. } => self.mix.pre += 1,
            Instruction::Rd { .. } => self.mix.rd += 1,
            Instruction::Wr { .. } => self.mix.wr += 1,
            Instruction::Ref => self.mix.refresh += 1,
            Instruction::Wait { .. } => self.mix.wait += 1,
        }
        match inst {
            Instruction::Act { bank, row } => {
                let track = self.track(bank);
                // tRP: wait after the last precharge.
                let t = self.issue_slot(track.pre_at_ns + self.timing.t_rp_ns);
                self.module.activate(bank, row)?;
                if let Some(track) = self.banks.get_mut(bank as usize) {
                    track.act_at_ns = Some(t);
                }
            }
            Instruction::Pre { bank } => {
                let track = self.track(bank);
                let act_at = track.act_at_ns.ok_or_else(|| SoftMcError::BadProgram {
                    reason: format!("PRE on bank {bank} with no open row"),
                })?;
                // tRAS: the row must stay open long enough.
                let t = self.issue_slot(act_at + self.timing.t_ras_ns);
                self.module.precharge(bank, t - act_at)?;
                if let Some(track) = self.banks.get_mut(bank as usize) {
                    track.act_at_ns = None;
                    track.pre_at_ns = t;
                }
            }
            Instruction::Rd { bank, column } => {
                let track = self.track(bank);
                let act_at = track.act_at_ns.ok_or_else(|| SoftMcError::BadProgram {
                    reason: format!("RD on bank {bank} with no open row"),
                })?;
                // tRCD: this is the delay Alg. 2 sweeps.
                let t = self.issue_slot(act_at + self.timing.t_rcd_ns);
                let word = self.module.read(bank, column, t - act_at)?;
                out.push(word);
            }
            Instruction::Wr { bank, column, data } => {
                let track = self.track(bank);
                let act_at = track.act_at_ns.ok_or_else(|| SoftMcError::BadProgram {
                    reason: format!("WR on bank {bank} with no open row"),
                })?;
                self.issue_slot(act_at + self.timing.t_rcd_ns);
                self.module.write(bank, column, data)?;
            }
            Instruction::Ref => {
                self.issue_slot(0.0);
                self.module.refresh();
                // tRFC for an 8 Gb DDR4 die is 350 ns.
                self.module.advance_ns(350.0);
                self.last_cmd_ns = self.module.now_ns();
            }
            Instruction::Wait { ns } => {
                self.module.advance_ns(ns);
                self.last_cmd_ns = self.module.now_ns();
            }
        }
        Ok(())
    }
}

/// Recognizes a loop body consisting purely of (ACT row, PRE) pairs, each on
/// one bank — the hammer shape that runs as one bulk hammer per pair.
fn hammer_pairs(body: &[Op]) -> Option<Vec<(u32, u32)>> {
    if body.is_empty() || !body.len().is_multiple_of(2) {
        return None;
    }
    let mut pairs = Vec::with_capacity(body.len() / 2);
    for chunk in body.chunks(2) {
        match (&chunk[0], &chunk[1]) {
            (
                Op::Inst(Instruction::Act { bank: ab, row }),
                Op::Inst(Instruction::Pre { bank: pb }),
            ) if ab == pb => pairs.push((*ab, *row)),
            _ => return None,
        }
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammervolt_dram::geometry::Geometry;
    use hammervolt_dram::module::DramModule;
    use hammervolt_dram::registry::{self, ModuleId};

    fn module() -> DramModule {
        DramModule::with_geometry(registry::spec(ModuleId::B0), 3, Geometry::small_test()).unwrap()
    }

    #[test]
    fn init_and_read_round_trip() {
        let mut m = module();
        let mut s = EngineScratch::new();
        let cols = m.geometry().columns_per_row;
        let timing = TimingParams::default();
        let mut e = Engine::new(&mut m, timing, &mut s);
        e.run(&Program::init_row(0, 5, cols, 0xAAAA_AAAA_AAAA_AAAA))
            .unwrap();
        let data = e.run(&Program::read_row(0, 5, cols)).unwrap();
        assert_eq!(data.len(), cols as usize);
        assert!(data.iter().all(|&w| w == 0xAAAA_AAAA_AAAA_AAAA));
    }

    #[test]
    fn timing_is_enforced() {
        let mut m = module();
        let mut s = EngineScratch::new();
        let timing = TimingParams::default();
        let mut e = Engine::new(&mut m, timing, &mut s);
        let mut p = Program::new();
        p.push(Instruction::Act { bank: 0, row: 1 });
        p.push(Instruction::Rd { bank: 0, column: 0 });
        p.push(Instruction::Pre { bank: 0 });
        e.run(&p).unwrap();
        // The PRE issues exactly tRAS after the ACT.
        let elapsed = m.now_ns();
        assert!(elapsed >= timing.t_ras_ns, "elapsed = {elapsed}");
    }

    #[test]
    fn coalesced_hammer_advances_clock_like_unrolled() {
        let timing = TimingParams::default();
        // Coalesced: a loop of ACT/PRE pairs.
        let mut m1 = module();
        let mut s = EngineScratch::new();
        let t0 = {
            let mut e = Engine::new(&mut m1, timing, &mut s);
            e.run(&Program::hammer_double_sided(0, 10, 12, 1_000))
                .unwrap();
            m1.now_ns()
        };
        // The coalesced clock must be the loop count times the period for
        // both aggressors.
        let expected = 2.0 * 1_000.0 * timing.act_pre_period_ns();
        assert!(
            (t0 - expected).abs() < 1e-6,
            "clock {t0} vs expected {expected}"
        );
    }

    #[test]
    fn coalesced_hammer_matches_unrolled_flips() {
        let timing = TimingParams::default();
        let cols = Geometry::small_test().columns_per_row;
        let run = |coalesce: bool| -> Vec<u64> {
            let mut m = module();
            let mut s = EngineScratch::new();
            let victim = 100;
            let (below, above) = m.mapping().physical_neighbors(victim);
            let (below, above) = (below.unwrap(), above.unwrap());
            let mut e = Engine::new(&mut m, timing, &mut s);
            e.run(&Program::init_row(0, victim, cols, 0xAAAA_AAAA_AAAA_AAAA))
                .unwrap();
            e.run(&Program::init_row(0, below, cols, 0x5555_5555_5555_5555))
                .unwrap();
            e.run(&Program::init_row(0, above, cols, 0x5555_5555_5555_5555))
                .unwrap();
            if coalesce {
                e.run(&Program::hammer_double_sided(0, below, above, 60_000))
                    .unwrap();
            } else {
                // The same commands, but in a shape the coalescer rejects
                // (odd trailing op), forcing genuine per-iteration execution.
                let mut p = Program::new();
                p.push_loop(
                    60_000,
                    vec![
                        Op::Inst(Instruction::Act {
                            bank: 0,
                            row: below,
                        }),
                        Op::Inst(Instruction::Pre { bank: 0 }),
                        Op::Inst(Instruction::Act {
                            bank: 0,
                            row: above,
                        }),
                        Op::Inst(Instruction::Pre { bank: 0 }),
                        Op::Inst(Instruction::Wait { ns: 0.0 }),
                    ],
                );
                e.run(&p).unwrap();
            }
            e.run(&Program::read_row(0, victim, cols)).unwrap()
        };
        // Flip *counts* must agree between coalesced and unrolled paths up
        // to the device's cycle-to-cycle noise (the coalesced path draws one
        // noise sample per bulk call; the unrolled path draws one per ACT).
        let expected = 0xAAAA_AAAA_AAAA_AAAAu64;
        let count =
            |v: &[u64]| -> f64 { v.iter().map(|w| (w ^ expected).count_ones() as f64).sum() };
        let a = count(&run(true));
        let b = count(&run(false));
        assert!(a > 0.0, "coalesced path must flip");
        assert!(b > 0.0, "unrolled path must flip");
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 1.6, "coalesced {a} vs unrolled {b} flips");
    }

    #[test]
    fn reads_before_activate_are_rejected() {
        let mut m = module();
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&mut m, TimingParams::default(), &mut s);
        let mut p = Program::new();
        p.push(Instruction::Rd { bank: 0, column: 0 });
        assert!(matches!(e.run(&p), Err(SoftMcError::BadProgram { .. })));
        let mut p2 = Program::new();
        p2.push(Instruction::Pre { bank: 0 });
        assert!(matches!(e.run(&p2), Err(SoftMcError::BadProgram { .. })));
    }

    #[test]
    fn custom_t_rcd_reaches_device() {
        // With a deliberately tiny tRCD the device sees timing-violating
        // reads and corrupts them.
        let mut m = module();
        let mut s = EngineScratch::new();
        let cols = m.geometry().columns_per_row;
        let nominal = TimingParams::default();
        let mut e = Engine::new(&mut m, nominal, &mut s);
        e.run(&Program::init_row(0, 9, cols, 0x0F0F_0F0F_0F0F_0F0F))
            .unwrap();
        let fast = TimingParams::default().with_t_rcd(3.0);
        let mut e2 = Engine::new(&mut m, fast, &mut s);
        let data = e2.run(&Program::read_row(0, 9, cols)).unwrap();
        let flips: u32 = data
            .iter()
            .map(|w| (w ^ 0x0F0F_0F0F_0F0F_0F0Fu64).count_ones())
            .sum();
        assert!(flips > 0, "3 ns tRCD must corrupt reads");
    }

    #[test]
    fn wait_advances_clock_exactly() {
        let mut m = module();
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&mut m, TimingParams::default(), &mut s);
        e.run(&Program::wait(64e6)).unwrap(); // 64 ms
        assert!((m.now_ns() - 64e6).abs() < 1e-9);
    }

    #[test]
    fn ref_instruction_refreshes() {
        let mut m = module();
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&mut m, TimingParams::default(), &mut s);
        let mut p = Program::new();
        p.push(Instruction::Ref);
        e.run(&p).unwrap();
        assert!(m.now_ns() >= 350.0);
    }

    #[test]
    fn session_steps_match_programs_for_init_hammer_read() {
        // The bit-exact sweep lives in the testkit equivalence suite; this
        // pins the core invariant next to the engine itself: each session
        // step gives what running its program gives.
        let cols = Geometry::small_test().columns_per_row;
        let timing = TimingParams::default();
        let (aa, five) = (0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555);
        let session = |steps: bool| -> (Vec<u64>, f64, Vec<CommandMix>) {
            let mut m = module();
            let mut s = EngineScratch::new();
            let mut e = Engine::new(&mut m, timing, &mut s);
            let mut last = Vec::new();
            let mut mixes = Vec::new();
            if steps {
                for (row, word) in [(100, aa), (99, five), (101, five)] {
                    e.init_row(0, row, word).unwrap();
                    mixes.push(e.command_mix());
                }
                e.hammer(60_000, &[(0, 99), (0, 101)]).unwrap();
                mixes.push(e.command_mix());
                e.read_row(0, 100, &mut last).unwrap();
                mixes.push(e.command_mix());
            } else {
                for p in [
                    Program::init_row(0, 100, cols, aa),
                    Program::init_row(0, 99, cols, five),
                    Program::init_row(0, 101, cols, five),
                    Program::hammer_double_sided(0, 99, 101, 60_000),
                    Program::read_row(0, 100, cols),
                ] {
                    last = e.run(&p).unwrap();
                    mixes.push(e.command_mix());
                }
            }
            (last, m.now_ns(), mixes)
        };
        let (rs, cs, ms) = session(true);
        let (rp, cp, mp) = session(false);
        assert_eq!(rs, rp, "read words must be bit-identical");
        assert_eq!(
            cs.to_bits(),
            cp.to_bits(),
            "final clock must be bit-identical"
        );
        assert_eq!(ms, mp, "command mixes must agree");
    }

    #[test]
    fn command_mix_counts_logical_commands() {
        let mut m = module();
        let mut s = EngineScratch::new();
        let cols = m.geometry().columns_per_row as u64;
        let mut e = Engine::new(&mut m, TimingParams::default(), &mut s);
        e.run(&Program::init_row(0, 5, cols as u32, 0)).unwrap();
        assert_eq!(
            e.command_mix(),
            CommandMix {
                act: 1,
                pre: 1,
                wr: cols,
                ..CommandMix::default()
            }
        );
        e.run(&Program::hammer_double_sided(0, 4, 6, 1_000))
            .unwrap();
        assert_eq!(
            e.command_mix(),
            CommandMix {
                act: 2_000,
                pre: 2_000,
                ..CommandMix::default()
            }
        );
    }
}
