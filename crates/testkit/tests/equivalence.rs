//! Compiled-vs-interpreted equivalence: the plan compiler's fast path must
//! be *observably identical* to per-instruction interpretation.
//!
//! Every test runs the same program sequence through two freshly
//! instantiated copies of the same module (same spec, seed, geometry — the
//! per-cell physics are a pure function of the seed) — one through
//! [`Engine::run`] (compile + macro-op execution, the default path) and one
//! through [`Engine::run_interpreted`] (the reference per-instruction
//! semantics) — and asserts that every observable agrees:
//!
//! - the read-back words (exactly, bit for bit),
//! - the final device clock (compared via `f64::to_bits`, so even an ulp of
//!   drift in the slot recurrence fails),
//! - the per-program [`CommandMix`] tally (coalesced macro-ops must count
//!   logical commands),
//! - the device's activation and ECC-correction counters,
//! - error identity *and* the clock at the failure point for programs that
//!   abort mid-run.
//!
//! The shapes cover every lowering case in `softmc::plan`: whole-row
//! init/read bursts, uniform and non-uniform write runs, coalesced hammer
//! loops, loops the coalescer must reject (odd trailing op), nested loops
//! with Ref, out-of-sequence column programs that fall back to
//! per-instruction issue, and mid-program failures. They also cover both
//! ways a burst's column slots are computed — closed form on the
//! half-nanosecond grid, the literal recurrence off it (an off-grid wait or
//! `t_RCD`) — and every branch of the bulk read: a corrupt-prone prefix
//! that ends mid-row, a never-written row, and rows behind on-die ECC.
//! Finally they cover the device's pending flip layers, which both paths
//! must overwrite and land alike: a partial write run and out-of-order
//! single writes over a hammered row, layers stacked past the depth bound,
//! and the first write to a hammered row behind on-die ECC.
//!
//! The `SoftMc` session operations build no program: each calls its engine
//! step directly. One test drives every one of them against the
//! interpreter, operation by operation, and also compares the two
//! sessions' scoped `softmc_*` and `dram_*` counters.

use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::ondie_ecc::OnDieEcc;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_dram::timing::TimingParams;
use hammervolt_obs::scope::Scope;
use hammervolt_softmc::host::CONSERVATIVE_T_RCD_NS;
use hammervolt_softmc::program::Op;
use hammervolt_softmc::{CommandMix, Engine, EngineScratch, Instruction, Program, SoftMc};

/// Everything observable about one program execution.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Read-back words on success, error rendering on failure.
    result: Result<Vec<u64>, String>,
    /// The engine's command tally for this program.
    mix: CommandMix,
    /// Device clock after the program (bits, so identity is exact).
    clock_bits: u64,
    /// Device activation counter after the program.
    activations: u64,
    /// Device ECC-correction counter after the program.
    ecc_corrections: u64,
}

/// One step of a session: a program plus the timing to run it with (Alg. 2
/// swaps `t_RCD` per probe read, so timing is per-program, like in
/// `SoftMc`).
struct Step {
    program: Program,
    timing: TimingParams,
}

impl Step {
    fn nominal(program: Program) -> Self {
        Step {
            program,
            timing: TimingParams::default(),
        }
    }

    fn with_t_rcd(program: Program, t_rcd_ns: f64) -> Self {
        Step {
            program,
            timing: TimingParams::default().with_t_rcd(t_rcd_ns),
        }
    }
}

fn fresh_module(id: ModuleId, seed: u64, vpp: Option<f64>, temp_c: Option<f64>) -> DramModule {
    let mut m = DramModule::with_geometry(registry::spec(id), seed, Geometry::small_test())
        .expect("module instantiates");
    if let Some(v) = vpp {
        m.set_vpp(v).expect("test V_PP within module range");
    }
    if let Some(t) = temp_c {
        m.set_temperature_c(t);
    }
    m
}

/// Runs the whole session on one module, a fresh [`Engine`] per program
/// (exactly how [`SoftMc`] drives it), capturing every observable.
fn run_session(module: &mut DramModule, steps: &[Step], compiled: bool) -> Vec<Outcome> {
    let mut scratch = EngineScratch::new();
    steps
        .iter()
        .map(|step| {
            let (result, mix) = {
                let mut e = Engine::new(module, step.timing, &mut scratch);
                let r = if compiled {
                    e.run(&step.program)
                } else {
                    e.run_interpreted(&step.program)
                };
                (r.map_err(|err| err.to_string()), e.command_mix())
            };
            Outcome {
                result,
                mix,
                clock_bits: module.now_ns().to_bits(),
                activations: module.total_activations(),
                ecc_corrections: module.ecc_corrections(),
            }
        })
        .collect()
}

/// The oracle: identical module, identical steps, both execution paths —
/// every observable must agree, program by program.
fn assert_equivalent(
    tag: &str,
    id: ModuleId,
    seed: u64,
    vpp: Option<f64>,
    temp_c: Option<f64>,
    steps: &[Step],
) {
    assert_equivalent_on(tag, || fresh_module(id, seed, vpp, temp_c), steps);
}

/// [`assert_equivalent`] on two modules from `fresh`, for set-ups beyond
/// `V_PP` and temperature (on-die ECC).
fn assert_equivalent_on(tag: &str, fresh: impl Fn() -> DramModule, steps: &[Step]) {
    let mut interpreted_module = fresh();
    let mut compiled_module = fresh();
    let interpreted = run_session(&mut interpreted_module, steps, false);
    let compiled = run_session(&mut compiled_module, steps, true);
    for (i, (int, comp)) in interpreted.iter().zip(&compiled).enumerate() {
        assert_eq!(
            int, comp,
            "{tag}: program {i} diverged between interpreted and compiled"
        );
    }
}

const COLS: u32 = 1024; // Geometry::small_test().columns_per_row

#[test]
fn init_hammer_read_flips_are_identical() {
    // The full Alg. 1 inner step at reduced V_PP: the hammer flips bits and
    // the compiled read burst must report the exact same corrupted words.
    // Aggressors are the victim's *physical* neighbors (the address mapping
    // scrambles logical adjacency); the mapping is a pure function of the
    // module spec, identical across instantiations.
    let victim = 100;
    let (below, above) = {
        let m = fresh_module(ModuleId::B0, 3, None, None);
        let (b, a) = m.mapping().physical_neighbors(victim);
        (b.unwrap(), a.unwrap())
    };
    let steps = vec![
        Step::nominal(Program::init_row(0, victim, COLS, 0xAAAA_AAAA_AAAA_AAAA)),
        Step::nominal(Program::init_row(0, below, COLS, 0x5555_5555_5555_5555)),
        Step::nominal(Program::init_row(0, above, COLS, 0x5555_5555_5555_5555)),
        Step::nominal(Program::hammer_double_sided(0, below, above, 60_000)),
        Step::nominal(Program::read_row(0, victim, COLS)),
    ];
    assert_equivalent("hammer", ModuleId::B0, 3, None, None, &steps);
    // Sanity: the scenario actually flips (otherwise the test proves less
    // than it claims).
    let mut m = fresh_module(ModuleId::B0, 3, None, None);
    let out = run_session(&mut m, &steps, true);
    let words = out[4].result.as_ref().expect("read succeeds");
    let flips: u32 = words
        .iter()
        .map(|w| (w ^ 0xAAAA_AAAA_AAAA_AAAAu64).count_ones())
        .sum();
    assert!(flips > 0, "B0 with 60k hammers must flip");
}

#[test]
fn undersized_t_rcd_corruption_is_identical() {
    // Alg. 2's probe read: a 3 ns t_RCD violates the requirement and the
    // device corrupts reads probabilistically (hash-seeded, so both paths
    // must make the identical per-bit draws).
    let steps = vec![
        Step::nominal(Program::init_row(0, 9, COLS, 0x0F0F_0F0F_0F0F_0F0F)),
        Step::with_t_rcd(Program::read_row(0, 9, COLS), 3.0),
        // And a clean conservative read right after, over the same state.
        Step::with_t_rcd(Program::read_row(0, 9, COLS), 30.0),
    ];
    assert_equivalent("trcd", ModuleId::B0, 3, None, None, &steps);
    let mut m = fresh_module(ModuleId::B0, 3, None, None);
    let out = run_session(&mut m, &steps, true);
    let corrupted = out[1].result.as_ref().expect("read succeeds");
    let flips: u32 = corrupted
        .iter()
        .map(|w| (w ^ 0x0F0F_0F0F_0F0F_0F0Fu64).count_ones())
        .sum();
    assert!(flips > 0, "3 ns t_RCD must corrupt reads");
}

#[test]
fn retention_window_is_identical() {
    // Alg. 3's shape at 80 °C: init, idle 16.384 s with refresh disabled,
    // read back. Retention decay depends on the elapsed clock, so the
    // compiled wait/read must land on the identical instant.
    let steps = vec![
        Step::nominal(Program::init_row(0, 20, COLS, 0xAAAA_AAAA_AAAA_AAAA)),
        Step::nominal(Program::wait(16.384e9)),
        Step::with_t_rcd(Program::read_row(0, 20, COLS), 30.0),
    ];
    assert_equivalent("retention", ModuleId::C2, 3, None, Some(80.0), &steps);
}

#[test]
fn single_sided_hammer_is_identical() {
    let steps = vec![
        Step::nominal(Program::init_row(0, 50, COLS, 0xFFFF_FFFF_FFFF_FFFF)),
        Step::nominal(Program::hammer_single_sided(0, 51, 100_000)),
        Step::nominal(Program::read_row(0, 50, COLS)),
    ];
    assert_equivalent("single-sided", ModuleId::B3, 7, Some(1.6), None, &steps);
}

#[test]
fn odd_loop_body_executes_per_iteration_on_both_paths() {
    // A trailing Wait makes the loop body ineligible for hammer coalescing;
    // both paths must then execute it iteration by iteration, drawing one
    // noise sample per ACT — byte-identical because *both* reject it via
    // the shared `hammer_pairs` recognizer.
    let mut hammer = Program::new();
    hammer.push_loop(
        2_000,
        vec![
            Op::Inst(Instruction::Act { bank: 0, row: 30 }),
            Op::Inst(Instruction::Pre { bank: 0 }),
            Op::Inst(Instruction::Act { bank: 0, row: 32 }),
            Op::Inst(Instruction::Pre { bank: 0 }),
            Op::Inst(Instruction::Wait { ns: 0.0 }),
        ],
    );
    let steps = vec![
        Step::nominal(Program::init_row(0, 31, COLS, 0xAAAA_AAAA_AAAA_AAAA)),
        Step::nominal(hammer),
        Step::nominal(Program::read_row(0, 31, COLS)),
    ];
    assert_equivalent("odd-loop", ModuleId::B3, 5, Some(1.6), None, &steps);
}

#[test]
fn nested_loops_with_ref_are_identical() {
    // Loops of loops with a Ref inside: nothing here coalesces, and the
    // refresh resets retention bookkeeping — both paths must agree on the
    // clock after every 350 ns tRFC hop.
    let mut p = Program::new();
    p.push_loop(
        3,
        vec![
            Op::Loop {
                count: 4,
                body: vec![Op::Inst(Instruction::Ref)],
            },
            Op::Inst(Instruction::Wait { ns: 100.0 }),
        ],
    );
    let steps = vec![
        Step::nominal(Program::init_row(0, 11, COLS, 0x1234_5678_9ABC_DEF0)),
        Step::nominal(p),
        Step::nominal(Program::read_row(0, 11, COLS)),
    ];
    assert_equivalent("nested-ref", ModuleId::A0, 2, None, None, &steps);
}

#[test]
fn non_uniform_write_run_is_identical() {
    // Per-column distinct data lowers to a WriteRun (bulk slice copy) rather
    // than an InitRow fill; the read-back must see every word where the
    // sequential writes put it.
    let mut wr = Program::new();
    wr.push(Instruction::Act { bank: 0, row: 40 });
    for column in 0..COLS {
        wr.push(Instruction::Wr {
            bank: 0,
            column,
            data: 0x0101_0101_0101_0101u64.wrapping_mul(u64::from(column) + 1),
        });
    }
    wr.push(Instruction::Pre { bank: 0 });
    let steps = vec![
        Step::nominal(wr),
        Step::nominal(Program::read_row(0, 40, COLS)),
    ];
    assert_equivalent("write-run", ModuleId::C0, 4, None, None, &steps);
}

#[test]
fn out_of_sequence_columns_fall_back_identically() {
    // Columns out of order defeat the burst recognizer; the compiled path
    // must fall back to per-instruction issue and still match exactly.
    let mut wr = Program::new();
    wr.push(Instruction::Act { bank: 0, row: 8 });
    for &column in &[2u32, 0, 1, 5] {
        wr.push(Instruction::Wr {
            bank: 0,
            column,
            data: 0xD00D_0000 + u64::from(column),
        });
    }
    wr.push(Instruction::Pre { bank: 0 });
    let mut rd = Program::new();
    rd.push(Instruction::Act { bank: 0, row: 8 });
    for &column in &[5u32, 2, 1, 0] {
        rd.push(Instruction::Rd { bank: 0, column });
    }
    rd.push(Instruction::Pre { bank: 0 });
    let steps = vec![Step::nominal(wr), Step::nominal(rd)];
    assert_equivalent("out-of-sequence", ModuleId::A0, 6, None, None, &steps);
}

#[test]
fn error_programs_fail_identically() {
    // Mid-program failures: same error, same rendering, and the *same
    // clock at the failure point* — the compiled path may not have raced
    // ahead before noticing.
    let mut rd_before_act = Program::new();
    rd_before_act.push(Instruction::Rd { bank: 0, column: 0 });
    let mut pre_without_open = Program::new();
    pre_without_open.push(Instruction::Pre { bank: 0 });
    let mut bad_bank = Program::new();
    bad_bank.push(Instruction::Act { bank: 99, row: 0 });
    // An init burst that dies on an out-of-range row: timing advances up to
    // the ACT, then the device rejects it.
    let bad_row_init = Program::init_row(0, 1_000_000, COLS, 0xAA);
    let steps = vec![
        Step::nominal(rd_before_act),
        Step::nominal(pre_without_open),
        Step::nominal(bad_bank),
        Step::nominal(bad_row_init),
        // The session must stay usable after failures, identically so.
        Step::nominal(Program::init_row(0, 3, COLS, 0xBB)),
        Step::nominal(Program::read_row(0, 3, COLS)),
    ];
    assert_equivalent("errors", ModuleId::A0, 1, None, None, &steps);
}

/// A `SoftMc` session operation on bank 0.
#[derive(Debug, Clone, Copy)]
enum SessionOp {
    Init { row: u32, word: u64 },
    HammerDoubleSided { below: u32, above: u32, hc: u64 },
    HammerSingleSided { row: u32, hc: u64 },
    Wait { ns: f64 },
    Read { row: u32 },
    ReadWithTRcd { row: u32, t_rcd_ns: f64 },
    ReadConservative { row: u32 },
}

impl SessionOp {
    /// Issues the operation on `mc`, returning the words it read (none for
    /// the operations that read nothing).
    fn issue(self, mc: &mut SoftMc) -> Vec<u64> {
        let nothing = |()| Vec::new();
        match self {
            SessionOp::Init { row, word } => mc.init_row(0, row, word).map(nothing),
            SessionOp::HammerDoubleSided { below, above, hc } => {
                mc.hammer_double_sided(0, below, above, hc).map(nothing)
            }
            SessionOp::HammerSingleSided { row, hc } => {
                mc.hammer_single_sided(0, row, hc).map(nothing)
            }
            SessionOp::Wait { ns } => mc.wait_ns(ns).map(nothing),
            SessionOp::Read { row } => mc.read_row_scratch(0, row).map(<[u64]>::to_vec),
            SessionOp::ReadWithTRcd { row, t_rcd_ns } => mc
                .read_row_with_t_rcd_scratch(0, row, t_rcd_ns)
                .map(<[u64]>::to_vec),
            SessionOp::ReadConservative { row } => mc
                .read_row_conservative_scratch(0, row)
                .map(<[u64]>::to_vec),
        }
        .unwrap()
    }

    /// The program and timing the interpreter runs in the operation's place.
    fn program(self) -> (Program, TimingParams) {
        let nominal = TimingParams::default();
        match self {
            SessionOp::Init { row, word } => (Program::init_row(0, row, COLS, word), nominal),
            SessionOp::HammerDoubleSided { below, above, hc } => {
                (Program::hammer_double_sided(0, below, above, hc), nominal)
            }
            SessionOp::HammerSingleSided { row, hc } => {
                (Program::hammer_single_sided(0, row, hc), nominal)
            }
            SessionOp::Wait { ns } => (Program::wait(ns), nominal),
            SessionOp::Read { row } => (Program::read_row(0, row, COLS), nominal),
            SessionOp::ReadWithTRcd { row, t_rcd_ns } => (
                Program::read_row(0, row, COLS),
                nominal.with_t_rcd(t_rcd_ns),
            ),
            SessionOp::ReadConservative { row } => (
                Program::read_row(0, row, COLS),
                nominal.with_t_rcd(CONSERVATIVE_T_RCD_NS.max(nominal.t_rcd_ns)),
            ),
        }
    }
}

/// The `softmc_*` and `dram_*` counters that moved in `scope`.
fn work_counters(scope: &Scope) -> Vec<(String, u64)> {
    scope
        .counters_snapshot()
        .into_iter()
        .filter(|(name, n)| *n > 0 && (name.starts_with("softmc_") || name.starts_with("dram_")))
        .collect()
}

#[test]
fn session_operations_match_interpreted_programs() {
    // Each SoftMc session operation calls its engine step directly, with
    // no program built. A second session on the same module runs the
    // equivalent program through the interpreter at the same timing. After
    // every operation both must have read the same words, stand at the
    // same clock, and have counted the same softmc_* and dram_* work, each
    // session in a metric scope of its own.
    let fresh = || {
        SoftMc::new(
            DramModule::with_geometry(registry::spec(ModuleId::B0), 3, Geometry::small_test())
                .unwrap(),
        )
    };
    let (mut fast, mut oracle) = (fresh(), fresh());
    // B0's V_PPmin.
    for mc in [&mut fast, &mut oracle] {
        mc.set_vpp(2.0).unwrap();
    }
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let word = 0xAAAA_AAAA_AAAA_AAAAu64;
    let ops = [
        SessionOp::Init { row: victim, word },
        SessionOp::Init {
            row: below,
            word: !word,
        },
        SessionOp::Init {
            row: above,
            word: !word,
        },
        SessionOp::HammerDoubleSided {
            below,
            above,
            hc: 60_000,
        },
        SessionOp::Read { row: victim },
        SessionOp::HammerSingleSided {
            row: above,
            hc: 30_000,
        },
        SessionOp::Wait { ns: 1e6 },
        // Far under any module's requirement: the probe read corrupts.
        SessionOp::ReadWithTRcd {
            row: victim,
            t_rcd_ns: 3.0,
        },
        SessionOp::ReadConservative { row: victim },
    ];

    hammervolt_obs::set_metrics(true);
    let fast_scope = Scope::new(&[("session", "operations")]);
    let oracle_scope = Scope::new(&[("session", "interpreted")]);
    let mut scratch = EngineScratch::new();
    let mut reads = Vec::new();
    for op in ops {
        let fast_words = {
            let _entered = hammervolt_obs::scope::enter(&fast_scope);
            op.issue(&mut fast)
        };
        let oracle_words = {
            let _entered = hammervolt_obs::scope::enter(&oracle_scope);
            let (program, timing) = op.program();
            Engine::new(oracle.module_mut(), timing, &mut scratch)
                .run_interpreted(&program)
                .unwrap()
        };
        assert_eq!(fast_words, oracle_words, "{op:?}: words diverged");
        assert_eq!(
            fast.module().now_ns().to_bits(),
            oracle.module().now_ns().to_bits(),
            "{op:?}: session clocks diverged"
        );
        assert_eq!(
            work_counters(&fast_scope),
            work_counters(&oracle_scope),
            "{op:?}: counters diverged"
        );
        reads.push(fast_words);
    }
    hammervolt_obs::set_metrics(false);

    // The comparison must have teeth: the hammer flipped the victim, the
    // undersized t_RCD corrupted the row the conservative read then got
    // back, and every operation counted as one program.
    let (hammered, probed, settled) = (&reads[4], &reads[7], &reads[8]);
    assert!(
        flipped_bits(hammered, word) > 0,
        "B0 with 60k hammers at its V_PPmin must flip"
    );
    assert_ne!(probed, settled, "3 ns t_RCD must corrupt reads");
    assert_eq!(
        fast_scope.counter_value("softmc_programs"),
        ops.len() as u64
    );
    for name in ["dram_flips_hammer", "dram_trcd_corrupt_reads"] {
        assert!(fast_scope.counter_value(name) > 0, "{name} did not move");
    }
}

/// The sum of bit differences between `words` and `expected`.
fn flipped_bits(words: &[u64], expected: u64) -> u32 {
    words.iter().map(|w| (w ^ expected).count_ones()).sum()
}

/// A victim and its two physical neighbours on `id`'s bank 0.
fn victim_and_aggressors(id: ModuleId, victim: u32) -> (u32, u32, u32) {
    let m = fresh_module(id, 3, None, None);
    let (below, above) = m.mapping().physical_neighbors(victim);
    (victim, below.unwrap(), above.unwrap())
}

#[test]
fn off_grid_wait_then_init_hammer_read_is_identical() {
    // An off-grid wait moves every later ACT off the half-nanosecond grid,
    // so each burst's column slots come from the literal recurrence. After
    // 111.111 ns the first burst starts early enough to cross several powers
    // of two, where stepping the recurrence rounds differently from
    // `first + 1.5 · k`: a closed form taken off the grid fails here.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    for wait_ns in [1_234.567, 111.111] {
        let steps = vec![
            Step::nominal(Program::wait(wait_ns)),
            Step::nominal(Program::init_row(0, victim, COLS, 0xAAAA_AAAA_AAAA_AAAA)),
            Step::nominal(Program::init_row(0, below, COLS, 0x5555_5555_5555_5555)),
            Step::nominal(Program::init_row(0, above, COLS, 0x5555_5555_5555_5555)),
            Step::nominal(Program::hammer_double_sided(0, below, above, 60_000)),
            Step::nominal(Program::read_row(0, victim, COLS)),
            Step::with_t_rcd(Program::read_row(0, victim, COLS), 3.0),
        ];
        let tag = format!("wait-{wait_ns}");
        assert_equivalent(&tag, ModuleId::B0, 3, None, None, &steps);
        let mut m = fresh_module(ModuleId::B0, 3, None, None);
        let out = run_session(&mut m, &steps, true);
        let clock = f64::from_bits(out[5].clock_bits);
        assert_ne!((clock * 2.0).fract(), 0.0, "{tag}: the clock left the grid");
        let words = out[5].result.as_ref().expect("read succeeds");
        assert!(
            flipped_bits(words, 0xAAAA_AAAA_AAAA_AAAA) > 0,
            "{tag}: the hammer flips"
        );
    }
}

#[test]
fn off_grid_t_rcd_read_is_identical() {
    // Neither t_RCD is a multiple of 0.5 ns, so every burst takes the
    // literal recurrence. The first read starts near time zero; at 13.34 ns
    // its slots cross powers of two where stepping and `first + 1.5 · k`
    // round differently.
    for t_rcd in [13.3, 13.34] {
        let steps = vec![
            Step::with_t_rcd(Program::read_row(0, 9, COLS), t_rcd),
            Step::nominal(Program::init_row(0, 9, COLS, 0x0F0F_0F0F_0F0F_0F0F)),
            Step::with_t_rcd(Program::read_row(0, 9, COLS), t_rcd),
            Step::with_t_rcd(Program::init_row(0, 10, COLS, 0xF0F0_F0F0_F0F0_F0F0), t_rcd),
            Step::with_t_rcd(Program::read_row(0, 10, COLS), t_rcd),
        ];
        assert_equivalent(
            &format!("t_rcd-{t_rcd}"),
            ModuleId::B0,
            3,
            None,
            None,
            &steps,
        );
    }
}

#[test]
fn never_written_row_read_is_identical() {
    // The ACT materializes the row's power-on content; both paths must
    // deliver it, corrupt-prone prefix included.
    let steps = vec![
        Step::with_t_rcd(Program::read_row(0, 77, COLS), 3.0),
        Step::nominal(Program::read_row(0, 77, COLS)),
        Step::nominal(Program::read_row(0, 78, COLS)),
    ];
    assert_equivalent("never-written", ModuleId::C1, 8, None, None, &steps);
}

#[test]
fn hammered_row_read_under_on_die_ecc_is_identical() {
    // With on-die ECC every word is decoded against its check word, so the
    // bulk read delivers the row word by word and counts corrections.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let word = 0xAAAA_AAAA_AAAA_AAAAu64;
    let steps = vec![
        Step::nominal(Program::init_row(0, victim, COLS, word)),
        Step::nominal(Program::init_row(0, below, COLS, !word)),
        Step::nominal(Program::init_row(0, above, COLS, !word)),
        Step::nominal(Program::hammer_double_sided(0, below, above, 60_000)),
        Step::nominal(Program::read_row(0, victim, COLS)),
        Step::with_t_rcd(Program::read_row(0, victim, COLS), 3.0),
    ];
    let fresh = || {
        let mut m = fresh_module(ModuleId::B0, 3, None, None);
        m.set_ondie_ecc(OnDieEcc::Secded64);
        m
    };
    assert_equivalent_on("ondie-ecc", fresh, &steps);
    let mut m = fresh();
    let out = run_session(&mut m, &steps, true);
    assert!(
        out[4].ecc_corrections > 0,
        "on-die ECC corrects hammer flips"
    );
}

#[test]
fn t_rcd_just_under_the_requirement_corrupts_a_prefix_only() {
    // A t_RCD 1.6 ns under the row's requirement: the first columns read
    // too early and may be corrupted, later columns issue late enough to
    // read reliably — the corrupt-prone prefix ends mid-row.
    let (row, word) = (9, 0x0F0F_0F0F_0F0F_0F0Fu64);
    let required = {
        let mut m = fresh_module(ModuleId::B0, 3, None, None);
        let vpp = m.vpp();
        m.oracle_t_rcd_required(0, row, vpp)
    };
    let steps = vec![
        Step::nominal(Program::init_row(0, row, COLS, word)),
        Step::with_t_rcd(Program::read_row(0, row, COLS), required - 1.6),
    ];
    assert_equivalent("prefix", ModuleId::B0, 3, None, None, &steps);
    let mut m = fresh_module(ModuleId::B0, 3, None, None);
    let out = run_session(&mut m, &steps, true);
    let words = out[1].result.as_ref().expect("read succeeds");
    assert_ne!(words[0], word, "the first column reads too early");
    assert_eq!(
        words[COLS as usize - 1],
        word,
        "the last column reads clean"
    );
}

/// The init and double-sided hammer that leave `victim` with flips pending.
fn init_and_hammer(victim: u32, below: u32, above: u32) -> Vec<Step> {
    let word = 0xAAAA_AAAA_AAAA_AAAAu64;
    vec![
        Step::nominal(Program::init_row(0, victim, COLS, word)),
        Step::nominal(Program::init_row(0, below, COLS, !word)),
        Step::nominal(Program::init_row(0, above, COLS, !word)),
        Step::nominal(Program::hammer_double_sided(0, below, above, 60_000)),
    ]
}

#[test]
fn partial_write_run_over_a_hammered_row_is_identical() {
    // The write's ACT pushes the victim's hammer flips as a pending layer;
    // the write run overwrites half the row, so the read lands the flips on
    // the other half only. The bulk slice copy and the interpreter's single
    // writes must overwrite the same words of the layer.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let half = COLS / 2;
    let mut wr = Program::new();
    wr.push(Instruction::Act {
        bank: 0,
        row: victim,
    });
    for column in 0..half {
        wr.push(Instruction::Wr {
            bank: 0,
            column,
            data: 0xAAAA_AAAA_AAAA_AAAA ^ u64::from(column % 7),
        });
    }
    wr.push(Instruction::Pre { bank: 0 });
    let mut steps = init_and_hammer(victim, below, above);
    steps.push(Step::nominal(wr));
    steps.push(Step::nominal(Program::read_row(0, victim, COLS)));
    assert_equivalent("partial-write-run", ModuleId::B0, 3, None, None, &steps);
    let mut m = fresh_module(ModuleId::B0, 3, None, None);
    let out = run_session(&mut m, &steps, true);
    let words = out[5].result.as_ref().expect("read succeeds");
    assert!(
        flipped_bits(&words[half as usize..], 0xAAAA_AAAA_AAAA_AAAA) > 0,
        "the unwritten half keeps the hammer flips"
    );
}

#[test]
fn out_of_sequence_writes_over_a_hammered_row_are_identical() {
    // Out-of-order columns fall back to single writes on the compiled path
    // too; each overwrites its word in the pending layer.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let mut wr = Program::new();
    wr.push(Instruction::Act {
        bank: 0,
        row: victim,
    });
    for &column in &[700u32, 2, 0, 1, 5, 1023] {
        wr.push(Instruction::Wr {
            bank: 0,
            column,
            data: 0xAAAA_AAAA_AAAA_AAAA,
        });
    }
    wr.push(Instruction::Pre { bank: 0 });
    let mut steps = init_and_hammer(victim, below, above);
    steps.push(Step::nominal(wr));
    steps.push(Step::nominal(Program::read_row(0, victim, COLS)));
    assert_equivalent(
        "out-of-sequence-hammered",
        ModuleId::B0,
        3,
        None,
        None,
        &steps,
    );
}

#[test]
fn stacked_pending_layers_land_identically() {
    // Each one-ACT hammer of the victim restores it and pushes the flips its
    // neighbours' hammering earned as one more layer; six of them, with no
    // access between, outgrow the row's depth bound before the read lands
    // the rest.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let mut steps = init_and_hammer(victim, below, above);
    for _ in 0..6 {
        steps.push(Step::nominal(Program::hammer_single_sided(0, victim, 1)));
        steps.push(Step::nominal(Program::hammer_double_sided(
            0, below, above, 30_000,
        )));
    }
    steps.push(Step::nominal(Program::read_row(0, victim, COLS)));
    assert_equivalent("stacked-layers", ModuleId::B0, 3, None, None, &steps);
    let mut m = fresh_module(ModuleId::B0, 3, None, None);
    let out = run_session(&mut m, &steps, true);
    let words = out.last().unwrap().result.as_ref().expect("read succeeds");
    assert!(
        flipped_bits(words, 0xAAAA_AAAA_AAAA_AAAA) > 0,
        "the stacked layers flip"
    );
}

#[test]
fn first_write_to_a_hammered_unwritten_row_under_on_die_ecc_is_identical() {
    // The victim is tracked by a read of its power-on content but never
    // written, so the partial fill below is its first write: the code's
    // reference copies the array then, and must see the hammer flips the
    // fill's ACT drew. Both paths land them before the copy.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let prefix = 256;
    let steps = vec![
        Step::nominal(Program::read_row(0, victim, COLS)),
        Step::nominal(Program::init_row(0, below, COLS, !0)),
        Step::nominal(Program::init_row(0, above, COLS, !0)),
        Step::nominal(Program::hammer_double_sided(0, below, above, 60_000)),
        Step::nominal(Program::init_row(0, victim, prefix, 0)),
        Step::nominal(Program::read_row(0, victim, COLS)),
    ];
    let fresh = || {
        let mut m = fresh_module(ModuleId::B0, 3, None, None);
        m.set_ondie_ecc(OnDieEcc::Secded64);
        m
    };
    assert_equivalent_on("ondie-ecc-first-write", fresh, &steps);
    let mut m = fresh();
    let out = run_session(&mut m, &steps, true);
    let power_on = out[0].result.as_ref().expect("read succeeds");
    let after = out[5].result.as_ref().expect("read succeeds");
    let flipped: u32 = power_on[prefix as usize..]
        .iter()
        .zip(&after[prefix as usize..])
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert!(flipped > 0, "the unwritten columns keep the hammer flips");
}
