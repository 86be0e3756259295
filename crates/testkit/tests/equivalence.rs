//! Session-operation equivalence: each `SoftMc` session operation must be
//! *observably identical* to running its program through [`Engine::run`].
//!
//! The session operations (init row, both hammers, wait and the three row
//! reads) build no program: each runs one bulk engine step — a whole-row
//! fill, a whole-row read, a bulk hammer. Every test builds two `SoftMc`
//! sessions the same way (same spec, seed, geometry, `V_PP`, temperature
//! and on-die ECC; the per-cell physics are a pure function of the seed).
//! One issues a list of session operations. The other runs each
//! operation's `Program` through [`Engine::run`], the per-instruction
//! reference, at that operation's timing. After every operation both must
//! agree on:
//!
//! - the words read (bit for bit), or the error's rendering;
//! - the device clock (compared via `f64::to_bits`, so even an ulp of
//!   drift in the slot recurrence fails);
//! - the device's activation and ECC-correction counters;
//! - the nonzero `softmc_*` and `dram_*` counters of each session's own
//!   metric scope: the command mix, flips landed by cause, flip layers
//!   dropped by writes, index builds, corrupt reads.
//!
//! The cases cover both ways a burst's column slots are computed — closed
//! form on the half-nanosecond grid, the literal recurrence off it (an
//! off-grid wait or `t_RCD`) — and every branch of the bulk read: a
//! corrupt-prone prefix that ends mid-row, a never-written row, and rows
//! behind on-die ECC. They cover the device's pending flip layers, which a
//! whole-row fill and the program's 1,024 single writes must overwrite and
//! land alike: re-inits over pending flips, layers stacked past the depth
//! bound, and the first write to a hammered row behind on-die ECC. And they
//! cover failures: an out-of-range row or bank must fail with the same
//! error at the same clock on both sessions, and leave both usable.
//!
//! Metrics are turned on once and never turned off in this binary: the
//! tests run on parallel threads and the flag is process-wide.

use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::ondie_ecc::OnDieEcc;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_dram::timing::TimingParams;
use hammervolt_obs::scope::{self, Scope};
use hammervolt_softmc::host::CONSERVATIVE_T_RCD_NS;
use hammervolt_softmc::{Engine, EngineScratch, Program, SoftMc};

const COLS: u32 = 1024; // Geometry::small_test().columns_per_row

/// A `SoftMc` session operation; the hammers, the wait and the timed reads
/// work on bank 0.
#[derive(Debug, Clone, Copy)]
enum SessionOp {
    Init { bank: u32, row: u32, word: u64 },
    HammerDoubleSided { below: u32, above: u32, hc: u64 },
    HammerSingleSided { row: u32, hc: u64 },
    Wait { ns: f64 },
    Read { bank: u32, row: u32 },
    ReadWithTRcd { row: u32, t_rcd_ns: f64 },
    ReadConservative { row: u32 },
}

use SessionOp::*;

/// [`SessionOp::Init`] on bank 0.
fn init(row: u32, word: u64) -> SessionOp {
    Init { bank: 0, row, word }
}

/// [`SessionOp::Read`] on bank 0.
fn read(row: u32) -> SessionOp {
    Read { bank: 0, row }
}

impl SessionOp {
    /// Issues the operation on `mc`, returning the words it read (none for
    /// the operations that read nothing).
    fn issue(self, mc: &mut SoftMc) -> Result<Vec<u64>, String> {
        let nothing = |()| Vec::new();
        match self {
            Init { bank, row, word } => mc.init_row(bank, row, word).map(nothing),
            HammerDoubleSided { below, above, hc } => {
                mc.hammer_double_sided(0, below, above, hc).map(nothing)
            }
            HammerSingleSided { row, hc } => mc.hammer_single_sided(0, row, hc).map(nothing),
            Wait { ns } => mc.wait_ns(ns).map(nothing),
            Read { bank, row } => mc.read_row_scratch(bank, row).map(<[u64]>::to_vec),
            ReadWithTRcd { row, t_rcd_ns } => mc
                .read_row_with_t_rcd_scratch(0, row, t_rcd_ns)
                .map(<[u64]>::to_vec),
            ReadConservative { row } => mc
                .read_row_conservative_scratch(0, row)
                .map(<[u64]>::to_vec),
        }
        .map_err(|e| e.to_string())
    }

    /// The program and timing [`Engine::run`] runs in the operation's place.
    fn program(self) -> (Program, TimingParams) {
        let nominal = TimingParams::default();
        match self {
            Init { bank, row, word } => (Program::init_row(bank, row, COLS, word), nominal),
            HammerDoubleSided { below, above, hc } => {
                (Program::hammer_double_sided(0, below, above, hc), nominal)
            }
            HammerSingleSided { row, hc } => (Program::hammer_single_sided(0, row, hc), nominal),
            Wait { ns } => (Program::wait(ns), nominal),
            Read { bank, row } => (Program::read_row(bank, row, COLS), nominal),
            ReadWithTRcd { row, t_rcd_ns } => (
                Program::read_row(0, row, COLS),
                nominal.with_t_rcd(t_rcd_ns),
            ),
            ReadConservative { row } => (
                Program::read_row(0, row, COLS),
                nominal.with_t_rcd(CONSERVATIVE_T_RCD_NS.max(nominal.t_rcd_ns)),
            ),
        }
    }
}

/// Everything observable after one operation.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Read-back words (none for operations that read nothing), or the
    /// error's rendering.
    result: Result<Vec<u64>, String>,
    /// Device clock (bits, so identity is exact).
    clock_bits: u64,
    /// Device activation counter.
    activations: u64,
    /// Device ECC-correction counter.
    ecc_corrections: u64,
    /// The nonzero `softmc_*` and `dram_*` counters of the session's scope,
    /// accumulated since its first operation.
    counters: Vec<(String, u64)>,
}

impl Outcome {
    fn observe(mc: &SoftMc, result: Result<Vec<u64>, String>, scope: &Scope) -> Self {
        let module = mc.module();
        Outcome {
            result,
            clock_bits: module.now_ns().to_bits(),
            activations: module.total_activations(),
            ecc_corrections: module.ecc_corrections(),
            counters: scope
                .counters_snapshot()
                .into_iter()
                .filter(|(name, n)| {
                    *n > 0 && (name.starts_with("softmc_") || name.starts_with("dram_"))
                })
                .collect(),
        }
    }

    /// The words an operation read.
    fn words(&self) -> &[u64] {
        self.result.as_ref().expect("operation succeeds")
    }

    /// A scope counter's value (0 when it never moved).
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    fn clock(&self) -> f64 {
        f64::from_bits(self.clock_bits)
    }
}

/// A session over `id` at the small test geometry, brought up as
/// [`SoftMc::new`] does.
fn session(id: ModuleId, seed: u64) -> SoftMc {
    SoftMc::new(
        DramModule::with_geometry(registry::spec(id), seed, Geometry::small_test())
            .expect("module instantiates"),
    )
}

/// [`session`] with `V_PP` set through the supply.
fn session_at(id: ModuleId, seed: u64, vpp: f64) -> SoftMc {
    let mut mc = session(id, seed);
    mc.set_vpp(vpp).expect("test V_PP within module range");
    mc
}

/// [`session`] on B0, seed 3, behind on-die ECC.
fn b0_with_ecc() -> SoftMc {
    let mut mc = session(ModuleId::B0, 3);
    mc.module_mut().set_ondie_ecc(OnDieEcc::Secded64);
    mc
}

/// The oracle: two sessions from `fresh`, one issuing `ops`, the other
/// running each operation's program through [`Engine::run`], each in a
/// metric scope of its own. Every observable must agree after every
/// operation. Returns the operations' outcomes.
fn assert_equivalent(tag: &str, fresh: impl Fn() -> SoftMc, ops: &[SessionOp]) -> Vec<Outcome> {
    hammervolt_obs::set_metrics(true);
    let (mut ours, mut oracle) = (fresh(), fresh());
    let our_scope = Scope::new(&[("session", tag), ("path", "operations")]);
    let oracle_scope = Scope::new(&[("session", tag), ("path", "programs")]);
    let mut scratch = EngineScratch::new();
    let mut outcomes = Vec::with_capacity(ops.len());
    for (i, &op) in ops.iter().enumerate() {
        let result = {
            let _entered = scope::enter(&our_scope);
            op.issue(&mut ours)
        };
        let got = Outcome::observe(&ours, result, &our_scope);
        let result = {
            let _entered = scope::enter(&oracle_scope);
            let (program, timing) = op.program();
            Engine::new(oracle.module_mut(), timing, &mut scratch)
                .run(&program)
                .map_err(|e| e.to_string())
        };
        let want = Outcome::observe(&oracle, result, &oracle_scope);
        assert_eq!(got, want, "{tag}: operation {i} ({op:?}) diverged");
        outcomes.push(got);
    }
    outcomes
}

/// The sum of bit differences between `words` and `expected`.
fn flipped_bits(words: &[u64], expected: u64) -> u32 {
    words.iter().map(|w| (w ^ expected).count_ones()).sum()
}

/// A victim and its two physical neighbours on `id`'s bank 0 (seed 3).
/// The address mapping scrambles logical adjacency.
fn victim_and_aggressors(id: ModuleId, victim: u32) -> (u32, u32, u32) {
    let (below, above) = session(id, 3).module().mapping().physical_neighbors(victim);
    (victim, below.unwrap(), above.unwrap())
}

/// The inits and double-sided hammer that leave `victim` with flips
/// pending.
fn init_and_hammer(victim: u32, below: u32, above: u32) -> Vec<SessionOp> {
    let word = 0xAAAA_AAAA_AAAA_AAAAu64;
    vec![
        init(victim, word),
        init(below, !word),
        init(above, !word),
        HammerDoubleSided {
            below,
            above,
            hc: 60_000,
        },
    ]
}

#[test]
fn init_hammer_read_flips_are_identical() {
    // The full Alg. 1 inner step: the hammer flips bits and the read burst
    // must report the exact same corrupted words.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let mut ops = init_and_hammer(victim, below, above);
    ops.push(read(victim));
    let out = assert_equivalent("hammer", || session(ModuleId::B0, 3), &ops);
    assert!(
        flipped_bits(out[4].words(), 0xAAAA_AAAA_AAAA_AAAA) > 0,
        "B0 with 60k hammers must flip"
    );
}

#[test]
fn undersized_t_rcd_corruption_is_identical() {
    // Alg. 2's probe read: a 3 ns t_RCD violates the requirement and the
    // device corrupts reads probabilistically (hash-seeded, so both paths
    // must make the identical per-bit draws). A conservative read follows
    // over the same state.
    let word = 0x0F0F_0F0F_0F0F_0F0Fu64;
    let ops = [
        init(9, word),
        ReadWithTRcd {
            row: 9,
            t_rcd_ns: 3.0,
        },
        ReadConservative { row: 9 },
    ];
    let out = assert_equivalent("trcd", || session(ModuleId::B0, 3), &ops);
    assert!(
        flipped_bits(out[1].words(), word) > 0,
        "3 ns t_RCD must corrupt reads"
    );
}

#[test]
fn retention_window_is_identical() {
    // Alg. 3's shape at 80 °C: init, idle 16.384 s with refresh disabled,
    // read back. Retention decay depends on the elapsed clock, so the wait
    // and the read must land on the identical instant.
    let fresh = || {
        let mut mc = session(ModuleId::C2, 3);
        mc.set_temperature(80.0).expect("the loop settles");
        mc
    };
    let ops = [
        init(20, 0xAAAA_AAAA_AAAA_AAAA),
        Wait { ns: 16.384e9 },
        ReadConservative { row: 20 },
    ];
    assert_equivalent("retention", fresh, &ops);
}

#[test]
fn single_sided_hammer_is_identical() {
    let ops = [
        init(50, 0xFFFF_FFFF_FFFF_FFFF),
        HammerSingleSided {
            row: 51,
            hc: 100_000,
        },
        read(50),
    ];
    assert_equivalent("single-sided", || session_at(ModuleId::B3, 7, 1.6), &ops);
}

#[test]
fn error_operations_fail_identically() {
    // An init and a read on an out-of-range row and on an out-of-range
    // bank: the same error, and the same clock at the failure point. Both
    // sessions must stay usable afterwards, identically so.
    let ops = [
        init(1_000_000, 0xAA),
        read(1_000_000),
        Init {
            bank: 99,
            row: 0,
            word: 0xAA,
        },
        Read { bank: 99, row: 0 },
        init(3, 0xBB),
        read(3),
    ];
    let out = assert_equivalent("errors", || session(ModuleId::A0, 1), &ops);
    for (i, outcome) in out[..4].iter().enumerate() {
        assert!(outcome.result.is_err(), "operation {i} must fail");
    }
    assert_eq!(out[3].counter("softmc_device_errors"), 4);
    assert!(out[5].words().iter().all(|&w| w == 0xBB));
}

#[test]
fn session_operations_match_interpreted_programs() {
    // Every session operation once, on B0 at its V_PPmin (2.0 V).
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let word = 0xAAAA_AAAA_AAAA_AAAAu64;
    let mut ops = init_and_hammer(victim, below, above);
    ops.extend([
        read(victim),
        HammerSingleSided {
            row: above,
            hc: 30_000,
        },
        Wait { ns: 1e6 },
        // Far under any module's requirement: the probe read corrupts.
        ReadWithTRcd {
            row: victim,
            t_rcd_ns: 3.0,
        },
        ReadConservative { row: victim },
    ]);
    let out = assert_equivalent("session", || session_at(ModuleId::B0, 3, 2.0), &ops);

    // The comparison must have teeth: the hammer flipped the victim, the
    // undersized t_RCD corrupted the row the conservative read then got
    // back, and every operation counted as one program.
    assert!(
        flipped_bits(out[4].words(), word) > 0,
        "B0 with 60k hammers at its V_PPmin must flip"
    );
    assert_ne!(
        out[7].words(),
        out[8].words(),
        "3 ns t_RCD must corrupt reads"
    );
    let last = out.last().unwrap();
    assert_eq!(last.counter("softmc_programs"), ops.len() as u64);
    for name in ["dram_flips_hammer", "dram_trcd_corrupt_reads"] {
        assert!(last.counter(name) > 0, "{name} did not move");
    }
    // Three init ACTs, 2 aggressors × 60k and 30k single-sided hammer ACTs
    // (logical commands, not bulk calls), and one ACT per read burst.
    assert_eq!(last.counter("softmc_act"), 3 + 120_000 + 30_000 + 3);
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
        let mut ops = vec![Wait { ns: wait_ns }];
        ops.extend(init_and_hammer(victim, below, above));
        ops.extend([
            read(victim),
            ReadWithTRcd {
                row: victim,
                t_rcd_ns: 3.0,
            },
        ]);
        let tag = format!("wait-{wait_ns}");
        let out = assert_equivalent(&tag, || session(ModuleId::B0, 3), &ops);
        assert_ne!(
            (out[5].clock() * 2.0).fract(),
            0.0,
            "{tag}: the clock left the grid"
        );
        assert!(
            flipped_bits(out[5].words(), 0xAAAA_AAAA_AAAA_AAAA) > 0,
            "{tag}: the hammer flips"
        );
    }
}

#[test]
fn off_grid_t_rcd_read_is_identical() {
    // Neither t_RCD is a multiple of 0.5 ns, so every read burst takes the
    // literal recurrence. The first read starts near time zero; at 13.34 ns
    // its slots cross powers of two where stepping and `first + 1.5 · k`
    // round differently.
    for t_rcd_ns in [13.3, 13.34] {
        let ops = [
            ReadWithTRcd { row: 9, t_rcd_ns },
            init(9, 0x0F0F_0F0F_0F0F_0F0F),
            ReadWithTRcd { row: 9, t_rcd_ns },
            init(10, 0xF0F0_F0F0_F0F0_F0F0),
            ReadWithTRcd { row: 10, t_rcd_ns },
        ];
        assert_equivalent(
            &format!("t_rcd-{t_rcd_ns}"),
            || session(ModuleId::B0, 3),
            &ops,
        );
    }
}

#[test]
fn never_written_row_read_is_identical() {
    // The ACT materializes the row's power-on content; both paths must
    // deliver it, corrupt-prone prefix included.
    let ops = [
        ReadWithTRcd {
            row: 77,
            t_rcd_ns: 3.0,
        },
        read(77),
        read(78),
    ];
    assert_equivalent("never-written", || session(ModuleId::C1, 8), &ops);
}

#[test]
fn hammered_row_read_under_on_die_ecc_is_identical() {
    // With on-die ECC every word is decoded against its check word, so the
    // bulk read delivers the row word by word and counts corrections.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let mut ops = init_and_hammer(victim, below, above);
    ops.extend([
        read(victim),
        ReadWithTRcd {
            row: victim,
            t_rcd_ns: 3.0,
        },
    ]);
    let out = assert_equivalent("ondie-ecc", b0_with_ecc, &ops);
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
        let mut mc = session(ModuleId::B0, 3);
        let vpp = mc.vpp();
        mc.module_mut().oracle_t_rcd_required(0, row, vpp)
    };
    let ops = [
        init(row, word),
        ReadWithTRcd {
            row,
            t_rcd_ns: required - 1.6,
        },
    ];
    let out = assert_equivalent("prefix", || session(ModuleId::B0, 3), &ops);
    let words = out[1].words();
    assert_ne!(words[0], word, "the first column reads too early");
    assert_eq!(
        words[COLS as usize - 1],
        word,
        "the last column reads clean"
    );
}

#[test]
fn stacked_pending_layers_land_identically() {
    // Each one-ACT hammer of the victim restores it and pushes the flips its
    // neighbours' hammering earned as one more layer; six of them, with no
    // access between, outgrow the row's depth bound before the read lands
    // the rest.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let mut ops = init_and_hammer(victim, below, above);
    for _ in 0..6 {
        ops.push(HammerSingleSided { row: victim, hc: 1 });
        ops.push(HammerDoubleSided {
            below,
            above,
            hc: 30_000,
        });
    }
    ops.push(read(victim));
    let out = assert_equivalent("stacked-layers", || session(ModuleId::B0, 3), &ops);
    assert!(
        flipped_bits(out.last().unwrap().words(), 0xAAAA_AAAA_AAAA_AAAA) > 0,
        "the stacked layers flip"
    );
}

#[test]
fn first_write_to_a_hammered_unwritten_row_under_on_die_ecc_is_identical() {
    // The victim is tracked by a read of its power-on content but never
    // written, so the fill below is its first write: the code's reference
    // copies the array then, and must see the hammer flips the fill's ACT
    // drew. Both paths land them before the copy.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let ops = [
        read(victim),
        init(below, !0),
        init(above, !0),
        HammerDoubleSided {
            below,
            above,
            hc: 60_000,
        },
        init(victim, 0),
        read(victim),
    ];
    let out = assert_equivalent("ondie-ecc-first-write", b0_with_ecc, &ops);
    assert_eq!(
        out[3].counter("dram_flips_hammer"),
        0,
        "no hammer flip lands before the fill"
    );
    assert!(
        out[4].counter("dram_flips_hammer") > 0,
        "the fill lands the hammer flips before the reference copy"
    );
}

#[test]
fn reinits_over_pending_flips_match_programs() {
    // Re-initialising rows with pending flips: the whole-row fill and the
    // program's 1,024 single writes must drop the same layers. Two 300k
    // hammers and a 4 s wait at 80 °C then give both reads flips to land.
    let (victim, below, above) = victim_and_aggressors(ModuleId::B0, 100);
    let word = 0xAAAA_AAAA_AAAA_AAAAu64;
    let hammer = HammerDoubleSided {
        below,
        above,
        hc: 300_000,
    };
    let mut ops = init_and_hammer(victim, below, above);
    let setup = ops.len();
    ops.extend([
        init(below, !word),
        init(above, !word),
        hammer,
        init(victim, word),
        init(below, !word),
        hammer,
        Wait { ns: 4e9 },
        read(victim),
        read(below),
    ]);
    let fresh = || {
        let mut mc = session(ModuleId::B0, 3);
        mc.set_temperature(80.0).expect("the loop settles");
        mc
    };
    let out = assert_equivalent("reinit", fresh, &ops);
    // The comparison must have teeth: the re-inits dropped layers and the
    // reads built indexes and landed hammer and retention flips.
    let (before, after) = (&out[setup - 1], out.last().unwrap());
    for name in [
        "dram_flip_layers_dropped",
        "dram_index_builds",
        "dram_flips_hammer",
        "dram_flips_retention",
    ] {
        assert!(
            after.counter(name) > before.counter(name),
            "{name} did not move over the re-inits"
        );
    }
}
