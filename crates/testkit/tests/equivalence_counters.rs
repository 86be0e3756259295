//! Observability-counter parity between the compiled and interpreted SoftMC
//! execution paths.
//!
//! The metrics registry is process-global, so this binary holds exactly one
//! test: it runs an identical program session through the interpreter and
//! through the compiled fast path (each on its own pristine module), taking
//! a full counter snapshot after each phase, and asserts the *deltas* are
//! equal counter for counter — `softmc_*` command tallies (coalesced
//! macro-ops must account for every logical command) and `dram_*` physics
//! counters (flips landed by cause, flip layers dropped by writes, index
//! builds, corrupt reads, ECC corrections) alike.

use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_dram::timing::TimingParams;
use hammervolt_softmc::{Engine, EngineScratch, Program};
use std::collections::BTreeMap;

const COLS: u32 = 1024; // Geometry::small_test().columns_per_row

/// The victim row every phase hammers.
const VICTIM: u32 = 100;

/// The session's phases, in order; each is a list of programs with the
/// timing to run them at. `(below, above)` are [`VICTIM`]'s physical
/// neighbours.
fn session_phases((below, above): (u32, u32)) -> Vec<Vec<(Program, TimingParams)>> {
    let nominal = TimingParams::default();
    let victim = VICTIM;
    let checkerboard = 0xAAAA_AAAA_AAAA_AAAA;
    vec![
        vec![
            (Program::init_row(0, victim, COLS, checkerboard), nominal),
            (Program::init_row(0, below, COLS, !checkerboard), nominal),
            (Program::init_row(0, above, COLS, !checkerboard), nominal),
            (
                Program::hammer_double_sided(0, below, above, 60_000),
                nominal,
            ),
            (Program::read_row(0, victim, COLS), nominal),
            // An undersized t_RCD read so the dram_* corruption counters move.
            (
                Program::read_row(0, victim, COLS),
                TimingParams::default().with_t_rcd(3.0),
            ),
        ],
        // Re-initialising rows with pending flips: the interpreter's 1,024
        // single writes and the compiled whole-row fill must drop the same
        // layers. A second hammer and a 4 s wait at 80 °C then give both
        // reads flips to land.
        vec![
            (Program::init_row(0, below, COLS, !checkerboard), nominal),
            (Program::init_row(0, above, COLS, !checkerboard), nominal),
            (
                Program::hammer_double_sided(0, below, above, 300_000),
                nominal,
            ),
            (Program::init_row(0, victim, COLS, checkerboard), nominal),
            (Program::init_row(0, below, COLS, !checkerboard), nominal),
            (
                Program::hammer_double_sided(0, below, above, 300_000),
                nominal,
            ),
            (Program::wait(4e9), nominal),
            (Program::read_row(0, victim, COLS), nominal),
            (Program::read_row(0, below, COLS), nominal),
        ],
    ]
}

fn snapshot() -> BTreeMap<String, u64> {
    hammervolt_obs::metrics::counters_snapshot()
        .into_iter()
        .collect()
}

/// Counter-wise difference `after - before`, keeping only the counters
/// that moved: a counter the other path's run registered reads 0 here and
/// is the same as one never registered.
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, &v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|&(_, d)| d > 0)
        .collect()
}

/// Runs the whole session on one pristine module through one execution
/// path, returning each phase's counter deltas.
fn run_session(compiled: bool) -> Vec<BTreeMap<String, u64>> {
    let mut module =
        DramModule::with_geometry(registry::spec(ModuleId::B0), 3, Geometry::small_test()).unwrap();
    module.set_temperature_c(80.0);
    let (below, above) = module.mapping().physical_neighbors(VICTIM);
    let mut scratch = EngineScratch::new();
    session_phases((below.unwrap(), above.unwrap()))
        .into_iter()
        .map(|phase| {
            let before = snapshot();
            for (program, timing) in phase {
                let mut e = Engine::new(&mut module, timing, &mut scratch);
                if compiled {
                    e.run(&program).unwrap();
                } else {
                    e.run_interpreted(&program).unwrap();
                }
            }
            delta(&before, &snapshot())
        })
        .collect()
}

/// A counter's value in a phase's deltas (0 when it never registered).
fn moved(deltas: &BTreeMap<String, u64>, name: &str) -> u64 {
    deltas.get(name).copied().unwrap_or(0)
}

#[test]
fn counter_deltas_match_between_interpreted_and_compiled() {
    hammervolt_obs::set_metrics(true);
    let interpreted = run_session(false);
    let compiled = run_session(true);
    hammervolt_obs::set_metrics(false);

    for (phase, (int, comp)) in interpreted.iter().zip(&compiled).enumerate() {
        assert_eq!(
            int, comp,
            "phase {phase}: counter deltas diverged between execution paths"
        );
    }
    // The comparison must have teeth: the command tallies and the device's
    // flip machinery all moved during the session.
    let (first, reinit) = (&interpreted[0], &interpreted[1]);
    for name in [
        "softmc_programs",
        "softmc_act",
        "softmc_pre",
        "softmc_rd",
        "softmc_wr",
        "dram_trcd_corrupt_reads",
        "dram_flips_hammer",
    ] {
        assert!(
            moved(first, name) > 0,
            "counter {name} did not move in the first phase; the parity check is vacuous"
        );
    }
    for name in [
        "dram_flip_layers_dropped",
        "dram_index_builds",
        "dram_flips_hammer",
        "dram_flips_retention",
    ] {
        assert!(
            moved(reinit, name) > 0,
            "counter {name} did not move in the re-init phase; the parity check is vacuous"
        );
    }
    // Three init ACTs, 2 aggressors × 60k coalesced hammer ACTs (logical
    // commands, not bulk calls), and one ACT per read burst.
    assert_eq!(first["softmc_act"], 3 + 120_000 + 1 + 1);
}
