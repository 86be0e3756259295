//! Fault-injection drills.
//!
//! Cache drills corrupt sweep-cache entries on disk in every way the
//! threat model names — truncation, bit flips, stale-key swaps — and
//! assert the engine detects each fault and recomputes the true result,
//! byte-identical to a cold run. A *correctly sealed* forged entry is the
//! control: it must be served, proving the drills exercise the detection
//! path rather than a cache that never loads. Population entries and the
//! unit checkpoints of both sweeps and populations get the same drills,
//! counted the same way.
//!
//! SoftMC drills perturb command programs — stripped activates, reordered
//! slots, corrupted write data, inflated loops — and assert the engine
//! rejects structural faults with `BadProgram` and that data faults
//! surface as readback divergence.

use hammervolt_core::exec::{
    cache_path, rowhammer_sweeps, seal_entry, sweep_key, unit_checkpoint_path, ExecConfig,
};
use hammervolt_core::job::{JobControl, JobSpec, SweepKind};
use hammervolt_core::population::{population_key, PopulationConfig};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;
use hammervolt_obs::scope::Scope;
use hammervolt_softmc::program::Program;
use hammervolt_softmc::SoftMcError;
use hammervolt_testkit::{faults, golden_config};
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes the drills that switch process-wide metrics on and off, so
/// one drill's `set_metrics(false)` cannot stop another's counting.
static METRICS_DRILLS: Mutex<()> = Mutex::new(());

fn temp_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("testkit-faults-{tag}-{}", std::process::id()))
}

/// The golden configuration narrowed to one module.
fn one_module(id: ModuleId) -> StudyConfig {
    StudyConfig {
        modules: vec![id],
        ..golden_config()
    }
}

/// A tiny generated fleet: twelve modules in three batches of four.
fn tiny_fleet() -> PopulationConfig {
    let mut cfg = PopulationConfig::smoke(12, 9);
    cfg.batch_size = 4;
    cfg
}

fn canon<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

#[test]
fn corrupted_cache_entries_are_recomputed_never_served() {
    let _drills = METRICS_DRILLS.lock().unwrap_or_else(|e| e.into_inner());
    let id = ModuleId::B3;
    let cfg = one_module(id);
    let dir = temp_cache("corrupt");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let sweep = || rowhammer_sweeps(&cfg, &exec, &JobControl::new());
    let cold = canon(&sweep().expect("cold run"));
    let key = sweep_key(&cfg, id, "hammer", 0);
    let path = cache_path(&dir, "hammer", id, key);
    assert!(path.exists(), "cold run must populate the cache");
    let sealed = std::fs::read_to_string(&path).expect("entry readable");

    // Every recovery from a corrupt entry must also be *visible*: the
    // `cache_corrupt_recovered` counter is how an operator distinguishes a
    // cache that silently never loads from one that detects and recomputes.
    // The drill counts in a metric scope of its own, so recoveries made by
    // other tests running alongside cannot stand in for a missed one, and
    // every count below is exact.
    hammervolt_obs::set_metrics(true);
    let scope = Scope::new(&[("drill", "corrupt_cache")]);
    let _entered = hammervolt_obs::scope::enter(&scope);
    let recovered = || scope.counter_value("cache_corrupt_recovered");

    // Drill 1: truncation (a crash mid-write, a full disk).
    faults::truncate_file(&path, sealed.len() / 2).unwrap();
    let after = canon(&sweep().expect("run after truncation"));
    assert_eq!(after, cold, "truncated entry must be recomputed");
    assert_eq!(recovered(), 1, "truncation recovery must be counted");

    // Drill 2: single bit flips at several offsets (media corruption).
    // Offsets land in the header, the checksum region, and the payload.
    // Flipping bit 7 of an ASCII byte leaves the entry invalid UTF-8.
    for &(byte, bit) in &[
        (10usize, 0u8),
        (10, 7),
        (40, 3),
        (sealed.len() / 2, 6),
        (sealed.len() - 5, 1),
    ] {
        faults::flip_bit(&path, byte, bit).unwrap();
        let after = canon(&sweep().expect("run after bit flip"));
        assert_eq!(
            after, cold,
            "bit flip at byte {byte} bit {bit} must be detected and recomputed"
        );
        // The recompute rewrote a clean entry; corrupt again from fresh state.
    }
    assert_eq!(
        recovered(),
        1 + 5,
        "each of the five bit-flip recoveries must be counted"
    );

    // A *served* (uncorrupted) warm hit is not a recovery; it must still be
    // byte-identical to the cold run.
    let warm = canon(&sweep().expect("clean warm run"));
    assert_eq!(warm, cold);
    assert_eq!(recovered(), 1 + 5, "a clean warm hit is not a recovery");
    hammervolt_obs::set_metrics(false);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_key_swapped_entries_are_rejected() {
    let cfg = golden_config();
    let dir = temp_cache("swap");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let cold = rowhammer_sweeps(&cfg, &exec, &JobControl::new()).expect("cold run");
    let cold_text = canon(&cold);

    // Swap two modules' perfectly valid entries: each file now holds a
    // sealed envelope for the *other* module's key.
    let (a, b) = (cfg.modules[0], cfg.modules[1]);
    let path_a = cache_path(&dir, "hammer", a, sweep_key(&cfg, a, "hammer", 0));
    let path_b = cache_path(&dir, "hammer", b, sweep_key(&cfg, b, "hammer", 0));
    faults::swap_files(&path_a, &path_b).unwrap();

    let after = rowhammer_sweeps(&cfg, &exec, &JobControl::new()).expect("run after swap");
    assert_eq!(
        canon(&after),
        cold_text,
        "stale-key entries must be rejected and recomputed, not cross-served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_but_validly_sealed_entry_is_served() {
    // Control drill: the cache is not paranoid to the point of uselessness.
    // An entry sealed with the correct key and checksum IS trusted — which
    // is exactly what makes the corruption drills above meaningful.
    let id = ModuleId::C5;
    let cfg = one_module(id);
    let dir = temp_cache("forge");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let run = || rowhammer_sweeps(&cfg, &exec, &JobControl::new());
    let mut sweep = run().expect("cold run").remove(0);
    const SENTINEL: f64 = 0.123_456_789;
    sweep.records[0].ber = SENTINEL;
    let key = sweep_key(&cfg, id, "hammer", 0);
    let path = cache_path(&dir, "hammer", id, key);
    std::fs::write(&path, seal_entry(key, &canon(&sweep)) + "\n").unwrap();

    let served = run().expect("warm run").remove(0);
    assert_eq!(
        served.records[0].ber, SENTINEL,
        "a correctly sealed entry must be served without recomputation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_population_entries_are_recomputed_never_served() {
    let _drills = METRICS_DRILLS.lock().unwrap_or_else(|e| e.into_inner());
    let fleet = tiny_fleet();
    let key = population_key(&fleet);
    let spec = JobSpec::population(fleet);
    let dir = temp_cache("population");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let run = |ctl: &JobControl| spec.run(&exec, ctl).expect("population run");
    let cold = run(&JobControl::new()).records_jsonl;
    let path = dir.join(format!("population-{key:016x}.jsonl"));
    assert!(path.exists(), "cold run must populate the cache");
    let sealed = std::fs::read_to_string(&path).expect("entry readable");

    // Counted exactly, in a metric scope of the drill's own (see
    // `corrupted_cache_entries_are_recomputed_never_served`).
    hammervolt_obs::set_metrics(true);
    let scope = Scope::new(&[("drill", "corrupt_population")]);
    let _entered = hammervolt_obs::scope::enter(&scope);
    let recovered = || scope.counter_value("cache_corrupt_recovered");

    faults::truncate_file(&path, sealed.len() / 2).unwrap();
    let after = run(&JobControl::new()).records_jsonl;
    assert_eq!(after, cold, "truncated entry must be recomputed");
    assert_eq!(recovered(), 1, "truncation recovery must be counted");

    faults::flip_bit(&path, sealed.len() / 2, 6).unwrap();
    let after = run(&JobControl::new()).records_jsonl;
    assert_eq!(after, cold, "bit-flipped entry must be recomputed");
    assert_eq!(recovered(), 2, "bit-flip recovery must be counted");

    // The recompute rewrote a clean entry: served, and not a recovery.
    let warm_ctl = JobControl::new();
    let warm = run(&warm_ctl).records_jsonl;
    assert_eq!(warm, cold);
    assert_eq!(warm_ctl.snapshot().cache_hits, 1);
    assert_eq!(warm_ctl.snapshot().units_executed, 0);
    assert_eq!(recovered(), 2, "a clean warm hit is not a recovery");
    hammervolt_obs::set_metrics(false);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoints_are_recomputed_never_served() {
    let _drills = METRICS_DRILLS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_cache("checkpoint");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    }
    .with_checkpoints(true);

    // Population batch 0's checkpoint, and a hammer sweep's chunk 0.
    let fleet = tiny_fleet();
    let population_ckpt = dir.join(format!(
        "ckpt-population-{:016x}-00000.jsonl",
        population_key(&fleet)
    ));
    let id = ModuleId::B3;
    let hammer = JobSpec {
        kind: SweepKind::Hammer,
        config: one_module(id),
    };
    let hammer_key = sweep_key(&hammer.config, id, "hammer", 0);
    let hammer_ckpt = unit_checkpoint_path(&dir, "hammer", id, hammer_key, 0);

    for (spec, ckpt) in [
        (JobSpec::population(fleet), population_ckpt),
        (hammer, hammer_ckpt),
    ] {
        let label = spec.kind.label();
        let clean = spec
            .run(&ExecConfig::serial(), &JobControl::new())
            .expect("clean run")
            .records_jsonl;
        std::fs::create_dir_all(&dir).unwrap();
        // A torn envelope: what a crash mid-write would leave without the
        // engine's write-then-rename.
        std::fs::write(&ckpt, "{\"version\":2,\"key\":\"00").unwrap();

        hammervolt_obs::set_metrics(true);
        let scope = Scope::new(&[("drill", "corrupt_checkpoint"), ("kind", label)]);
        let entered = hammervolt_obs::scope::enter(&scope);
        let ctl = JobControl::new();
        let out = spec
            .run(&exec, &ctl)
            .expect("run over a corrupt checkpoint");
        drop(entered);
        hammervolt_obs::set_metrics(false);

        // Recomputed byte-identical, counted once, never restored.
        let recovered = scope.counter_value("ckpt_corrupt_recovered");
        let restored = ctl.snapshot().checkpoint_hits;
        assert_eq!(
            (out.records_jsonl, recovered, restored),
            (clean, 1, 0),
            "{label}"
        );
        assert!(!ckpt.exists(), "{label}: landing clears the checkpoint");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// SoftMC command-stream drills
// ---------------------------------------------------------------------

#[test]
fn structurally_broken_programs_are_rejected() {
    let cfg = golden_config();
    let mut mc = cfg.bring_up(ModuleId::A0).expect("bring-up");
    let bank = cfg.bank;
    let columns = mc.module().geometry().columns_per_row;

    // The healthy program runs.
    let init = Program::init_row(bank, 3, columns, 0xA5A5_A5A5_A5A5_A5A5);
    mc.run(&init).expect("healthy init runs");

    // Stripping the ACT leaves WRs targeting a bank with no open row.
    let headless = faults::strip_activates(&init);
    match mc.run(&headless) {
        Err(SoftMcError::BadProgram { reason }) => {
            assert!(reason.contains("no open row"), "reason: {reason}")
        }
        other => panic!("stripped-ACT program must be rejected, got {other:?}"),
    }

    // Swapping the two leading command slots puts a WR before the ACT.
    let reordered = faults::swap_leading_slots(&init);
    assert!(
        matches!(mc.run(&reordered), Err(SoftMcError::BadProgram { .. })),
        "slot-swapped program must be rejected"
    );

    // A read program with its ACT stripped is equally dead.
    let blind_read = faults::strip_activates(&Program::read_row(bank, 3, columns));
    assert!(
        matches!(mc.run(&blind_read), Err(SoftMcError::BadProgram { .. })),
        "headless read must be rejected"
    );
}

#[test]
fn corrupted_write_data_is_caught_by_readback() {
    let cfg = golden_config();
    let mut mc = cfg.bring_up(ModuleId::A0).expect("bring-up");
    let bank = cfg.bank;
    let columns = mc.module().geometry().columns_per_row;
    let word = 0x5555_5555_5555_5555u64;

    // Healthy init reads back clean.
    mc.run(&Program::init_row(bank, 7, columns, word))
        .expect("init");
    let clean = mc.read_row_conservative(bank, 7).expect("readback");
    assert!(clean.iter().all(|&w| w == word), "healthy init must verify");

    // Corrupted command stream: every written word is XOR-damaged. The
    // program executes fine — only readback comparison catches it.
    let poisoned = faults::corrupt_write_data(
        &Program::init_row(bank, 7, columns, word),
        0x0000_0000_0000_0F00,
    );
    mc.run(&poisoned).expect("poisoned program still executes");
    let dirty = mc.read_row_conservative(bank, 7).expect("readback");
    let diverged = dirty
        .iter()
        .map(|&w| (w ^ word).count_ones() as u64)
        .sum::<u64>();
    assert_eq!(
        diverged,
        4 * u64::from(columns),
        "every word must show exactly the injected 4-bit divergence"
    );
}

#[test]
fn inflated_hammer_loops_change_observable_cost() {
    // A stuck loop counter is not a structural error — it shows up as the
    // wrong command count and the wrong device-time cost, which is how a
    // harness watching command slots detects it.
    let p = Program::hammer_double_sided(0, 2, 4, 1_000);
    let inflated = faults::inflate_loops(&p, 7);
    assert_eq!(inflated.command_count(), 7 * p.command_count());

    let cfg = golden_config();
    let mut mc = cfg.bring_up(ModuleId::A0).expect("bring-up");
    let t0 = mc.module().now_ns();
    mc.run(&p).expect("baseline hammer");
    let baseline_ns = mc.module().now_ns() - t0;
    let t1 = mc.module().now_ns();
    mc.run(&inflated).expect("inflated hammer");
    let inflated_ns = mc.module().now_ns() - t1;
    assert!(
        inflated_ns > 6.0 * baseline_ns,
        "inflated loop must cost ~7x device time (got {baseline_ns} ns vs {inflated_ns} ns)"
    );
}
