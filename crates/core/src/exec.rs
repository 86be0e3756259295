//! Parallel study execution engine: deterministic sharding plus a
//! content-addressed sweep cache.
//!
//! The study's sweeps are embarrassingly parallel *across modules* (each
//! module is an independent specimen) and, with care, *within a module*
//! (the row sample splits into chunks). The care is the device model's
//! cycle-to-cycle measurement noise: it is drawn from an advancing stream,
//! so a row's measured values depend on every operation issued before it.
//! Run the same rows in a different order — or on a different worker — and
//! the noise differs.
//!
//! This engine removes that order dependence by making the *chunk* the unit
//! of execution:
//!
//! - every `(module, chunk)` work unit brings up its **own** fresh
//!   [`SoftMc`] session, a clone of the module's calibrated blueprint
//!   (built once per sweep from the module's specimen seed, with its
//!   `V_PPmin` memoized; per-cell physics are a pure function of that seed,
//!   so every session sees the same silicon), and
//! - rebases the session's noise stream onto a seed derived from
//!   `(seed, module, bank, chunk)` (see `hammervolt_dram::hash::chunk_seed`).
//!
//! A unit's records are then a pure function of the study configuration and
//! the unit's coordinates — never of scheduling — so sweep output is
//! **byte-identical for any worker count**, including one.
//!
//! The three public sweeps — [`rowhammer_sweeps`], [`trcd_sweeps`] and
//! [`retention_sweeps`] — run on one private driver that owns the protocol
//! they share (§4): the `sweep:{kind}` phase and `exec.sweep` span, the
//! module cache, sharding and checkpoints, and assembly into the kind's
//! module struct. A kind supplies only its unit body, its cache-key
//! parameter and its struct. Population studies
//! ([`crate::population`]) run their batches through the same cache-lookup,
//! unit and landing steps.
//!
//! # Sweep cache
//!
//! With `cache_dir` set, each completed module sweep is persisted as a
//! single-line JSON record in a file whose name embeds a 64-bit FNV-1a hash
//! of the full [`StudyConfig`] (with `modules` normalized to the one module
//! under test, so subset runs share entries) plus the sweep kind and its
//! parameters. A later run with the same configuration loads the file and
//! performs zero re-simulation; any configuration change produces a
//! different key, so entries never need invalidation. Serialization
//! round-trips floats exactly (shortest-representation printing), so cached
//! and freshly computed sweeps are byte-identical.
//!
//! Entries are not trusted blindly: each one is a [`CacheEnvelope`] carrying
//! the writer's sweep key and an FNV-1a checksum over the payload bytes.
//! `cache_read` re-derives both and falls back to recomputation on any
//! mismatch, so a truncated, bit-flipped, or key-swapped entry (the faults
//! `hammervolt-testkit` injects) is detected and recomputed, never served.

use crate::alg1::{self, Alg1Config, RowScratch};
use crate::alg2;
use crate::alg3;
use crate::error::StudyError;
use crate::experiment::vpp_ladder;
use crate::job::JobControl;
use crate::patterns::DataPattern;
use crate::records::{RetentionRecord, RowHammerRecord, TrcdRecord};
use crate::study::{
    level_matches, thin_levels, ModuleHammerSweep, ModuleRetentionSweep, ModuleTrcdSweep,
    StudyConfig,
};
use hammervolt_dram::hash;
use hammervolt_dram::registry::ModuleId;
use hammervolt_dram::ModuleBlueprint;
use hammervolt_obs::{counter_add, histogram_record, manifest, Span};
use hammervolt_softmc::SoftMc;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// How the engine runs: worker count, optional sweep cache, and optional
/// chunk-granular checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Directory for the content-addressed sweep cache; `None` disables
    /// caching.
    pub cache_dir: Option<PathBuf>,
    /// Persist every completed `(module, chunk)` unit as a sealed checkpoint in
    /// `cache_dir` and restore finished units on re-run, so a cancelled or
    /// killed sweep resumes re-running only unfinished chunks. Requires
    /// `cache_dir`; a module's checkpoints are swept away once its
    /// module-level cache entry lands. Output stays byte-identical to an
    /// uninterrupted run.
    pub checkpoints: bool,
}

impl ExecConfig {
    /// One worker, no cache — the reference serial semantics.
    pub fn serial() -> Self {
        ExecConfig {
            jobs: 1,
            ..ExecConfig::default()
        }
    }

    /// `jobs` workers, no cache.
    pub fn with_jobs(jobs: usize) -> Self {
        ExecConfig {
            jobs,
            ..ExecConfig::default()
        }
    }

    /// This configuration with chunk checkpoints switched on or off.
    #[must_use]
    pub fn with_checkpoints(mut self, on: bool) -> Self {
        self.checkpoints = on;
        self
    }

    /// Reads `HAMMERVOLT_JOBS` (worker count, `0` = auto),
    /// `HAMMERVOLT_CACHE_DIR` (cache directory), and `HAMMERVOLT_RESUME`
    /// (chunk checkpoints, a boolean flag read by
    /// [`hammervolt_obs::env_flag`]) from the environment. Unset (or empty)
    /// variables leave the defaults: one worker per CPU, no cache, no
    /// checkpoints. A variable that is set but unparsable or unusable is
    /// reported through the observability event sink (stderr when no sink
    /// is installed) before falling back, never silently ignored.
    pub fn from_env() -> Self {
        let jobs = hammervolt_par::jobs_from_env();
        let cache_dir = match std::env::var("HAMMERVOLT_CACHE_DIR") {
            Ok(v) if v.is_empty() => None,
            Ok(v) => {
                let dir = PathBuf::from(v);
                // Probe usability now so a bad directory is reported once at
                // configuration time instead of degrading every sweep into
                // silent cache misses.
                if let Err(err) = std::fs::create_dir_all(&dir) {
                    hammervolt_obs::warn(
                        "exec",
                        &format!(
                            "HAMMERVOLT_CACHE_DIR={} is unusable ({err}); caching disabled",
                            dir.display()
                        ),
                    );
                    None
                } else {
                    Some(dir)
                }
            }
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(_)) => {
                hammervolt_obs::warn(
                    "exec",
                    "HAMMERVOLT_CACHE_DIR is set but not valid UTF-8; caching disabled",
                );
                None
            }
        };
        ExecConfig {
            jobs,
            cache_dir,
            checkpoints: hammervolt_obs::env_flag("HAMMERVOLT_RESUME"),
        }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        hammervolt_par::resolve_jobs(self.jobs)
    }

    /// Where unit checkpoints live: the cache directory when checkpoints are
    /// on, else `None`.
    pub(crate) fn checkpoint_dir(&self) -> Option<&Path> {
        if self.checkpoints {
            self.cache_dir.as_deref()
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

// The ordered fork-join map lives in `hammervolt-par` so the execution
// engine and the SPICE Monte-Carlo batcher share one scheduler (one claim
// discipline, one ordering guarantee, one panic-propagation policy). The
// engine runs the cancellable variant: a fired `JobControl` token stops
// workers at the next unit boundary and the sweep returns
// `StudyError::Cancelled`.
use hammervolt_par::parallel_map_cancellable_with;

// ---------------------------------------------------------------------------
// Work units
// ---------------------------------------------------------------------------

/// One `(module, chunk)` work unit.
struct Unit {
    /// Index of the module in the driver's list of modules to compute.
    module_index: usize,
    id: ModuleId,
    chunk: u64,
    rows: Vec<u32>,
}

/// A unit's output, `(vpp_min, levels, per_level)`: the module-wide sweep
/// metadata (identical across the module's units by determinism) plus
/// records grouped by ladder level. A tuple, because it is also the unit's
/// checkpoint payload.
type UnitOut<R> = (f64, Vec<f64>, Vec<Vec<R>>);

/// Brings up a unit's private session: a pristine clone of the module's
/// shared blueprint (spec, vendor profile, `calibrate_eta_mean` and the
/// `V_PPmin` search are paid once per module, not per chunk), the thermal
/// loop re-settled at `temp_c` when given (retention runs at 80 °C; the
/// other kinds stay at bring-up's 50 °C), then the noise stream rebased onto
/// the unit's chunk seed so results are independent of scheduling. The
/// chunk's row-parameter table is pre-derived so the ladder's hammer loops
/// never derive parameters mid-sweep.
fn bring_up_unit(
    config: &StudyConfig,
    blueprint: &ModuleBlueprint,
    id: ModuleId,
    chunk: u64,
    rows: &[u32],
    temp_c: Option<f64>,
) -> Result<(SoftMc, f64), StudyError> {
    let mut mc = SoftMc::new(blueprint.instantiate());
    let (vpp_min, _) = blueprint
        .vppmin_memo()
        .expect("StudyConfig::blueprint memoizes V_PPmin");
    if let Some(temp_c) = temp_c {
        mc.set_temperature(temp_c)?;
    }
    mc.module_mut()
        .reseed_noise(hash::chunk_seed(config.module_seed(id), config.bank, chunk));
    mc.module_mut().prepare_rows(config.bank, rows);
    Ok((mc, vpp_min))
}

/// Alg. 1 unit: the full ladder over this chunk's rows, with per-row WCDP
/// reuse across levels (§4.1/footnote 9 — the WCDP search runs once at
/// nominal `V_PP`, the chosen pattern is reused below).
fn hammer_unit(
    config: &StudyConfig,
    blueprint: &ModuleBlueprint,
    id: ModuleId,
    chunk: u64,
    rows: &[u32],
) -> Result<UnitOut<RowHammerRecord>, StudyError> {
    let (mut mc, vpp_min) = bring_up_unit(config, blueprint, id, chunk, rows, None)?;
    let levels = vpp_ladder(vpp_min);
    let mut per_level: Vec<Vec<RowHammerRecord>> = levels.iter().map(|_| Vec::new()).collect();
    // Per-row WCDP memo, dense over the chunk's row list: the ladder probes
    // it once per (level, row) on the hot path, and a chunk's rows are a
    // small contiguous-by-construction sample, so a slot vector beats
    // hashing the row address every probe.
    let mut wcdp_by_slot: Vec<Option<DataPattern>> = vec![None; rows.len()];
    // One scratch per unit: the ladder's measurement loops reuse its buffers
    // instead of allocating per (level, row) step.
    let mut scratch = RowScratch::new();
    for (li, &vpp) in levels.iter().enumerate() {
        mc.set_vpp(vpp)?;
        for (slot, &row) in rows.iter().enumerate() {
            let cfg = if let Some(wcdp) = wcdp_by_slot[slot] {
                Alg1Config {
                    wcdp_override: Some(wcdp),
                    ..config.alg1
                }
            } else {
                config.alg1
            };
            let m = match alg1::measure_row_with(&mut mc, config.bank, row, &cfg, &mut scratch) {
                Ok(m) => m,
                Err(StudyError::NoAggressor { .. }) => continue,
                Err(e) => return Err(e),
            };
            wcdp_by_slot[slot].get_or_insert(m.wcdp);
            per_level[li].push(RowHammerRecord {
                module: id,
                vpp,
                bank: config.bank,
                row,
                wcdp: m.wcdp,
                hc_first: m.hc_first,
                ber: m.ber,
            });
        }
    }
    Ok((vpp_min, levels, per_level))
}

/// Alg. 2 unit: the thinned ladder over this chunk's rows.
fn trcd_unit(
    config: &StudyConfig,
    blueprint: &ModuleBlueprint,
    id: ModuleId,
    levels_cap: usize,
    chunk: u64,
    rows: &[u32],
) -> Result<UnitOut<TrcdRecord>, StudyError> {
    let (mut mc, vpp_min) = bring_up_unit(config, blueprint, id, chunk, rows, None)?;
    let levels = thin_levels(&vpp_ladder(vpp_min), levels_cap.max(2));
    let mut per_level: Vec<Vec<TrcdRecord>> = levels.iter().map(|_| Vec::new()).collect();
    for (li, &vpp) in levels.iter().enumerate() {
        mc.set_vpp(vpp)?;
        for &row in rows {
            let m = alg2::measure_row(&mut mc, config.bank, row, &config.alg2)?;
            per_level[li].push(TrcdRecord {
                module: id,
                vpp,
                bank: config.bank,
                row,
                t_rcd_min_ns: m.t_rcd_min_ns,
            });
        }
    }
    Ok((vpp_min, levels, per_level))
}

/// Alg. 3 unit: the retention levels over this chunk's rows at 80 °C.
fn retention_unit(
    config: &StudyConfig,
    blueprint: &ModuleBlueprint,
    id: ModuleId,
    chunk: u64,
    rows: &[u32],
) -> Result<UnitOut<RetentionRecord>, StudyError> {
    let (mut mc, vpp_min) = bring_up_unit(config, blueprint, id, chunk, rows, Some(80.0))?;
    let mut levels: Vec<f64> = config
        .retention_vpp_levels
        .iter()
        .map(|&v| v.max(vpp_min))
        .collect();
    levels.dedup_by(|a, b| level_matches(*a, *b));
    let mut per_level: Vec<Vec<RetentionRecord>> = levels.iter().map(|_| Vec::new()).collect();
    for (li, &vpp) in levels.iter().enumerate() {
        mc.set_vpp(vpp)?;
        for &row in rows {
            let m = alg3::measure_row(&mut mc, config.bank, row, &config.alg3)?;
            for p in &m.points {
                per_level[li].push(RetentionRecord {
                    module: id,
                    vpp,
                    bank: config.bank,
                    row,
                    window_s: p.window_s,
                    ber: p.ber,
                });
            }
        }
    }
    Ok((vpp_min, levels, per_level))
}

// ---------------------------------------------------------------------------
// Sharded fan-out
// ---------------------------------------------------------------------------

/// Plans the `(module, chunk)` units for `modules` (each with its sweep
/// key, which addresses its units' checkpoints), runs each on the worker
/// pool through [`run_unit`], and returns each module's unit outputs in
/// chunk order.
///
/// `parent_span` is the sweep-wide span id shard spans attach to (`0` for
/// none); instrumentation is a pure side channel and never affects which
/// units run or how their outputs assemble.
fn run_sharded<R, F>(
    config: &StudyConfig,
    modules: &[(ModuleId, u64)],
    exec: &ExecConfig,
    kind: &str,
    parent_span: u64,
    ctl: &JobControl,
    unit: F,
) -> Result<Vec<Vec<UnitOut<R>>>, StudyError>
where
    R: Send + Serialize + for<'de> Deserialize<'de>,
    F: Fn(&ModuleBlueprint, ModuleId, u64, &[u32]) -> Result<UnitOut<R>, StudyError> + Sync,
{
    // The shared immutable stage of bring-up: one calibrated blueprint per
    // module (V_PPmin memo included), served to every work unit.
    let blueprints: Vec<ModuleBlueprint> = modules
        .iter()
        .map(|&(id, _)| config.blueprint(id))
        .collect::<Result<_, _>>()?;
    let mut units: Vec<Unit> = Vec::new();
    // Per-module outstanding-unit counts so the progress line can tick a
    // module the moment its last unit completes, whichever worker ran it.
    let mut outstanding: Vec<AtomicUsize> = Vec::with_capacity(modules.len());
    for (module_index, &(id, _)) in modules.iter().enumerate() {
        let groups = config.sample(config.geometry_for(id)).groups();
        if groups.is_empty() {
            return Err(StudyError::InvalidConfig {
                reason: format!("module {} has an empty row sample", id.label()),
            });
        }
        outstanding.push(AtomicUsize::new(groups.len()));
        for (chunk, rows) in groups.into_iter().enumerate() {
            units.push(Unit {
                module_index,
                id,
                chunk: chunk as u64,
                rows,
            });
        }
    }
    counter_add!("exec_modules", modules.len());
    counter_add!("exec_units", units.len());
    ctl.progress()
        .add_totals(modules.len() as u64, units.len() as u64);
    // Chunk checkpoints live in the sweep-cache directory, addressed by the
    // module's sweep key continued over the chunk index — so they share the
    // cache's envelope verification and its any-config-change-changes-the-key
    // invalidation-free property.
    let ckpt_dir = exec.checkpoint_dir();
    let outputs = parallel_map_cancellable_with(
        &units,
        exec.effective_jobs(),
        &ctl.cancel,
        || (),
        |(), u| {
            let mut span = Span::begin_child_of(parent_span, "exec.shard");
            span.field_str("module", &u.id.label());
            span.field_u64("bank", u64::from(config.bank));
            span.field_u64("chunk", u.chunk);
            span.field_u64("rows", u.rows.len() as u64);
            let checkpoint = ckpt_dir.map(|dir| {
                let key = modules[u.module_index].1;
                (unit_checkpoint_path(dir, kind, u.id, key, u.chunk), key)
            });
            let out = run_unit(checkpoint, u.chunk, ctl, || {
                unit(&blueprints[u.module_index], u.id, u.chunk, &u.rows)
            });
            ctl.progress().unit_done();
            if outstanding[u.module_index].fetch_sub(1, Ordering::Relaxed) == 1 {
                ctl.progress().module_done();
            }
            out
        },
    )
    .ok_or(StudyError::Cancelled)?;
    let mut per_module: Vec<Vec<UnitOut<R>>> = modules.iter().map(|_| Vec::new()).collect();
    for (unit, out) in units.iter().zip(outputs) {
        per_module[unit.module_index].push(out?);
    }
    Ok(per_module)
}

/// Concatenates a module's unit outputs into one record list: level-major,
/// then chunks in ascending order — matching a serial sweep of the whole
/// sample. Returns `(vpp_min, levels, records)`.
fn stitch<R>(mut units: Vec<UnitOut<R>>) -> (f64, Vec<f64>, Vec<R>) {
    let (vpp_min, levels) = (units[0].0, units[0].1.clone());
    debug_assert!(
        units.iter().all(|(_, l, _)| l.len() == levels.len()),
        "units of one module must agree on the ladder"
    );
    let mut records = Vec::new();
    for li in 0..levels.len() {
        for (_, _, per_level) in &mut units {
            records.append(&mut per_level[li]);
        }
    }
    (vpp_min, levels, records)
}

// ---------------------------------------------------------------------------
// Content-addressed sweep cache
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over a byte string, continuing from `h`. Public because
/// the job layer derives spec hashes with the same function the cache keys
/// use (one hashing discipline across the workspace).
pub fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a-64 offset basis — the starting `h` for [`fnv1a64`].
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// On-disk format version; bumped whenever the envelope layout changes so
/// old entries miss instead of misparsing.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The verified on-disk wrapper around one cached sweep.
///
/// The payload is stored as a JSON string (the sweep's exact serialization),
/// so the checksum covers the precise bytes that deserialize back into the
/// sweep and warm loads stay byte-identical to cold computes. `key` records
/// the sweep key the *writer* derived from its configuration; a reader
/// computing a different key (stale-key swap, renamed file) rejects the
/// entry even if its checksum is internally consistent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEnvelope {
    /// Envelope format version ([`CACHE_FORMAT_VERSION`]).
    pub version: u32,
    /// Writer's sweep key (config hash + kind + parameter), zero-padded hex.
    pub key: String,
    /// FNV-1a-64 over the payload bytes, zero-padded hex.
    pub checksum: String,
    /// The sweep's JSON serialization.
    pub payload: String,
}

/// The cache key for one module's sweep: a hash of the full configuration
/// (with `modules` normalized to the one module, so subset runs share
/// entries), the sweep kind, and any kind-specific parameter.
pub fn sweep_key(config: &StudyConfig, id: ModuleId, kind: &str, extra: u64) -> u64 {
    let normalized = StudyConfig {
        modules: vec![id],
        ..config.clone()
    };
    let json = serde_json::to_string(&normalized).expect("StudyConfig serializes");
    let mut h = fnv1a64(kind.as_bytes(), FNV_OFFSET);
    h = fnv1a64(&extra.to_le_bytes(), h);
    fnv1a64(json.as_bytes(), h)
}

/// The cache file path for one `(kind, module, key)` entry.
pub fn cache_path(dir: &Path, kind: &str, id: ModuleId, key: u64) -> PathBuf {
    dir.join(format!("{kind}-{}-{key:016x}.jsonl", id.label()))
}

/// The checkpoint key for one `(module, chunk)` unit: the module's sweep
/// key (see [`sweep_key`]) continued over the chunk index.
pub fn unit_key(sweep_key: u64, chunk: u64) -> u64 {
    fnv1a64(&chunk.to_le_bytes(), sweep_key)
}

/// The checkpoint file path for one `(module, chunk)` unit. The name embeds
/// the module's sweep key, so a module's checkpoints share a prefix.
pub fn unit_checkpoint_path(
    dir: &Path,
    kind: &str,
    id: ModuleId,
    sweep_key: u64,
    chunk: u64,
) -> PathBuf {
    dir.join(format!(
        "ckpt-{kind}-{}-{sweep_key:016x}-{chunk}.jsonl",
        id.label()
    ))
}

/// Seals a payload into its single-line envelope form: the exact line
/// [`cache_store`] writes for `key`. Public so conformance tests can forge
/// valid entries (proving warm hits are served from disk) and fault
/// injectors can re-seal corrupted payloads.
pub fn seal_entry(key: u64, payload_json: &str) -> String {
    let envelope = CacheEnvelope {
        version: CACHE_FORMAT_VERSION,
        key: format!("{key:016x}"),
        checksum: format!("{:016x}", fnv1a64(payload_json.as_bytes(), FNV_OFFSET)),
        payload: payload_json.to_string(),
    };
    serde_json::to_string(&envelope).expect("envelope serializes")
}

/// Verifies an envelope line against the reader's expected key and returns
/// the payload on success. `None` on parse failure, version skew, key
/// mismatch (stale-key swap), or checksum mismatch (corruption). Public so
/// stress and fault-injection suites can verify entries exactly the way the
/// engine does.
pub fn open_entry(line: &str, expected_key: u64) -> Option<String> {
    let envelope: CacheEnvelope = serde_json::from_str(line).ok()?;
    if envelope.version != CACHE_FORMAT_VERSION {
        return None;
    }
    if envelope.key != format!("{expected_key:016x}") {
        return None;
    }
    let computed = format!("{:016x}", fnv1a64(envelope.payload.as_bytes(), FNV_OFFSET));
    if envelope.checksum != computed {
        return None;
    }
    Some(envelope.payload)
}

/// Outcome of one cache lookup, distinguishing a plain miss (no entry on
/// disk) from a *corrupt* entry — present but truncated, bit-flipped,
/// key-swapped, or version-skewed — so recoveries are countable.
enum CacheRead<T> {
    /// Verified entry, payload deserialized.
    Hit(T),
    /// No entry on disk (or the file is unreadable).
    Miss,
    /// An entry exists but is not UTF-8 or failed envelope or payload
    /// verification; it will be recomputed and rewritten, never served.
    Corrupt,
}

/// Reads and classifies one cache entry (see [`CacheRead`]).
fn cache_read<T: for<'de> Deserialize<'de>>(path: &Path, expected_key: u64) -> CacheRead<T> {
    let Ok(bytes) = std::fs::read(path) else {
        return CacheRead::Miss;
    };
    let Ok(text) = String::from_utf8(bytes) else {
        return CacheRead::Corrupt;
    };
    let Some(line) = text.lines().find(|l| !l.trim().is_empty()) else {
        return CacheRead::Corrupt;
    };
    let Some(payload) = open_entry(line, expected_key) else {
        return CacheRead::Corrupt;
    };
    match serde_json::from_str(&payload) {
        Ok(value) => CacheRead::Hit(value),
        Err(_) => CacheRead::Corrupt,
    }
}

/// Loads and verifies a cached sweep; `None` on miss, any read/parse
/// failure, or an envelope whose key or checksum does not match (the entry
/// is then recomputed and rewritten). Public for the multi-writer stress
/// suite, which must observe entries through the verifying read path.
pub fn cache_load<T: for<'de> Deserialize<'de>>(path: &Path, expected_key: u64) -> Option<T> {
    match cache_read(path, expected_key) {
        CacheRead::Hit(value) => Some(value),
        CacheRead::Miss | CacheRead::Corrupt => None,
    }
}

/// Persists a sweep as one sealed envelope line, atomically
/// (write-then-rename), so a concurrent reader never sees a partial entry.
/// Best-effort: cache I/O failures never fail the sweep.
///
/// The temp name carries the process id *and* a process-wide store counter:
/// two threads storing to the same path concurrently (e.g. two workers
/// finishing the same module's sweep in separate pools) each write their own
/// temp file, so neither can rename the other's half-written bytes into
/// place. Public so the multi-writer stress suite can hammer this exact
/// path from many threads.
pub fn cache_store<T: Serialize>(path: &Path, key: u64, value: &T) {
    static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let Ok(json) = serde_json::to_string(value) else {
        return;
    };
    let line = seal_entry(key, &json);
    let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    if std::fs::write(&tmp, line + "\n").is_ok() && std::fs::rename(&tmp, path).is_ok() {
        counter_add!("cache_stores", 1);
    }
}

/// Looks up one cache entry and accounts for it. Every lookup ticks
/// `cache_hits` or `cache_misses` and the job's progress; a corrupt entry
/// is also counted in `cache_corrupt_recovered` and warned about, then
/// recomputed by the caller, never served. `what` names the entry in the
/// warning.
pub(crate) fn cache_lookup<T: for<'de> Deserialize<'de>>(
    path: &Path,
    key: u64,
    ctl: &JobControl,
    what: fmt::Arguments<'_>,
) -> Option<T> {
    let read = cache_read(path, key);
    let hit = matches!(read, CacheRead::Hit(_));
    if hit {
        counter_add!("cache_hits", 1);
    } else {
        counter_add!("cache_misses", 1);
    }
    ctl.progress().cache_lookup(hit);
    match read {
        CacheRead::Hit(value) => Some(value),
        CacheRead::Miss => None,
        CacheRead::Corrupt => {
            counter_add!("cache_corrupt_recovered", 1);
            hammervolt_obs::warn(
                "exec",
                &format!("corrupt cache entry for {what} rejected; recomputing"),
            );
            None
        }
    }
}

/// Runs one unit through its checkpoint: restores the unit's verified
/// checkpoint when there is one ([`restore_unit`]), or computes the unit
/// (timed in the `exec_unit_us` histogram) and seals it ([`seal_unit`]).
/// `checkpoint` is the unit's file and the key of the result the unit
/// belongs to (a sweep or population key, continued over `index` by
/// [`unit_key`]); `None` runs without checkpoints.
pub(crate) fn run_unit<T>(
    checkpoint: Option<(PathBuf, u64)>,
    index: u64,
    ctl: &JobControl,
    compute: impl FnOnce() -> Result<T, StudyError>,
) -> Result<T, StudyError>
where
    T: Serialize + for<'de> Deserialize<'de>,
{
    let checkpoint = checkpoint.map(|(path, owner)| (path, unit_key(owner, index)));
    if let Some(out) = restore_unit(checkpoint.as_ref(), ctl) {
        return Ok(out);
    }
    let timed = hammervolt_obs::metrics_enabled().then(Instant::now);
    let out = compute();
    if let Some(t0) = timed {
        histogram_record!("exec_unit_us", t0.elapsed().as_micros());
    }
    let out = out?;
    seal_unit(checkpoint.as_ref(), ctl, &out);
    Ok(out)
}

/// A unit's resume step: its verified checkpoint, if `checkpoint` (the
/// unit's file and its own key) names one. A hit counts in `ckpt_hits`; a
/// corrupt checkpoint is counted in `ckpt_corrupt_recovered`, warned about
/// and reported as absent, never served.
pub(crate) fn restore_unit<T: for<'de> Deserialize<'de>>(
    checkpoint: Option<&(PathBuf, u64)>,
    ctl: &JobControl,
) -> Option<T> {
    let (path, key) = checkpoint?;
    // Resume: a verified checkpoint replaces the unit's computation
    // outright — restored bytes equal recomputed bytes because the unit is
    // a pure function of (config, coordinates).
    match cache_read(path, *key) {
        CacheRead::Hit(out) => {
            counter_add!("ckpt_hits", 1);
            ctl.progress().checkpoint_hit();
            Some(out)
        }
        CacheRead::Miss => None,
        CacheRead::Corrupt => {
            counter_add!("ckpt_corrupt_recovered", 1);
            let msg = format!(
                "corrupt checkpoint {} rejected; recomputing",
                path.display()
            );
            hammervolt_obs::warn("exec", &msg);
            None
        }
    }
}

/// A computed unit's closing step: counts it as executed and seals `out`
/// as its checkpoint when `checkpoint` (the unit's file and its own key)
/// is given.
pub(crate) fn seal_unit<T: Serialize>(
    checkpoint: Option<&(PathBuf, u64)>,
    ctl: &JobControl,
    out: &T,
) {
    ctl.progress().unit_executed();
    if let Some((path, key)) = checkpoint {
        // Sealed only for a finished unit, so cooperative cancellation can
        // never tear a checkpoint: the unit either completes (checkpoint
        // sealed) or leaves none.
        cache_store(path, *key, out);
    }
}

/// Lands a finished result: seals `value` as the cache entry at `entry`,
/// then clears the checkpoints of the `units` units it covers. Clearing
/// happens only with checkpoints on (a run without them wrote none) and by
/// the units' known paths, `checkpoint(dir, index)`; it is best-effort, as a
/// leftover checkpoint is stale disk, never wrong output.
pub(crate) fn land<T: Serialize>(
    exec: &ExecConfig,
    entry: &Path,
    key: u64,
    value: &T,
    units: u64,
    checkpoint: impl Fn(&Path, u64) -> PathBuf,
) {
    cache_store(entry, key, value);
    if let Some(dir) = exec.checkpoint_dir() {
        for index in 0..units {
            let _ = std::fs::remove_file(checkpoint(dir, index));
        }
    }
}

// ---------------------------------------------------------------------------
// The sweep driver
// ---------------------------------------------------------------------------

/// Runs one sweep kind over every configured module, in configuration
/// order: the `sweep:{kind}` phase and `exec.sweep` span, one cache lookup
/// per module, the `(module, chunk)` units of the modules the cache could
/// not serve (each through its checkpoint), and each computed module
/// assembled by `module_sweep` and landed in the cache.
///
/// A kind supplies only `unit`, its per-chunk body; `extra`, its cache-key
/// parameter; and `module_sweep`, its module struct's constructor.
fn sweep<R, S>(
    config: &StudyConfig,
    exec: &ExecConfig,
    ctl: &JobControl,
    kind: &'static str,
    extra: u64,
    unit: impl Fn(&ModuleBlueprint, ModuleId, u64, &[u32]) -> Result<UnitOut<R>, StudyError> + Sync,
    module_sweep: fn(ModuleId, f64, Vec<f64>, Vec<R>) -> S,
) -> Result<Vec<S>, StudyError>
where
    R: Send + Serialize + for<'de> Deserialize<'de>,
    S: Serialize + for<'de> Deserialize<'de>,
{
    let _phase = manifest::phase(&format!("sweep:{kind}"));
    // The manifest's `config_hash`: FNV-1a-64 over the configuration's exact
    // JSON, so any parameter change produces a new hash (as for cache keys).
    if hammervolt_obs::collecting() {
        let json = serde_json::to_string(config).expect("StudyConfig serializes");
        manifest::annotate(
            "config_hash",
            &format!("{:016x}", fnv1a64(json.as_bytes(), FNV_OFFSET)),
        );
        manifest::annotate("jobs", &exec.effective_jobs().to_string());
    }
    let mut sweep_span = Span::begin("exec.sweep");
    sweep_span.field_str("kind", kind);
    sweep_span.field_u64("modules", config.modules.len() as u64);
    // Touch-register the cache counters so every manifest reports them,
    // zero included — a run without a cache dir should say "0 hits", not
    // omit the counter.
    if hammervolt_obs::metrics_enabled() {
        hammervolt_obs::metrics::counter("cache_hits");
        hammervolt_obs::metrics::counter("cache_misses");
        hammervolt_obs::metrics::counter("cache_corrupt_recovered");
        hammervolt_obs::metrics::counter("cache_stores");
    }
    // A module's sweep key addresses its cache entry and its units'
    // checkpoints, so it is derived only when there is a cache directory.
    let dir = exec.cache_dir.as_deref();
    let modules: Vec<(ModuleId, u64)> = config
        .modules
        .iter()
        .map(|&id| (id, dir.map_or(0, |_| sweep_key(config, id, kind, extra))))
        .collect();
    let mut sweeps: Vec<Option<S>> = modules
        .iter()
        .map(|&(id, key)| {
            let path = cache_path(dir?, kind, id, key);
            cache_lookup(&path, key, ctl, format_args!("{kind}/{id}"))
        })
        .collect();
    let missing: Vec<usize> = (0..modules.len())
        .filter(|&i| sweeps[i].is_none())
        .collect();
    let todo: Vec<(ModuleId, u64)> = missing.iter().map(|&i| modules[i]).collect();
    let computed = run_sharded(config, &todo, exec, kind, sweep_span.id(), ctl, unit)?;
    for (&i, units) in missing.iter().zip(computed) {
        let (id, key) = modules[i];
        let chunks = units.len() as u64;
        let (vpp_min, levels, records) = stitch(units);
        let sweep = module_sweep(id, vpp_min, levels, records);
        if let Some(dir) = dir {
            land(
                exec,
                &cache_path(dir, kind, id, key),
                key,
                &sweep,
                chunks,
                |dir, chunk| unit_checkpoint_path(dir, kind, id, key, chunk),
            );
        }
        sweeps[i] = Some(sweep);
    }
    Ok(sweeps
        .into_iter()
        .map(|s| s.expect("every module is served or computed"))
        .collect())
}

// ---------------------------------------------------------------------------
// Public sweeps
// ---------------------------------------------------------------------------

/// Runs the Alg. 1 RowHammer sweep for every configured module, sharded
/// across modules *and* row chunks within each module: per row, the WCDP
/// search at nominal `V_PP`, then the full ladder down to `V_PPmin` reusing
/// the row's WCDP (§4.1/footnote 9).
///
/// `ctl`'s token cancels cooperatively and its progress counters tick as
/// units and modules finish; pass `&JobControl::new()` when neither
/// matters. To sweep one module, pass a config whose `modules` holds just
/// that module: cache keys normalize `modules`, so its entries are shared
/// with every run that includes it.
///
/// # Errors
///
/// Propagates infrastructure errors from any work unit; `Cancelled` when
/// the control's token fires first.
pub fn rowhammer_sweeps(
    config: &StudyConfig,
    exec: &ExecConfig,
    ctl: &JobControl,
) -> Result<Vec<ModuleHammerSweep>, StudyError> {
    sweep(
        config,
        exec,
        ctl,
        "hammer",
        0,
        |bp, id, chunk, rows| hammer_unit(config, bp, id, chunk, rows),
        |module, vpp_min, vpp_levels, records| ModuleHammerSweep {
            module,
            vpp_min,
            vpp_levels,
            records,
        },
    )
}

/// Runs the Alg. 2 activation-latency sweep for every configured module.
/// To bound cost it sweeps nominal `V_PP` and `V_PPmin` plus evenly spaced
/// intermediate levels, `levels_cap` in total. `ctl` and single-module runs
/// as for [`rowhammer_sweeps`].
///
/// # Errors
///
/// Propagates infrastructure errors from any work unit; `Cancelled` when
/// the control's token fires first.
pub fn trcd_sweeps(
    config: &StudyConfig,
    levels_cap: usize,
    exec: &ExecConfig,
    ctl: &JobControl,
) -> Result<Vec<ModuleTrcdSweep>, StudyError> {
    sweep(
        config,
        exec,
        ctl,
        "trcd",
        levels_cap as u64,
        |bp, id, chunk, rows| trcd_unit(config, bp, id, levels_cap, chunk, rows),
        |module, vpp_min, vpp_levels, records| ModuleTrcdSweep {
            module,
            vpp_min,
            vpp_levels,
            records,
        },
    )
}

/// Runs the Alg. 3 retention sweep for every configured module at 80 °C
/// across the configured retention `V_PP` levels. `ctl` and single-module
/// runs as for [`rowhammer_sweeps`].
///
/// # Errors
///
/// Propagates infrastructure errors from any work unit; `Cancelled` when
/// the control's token fires first.
pub fn retention_sweeps(
    config: &StudyConfig,
    exec: &ExecConfig,
    ctl: &JobControl,
) -> Result<Vec<ModuleRetentionSweep>, StudyError> {
    sweep(
        config,
        exec,
        ctl,
        "retention",
        0,
        |bp, id, chunk, rows| retention_unit(config, bp, id, chunk, rows),
        |module, vpp_min, vpp_levels, records| ModuleRetentionSweep {
            module,
            vpp_min,
            vpp_levels,
            records,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn tiny_config(modules: &[ModuleId]) -> StudyConfig {
        StudyConfig {
            rows_per_chunk: 3,
            ..StudyConfig::quick_subset(modules)
        }
    }

    /// The RowHammer sweep of `cfg`'s one module.
    fn hammer_one(cfg: &StudyConfig, exec: &ExecConfig) -> ModuleHammerSweep {
        let mut sweeps = rowhammer_sweeps(cfg, exec, &JobControl::new()).unwrap();
        assert_eq!(sweeps.len(), 1, "one module in, one sweep out");
        sweeps.pop().unwrap()
    }

    fn unique_temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hammervolt-exec-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a-64 of the empty string is the offset basis; "a" and
        // "foobar" are the published test vectors.
        assert_eq!(fnv1a64(b"", FNV_OFFSET), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a", FNV_OFFSET), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar", FNV_OFFSET), 0x8594_4171_F739_67E8);
        // Incremental hashing equals one-shot hashing.
        let one_shot = fnv1a64(b"hammervolt", FNV_OFFSET);
        let split = fnv1a64(b"volt", fnv1a64(b"hammer", FNV_OFFSET));
        assert_eq!(one_shot, split);
        assert_ne!(one_shot, fnv1a64(b"hammerVolt", FNV_OFFSET));
    }

    #[test]
    fn hammer_sweep_is_identical_across_worker_counts() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let serial = hammer_one(&cfg, &ExecConfig::serial());
        for jobs in [2, 4, 16] {
            let parallel = hammer_one(&cfg, &ExecConfig::with_jobs(jobs));
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "jobs={jobs} must be byte-identical to serial"
            );
        }
    }

    #[test]
    fn multi_module_sweeps_match_single_module_runs() {
        let cfg = tiny_config(&[ModuleId::B3, ModuleId::C0]);
        let together =
            rowhammer_sweeps(&cfg, &ExecConfig::with_jobs(4), &JobControl::new()).unwrap();
        assert_eq!(together.len(), 2);
        for (i, &id) in cfg.modules.iter().enumerate() {
            let alone = hammer_one(&tiny_config(&[id]), &ExecConfig::serial());
            assert_eq!(
                serde_json::to_string(&together[i]).unwrap(),
                serde_json::to_string(&alone).unwrap(),
            );
        }
    }

    #[test]
    fn cache_round_trips_byte_identically() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let dir = unique_temp_dir("roundtrip");
        let exec = ExecConfig {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        };
        let cold = hammer_one(&cfg, &exec);
        // The entry exists on disk now.
        let key = sweep_key(&cfg, ModuleId::B3, "hammer", 0);
        assert!(cache_path(&dir, "hammer", ModuleId::B3, key).exists());
        // Warm run: loaded, not recomputed, identical bytes.
        let warm = hammer_one(&cfg, &exec);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_separate_configs_kinds_and_modules() {
        let a = tiny_config(&[ModuleId::B3]);
        let b = StudyConfig {
            rows_per_chunk: 4,
            ..a.clone()
        };
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&b, ModuleId::B3, "hammer", 0)
        );
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&a, ModuleId::B3, "trcd", 0)
        );
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "trcd", 2),
            sweep_key(&a, ModuleId::B3, "trcd", 4)
        );
        assert_ne!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&a, ModuleId::C0, "hammer", 0)
        );
        // The key ignores which *other* modules the config selects.
        let subset = tiny_config(&[ModuleId::B3, ModuleId::C0]);
        assert_eq!(
            sweep_key(&a, ModuleId::B3, "hammer", 0),
            sweep_key(&subset, ModuleId::B3, "hammer", 0)
        );
    }

    #[test]
    fn corrupt_cache_entries_are_recomputed() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let dir = unique_temp_dir("corrupt");
        let exec = ExecConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        };
        let key = sweep_key(&cfg, ModuleId::B3, "hammer", 0);
        let path = cache_path(&dir, "hammer", ModuleId::B3, key);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "not json\n").unwrap();
        let sweep = hammer_one(&cfg, &exec);
        assert!(!sweep.records.is_empty());
        // The corrupt entry was replaced by a valid one.
        assert!(cache_load::<ModuleHammerSweep>(&path, key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_to_one_path_never_corrupt_the_entry() {
        // Regression: the temp name used to carry only the process id, so two
        // threads storing the same path shared one temp file — one thread
        // could rename the other's half-written bytes into place. With the
        // store counter in the suffix every writer owns its temp file; the
        // final entry is always one writer's complete, verifiable line.
        let dir = unique_temp_dir("concurrent-store");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.jsonl");
        let key = 0xDEAD_BEEFu64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..16u64 {
                        let payload: Vec<u64> = vec![t, i, t * 1000 + i];
                        cache_store(path, key, &payload);
                    }
                });
            }
        });
        let loaded: Vec<u64> =
            cache_load(&path, key).expect("entry must verify after concurrent stores");
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2], loaded[0] * 1000 + loaded[1]);
        // Every writer renamed its own temp file; none leak.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path() != path)
            .map(|e| e.file_name())
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_seal_open_round_trip() {
        let payload = r#"{"hello":[1,2,3]}"#;
        let line = seal_entry(42, payload);
        assert_eq!(open_entry(&line, 42).as_deref(), Some(payload));
        // Wrong expected key: a stale-key swap is rejected.
        assert_eq!(open_entry(&line, 43), None);
    }

    #[test]
    fn envelope_rejects_corruption() {
        let payload = r#"{"ber":0.25,"rows":[7,8]}"#;
        let line = seal_entry(7, payload);

        // Single-character payload corruption breaks the checksum.
        let tampered = line.replace("0.25", "0.26");
        assert_ne!(tampered, line, "tamper must change the line");
        assert_eq!(open_entry(&tampered, 7), None);

        // Truncation breaks JSON parsing.
        assert_eq!(open_entry(&line[..line.len() / 2], 7), None);

        // A version bump invalidates old entries wholesale.
        let old = line.replace(
            &format!("\"version\":{CACHE_FORMAT_VERSION}"),
            "\"version\":1",
        );
        assert_ne!(old, line, "version field must be present");
        assert_eq!(open_entry(&old, 7), None);
    }

    #[test]
    fn tampered_cache_payload_is_detected_and_recomputed() {
        let cfg = tiny_config(&[ModuleId::B3]);
        let dir = unique_temp_dir("tamper");
        let exec = ExecConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..ExecConfig::default()
        };
        let cold = hammer_one(&cfg, &exec);
        let key = sweep_key(&cfg, ModuleId::B3, "hammer", 0);
        let path = cache_path(&dir, "hammer", ModuleId::B3, key);

        // Flip one payload character without re-sealing: the checksum catches
        // it and the engine recomputes the true result.
        let line = std::fs::read_to_string(&path).unwrap();
        let mut envelope: CacheEnvelope = serde_json::from_str(line.trim()).unwrap();
        let mut sweep: ModuleHammerSweep = serde_json::from_str(&envelope.payload).unwrap();
        sweep.records[0].ber = 0.123_456_789;
        envelope.payload = serde_json::to_string(&sweep).unwrap();
        std::fs::write(&path, serde_json::to_string(&envelope).unwrap()).unwrap();

        let reread = hammer_one(&cfg, &exec);
        assert_ne!(reread.records[0].ber, 0.123_456_789);
        assert_eq!(
            serde_json::to_string(&reread).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "detection must fall back to the true recomputed sweep"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_warns_on_unparsable_jobs_instead_of_silent_fallback() {
        // Env vars and the event sink are process-global; this is the only
        // test in this binary that touches either.
        let sink = std::sync::Arc::new(hammervolt_obs::MemorySink::new());
        hammervolt_obs::set_sink(Some(sink.clone()));
        std::env::set_var("HAMMERVOLT_JOBS", "not-a-number");
        let cfg = ExecConfig::from_env();
        std::env::remove_var("HAMMERVOLT_JOBS");
        // Boolean flags share one rule: `off` is a spelling of off, and an
        // unparsable value warns and means off.
        std::env::set_var("HAMMERVOLT_RESUME", "off");
        let resume_off = ExecConfig::from_env();
        std::env::set_var("HAMMERVOLT_RESUME", "maybe");
        let resume_maybe = ExecConfig::from_env();
        std::env::remove_var("HAMMERVOLT_RESUME");
        hammervolt_obs::set_sink(None);

        assert_eq!(cfg.jobs, 0, "unparsable HAMMERVOLT_JOBS falls back to auto");
        let lines = sink.lines();
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"type\":\"warn\"") && l.contains("HAMMERVOLT_JOBS")),
            "a warn event must be emitted for the bad value: {lines:?}"
        );
        assert!(!resume_off.checkpoints, "HAMMERVOLT_RESUME=off means off");
        assert!(
            !resume_maybe.checkpoints,
            "an unparsable HAMMERVOLT_RESUME means off"
        );
        let resume_warnings = lines
            .iter()
            .filter(|l| l.contains("\"type\":\"warn\"") && l.contains("HAMMERVOLT_RESUME"))
            .count();
        assert_eq!(
            resume_warnings, 1,
            "`maybe` warns and `off` does not: {lines:?}"
        );
    }

    #[test]
    fn trcd_and_retention_are_identical_across_worker_counts() {
        let cfg = tiny_config(&[ModuleId::A0]);
        let ctl = JobControl::new();
        let t1 = trcd_sweeps(&cfg, 3, &ExecConfig::serial(), &ctl).unwrap();
        let t4 = trcd_sweeps(&cfg, 3, &ExecConfig::with_jobs(4), &ctl).unwrap();
        assert_eq!(
            serde_json::to_string(&t1).unwrap(),
            serde_json::to_string(&t4).unwrap()
        );
        let r1 = retention_sweeps(&cfg, &ExecConfig::serial(), &ctl).unwrap();
        let r4 = retention_sweeps(&cfg, &ExecConfig::with_jobs(4), &ctl).unwrap();
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r4).unwrap()
        );
    }
}
