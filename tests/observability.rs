//! Integration tests for the observability layer's core contract: tracing,
//! metrics, and the run manifest are a pure *side channel*. Study output
//! must be byte-identical with instrumentation fully enabled, while the
//! emitted spans must faithfully mirror the execution engine's shard
//! structure and the manifest must carry the full counter set.
//!
//! The observability state (flags, sink, registry, manifest tables) is
//! process-wide, so the in-process tests serialize on a lock; the CLI tests
//! exercise separate `hammervolt` processes and need no coordination.

use hammervolt::dram::registry::ModuleId;
use hammervolt::obs;
use hammervolt::obs::MemorySink;
use hammervolt::study::exec::{rowhammer_sweeps, ExecConfig};
use hammervolt::study::job::JobControl;
use hammervolt::study::study::StudyConfig;
use serde::Value;
use std::process::Command;
use std::sync::{Arc, Mutex};

/// Serializes the in-process tests: they flip process-wide obs state.
static OBS_TEST_LOCK: Mutex<()> = Mutex::new(());

fn tiny(modules: &[ModuleId]) -> StudyConfig {
    StudyConfig {
        rows_per_chunk: 2,
        ..StudyConfig::quick_subset(modules)
    }
}

fn canon<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parses every sink line, returning the JSON values.
fn parse_events(lines: &[String]) -> Vec<Value> {
    lines
        .iter()
        .map(|l| {
            serde_json::from_str::<Value>(l)
                .unwrap_or_else(|e| panic!("trace line is not JSON ({e}): {l}"))
        })
        .collect()
}

/// Tracing and metrics fully on must not change the sweep payload by a
/// single byte, and the span stream must mirror the engine's
/// (module, bank, chunk) shard structure: one `exec.sweep` root, one
/// `exec.shard` child per work unit, and every Alg. 1 span parented inside
/// a shard.
#[test]
fn traced_sweep_is_byte_identical_and_spans_mirror_shards() {
    let _guard = OBS_TEST_LOCK.lock().unwrap();
    let cfg = tiny(&[ModuleId::A0, ModuleId::B3]);
    let exec = ExecConfig::with_jobs(3);
    let plain = canon(&rowhammer_sweeps(&cfg, &exec, &JobControl::new()).expect("plain sweep"));

    obs::metrics::reset();
    obs::manifest::reset();
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(Some(sink.clone()));
    obs::set_tracing(true);
    obs::set_metrics(true);
    let traced = canon(&rowhammer_sweeps(&cfg, &exec, &JobControl::new()).expect("traced sweep"));
    obs::set_tracing(false);
    obs::set_metrics(false);
    obs::set_sink(None);

    assert_eq!(
        plain, traced,
        "tracing+metrics must not perturb sweep output"
    );

    let units = obs::metrics::counter_value("exec_units");
    assert!(units > 0, "the sweep must count its work units");
    assert_eq!(
        obs::metrics::counter_value("exec_modules"),
        cfg.modules.len() as u64
    );

    let events = parse_events(&sink.lines());
    let spans: Vec<&Value> = events
        .iter()
        .filter(|v| as_str(v.field("type")) == Some("span"))
        .collect();

    // Ids are unique; parents reference real spans (or 0 for roots).
    let mut ids: Vec<u64> = spans
        .iter()
        .map(|s| as_u64(s.field("id")).expect("span id"))
        .collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "span ids must be unique");
    for s in &spans {
        let parent = as_u64(s.field("parent")).expect("span parent");
        assert!(
            parent == 0 || ids.binary_search(&parent).is_ok(),
            "span parent {parent} not in the stream"
        );
    }

    // Exactly one sweep root for this run, with the hammer kind.
    let sweep_roots: Vec<&&Value> = spans
        .iter()
        .filter(|s| as_str(s.field("name")) == Some("exec.sweep"))
        .collect();
    assert_eq!(sweep_roots.len(), 1, "one sweep, one exec.sweep span");
    let root = sweep_roots[0];
    assert_eq!(as_str(root.field("kind")), Some("hammer"));
    assert_eq!(as_u64(root.field("parent")), Some(0));
    assert_eq!(
        as_u64(root.field("modules")),
        Some(cfg.modules.len() as u64)
    );
    let root_id = as_u64(root.field("id")).unwrap();

    // One shard span per work unit, every one a child of the sweep root,
    // each naming its module, bank, chunk, and row count.
    let shards: Vec<&&Value> = spans
        .iter()
        .filter(|s| as_str(s.field("name")) == Some("exec.shard"))
        .collect();
    assert_eq!(
        shards.len() as u64,
        units,
        "span stream must contain one exec.shard per work unit"
    );
    let mut shard_ids = Vec::new();
    for s in &shards {
        assert_eq!(as_u64(s.field("parent")), Some(root_id));
        let module = as_str(s.field("module")).expect("shard module");
        assert!(
            cfg.modules.iter().any(|m| m.label() == module),
            "shard names unknown module {module}"
        );
        assert_eq!(as_u64(s.field("bank")), Some(u64::from(cfg.bank)));
        assert!(as_u64(s.field("chunk")).is_some());
        assert!(as_u64(s.field("rows")).unwrap() > 0);
        shard_ids.push(as_u64(s.field("id")).unwrap());
    }
    shard_ids.sort_unstable();

    // Alg. 1 rows nest inside shards (cross-thread parenting works).
    let rows: Vec<&&Value> = spans
        .iter()
        .filter(|s| as_str(s.field("name")) == Some("alg1.measure_row"))
        .collect();
    assert!(!rows.is_empty(), "hammer sweep must trace alg1.measure_row");
    for r in &rows {
        let parent = as_u64(r.field("parent")).unwrap();
        assert!(
            shard_ids.binary_search(&parent).is_ok(),
            "alg1.measure_row must be parented under an exec.shard span"
        );
    }
}

/// A metrics-enabled sweep produces a manifest whose deterministic subset
/// carries the config hash and the full counter set — at least ten
/// counters, including the cache and SoftMC command-mix families — plus
/// a per-phase wall-time table.
#[test]
fn manifest_carries_counters_phases_and_config_hash() {
    let _guard = OBS_TEST_LOCK.lock().unwrap();
    let cfg = tiny(&[ModuleId::C5]);
    obs::metrics::reset();
    obs::manifest::reset();
    obs::set_metrics(true);
    rowhammer_sweeps(&cfg, &ExecConfig::serial(), &JobControl::new()).expect("sweep");
    let stable = obs::manifest::stable_subset_json();
    let full = obs::manifest::build_manifest("obs-test", 1, "");
    obs::set_metrics(false);
    obs::manifest::reset();

    let v: Value = serde_json::from_str(&stable).expect("stable subset parses");
    let hash = as_str(v.field("config_hash")).expect("config_hash");
    assert_eq!(hash.len(), 16, "config hash is 16 hex digits: {hash:?}");
    assert!(hash.chars().all(|c| c.is_ascii_hexdigit()));

    let counters = v.field("counters").as_object().expect("counters object");
    assert!(
        counters.len() >= 10,
        "expected at least 10 counters, got {}: {stable}",
        counters.len()
    );
    for required in [
        "cache_hits",
        "cache_misses",
        "cache_corrupt_recovered",
        "exec_modules",
        "exec_units",
        "alg1_rows",
        "softmc_programs",
        "softmc_act",
        "softmc_pre",
        "softmc_rd",
        "softmc_wr",
        "dram_disturb_events",
    ] {
        assert!(
            counters.iter().any(|(k, _)| k == required),
            "counter {required} missing from manifest: {stable}"
        );
    }
    // The sweep really did issue commands: the mix is non-trivial.
    let get = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| as_u64(v))
            .unwrap()
    };
    assert!(get("softmc_act") > 0);
    assert!(get("softmc_rd") > 0);
    assert!(get("alg1_rows") > 0);

    let fv: Value = serde_json::from_str(&full).expect("full manifest parses");
    assert_eq!(as_u64(fv.field("schema")), Some(1));
    let phases = fv.field("phases").as_object().expect("phases object");
    assert!(
        phases.iter().any(|(k, _)| k == "sweep:hammer"),
        "manifest must record the sweep:hammer phase: {full}"
    );
    assert!(
        fv.field("histograms").as_object().is_some(),
        "manifest must carry histogram snapshots"
    );
}

fn run_cli(args: &[&str], extra_env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hammervolt"));
    cmd.args(args)
        .env("HAMMERVOLT_SCALE", "smoke")
        .env("HAMMERVOLT_ROWS", "2")
        .env_remove("HAMMERVOLT_CACHE_DIR")
        .env_remove("HAMMERVOLT_JOBS")
        .env_remove("HAMMERVOLT_TRACE_OUT")
        .env_remove("HAMMERVOLT_MANIFEST_OUT")
        .env_remove("HAMMERVOLT_METRICS")
        .env_remove("HAMMERVOLT_PROGRESS");
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    cmd.output().expect("run hammervolt")
}

/// End-to-end through the real binary: `--trace-out`/`--manifest-out`/
/// `--metrics` leave stdout byte-identical, write a schema-valid trace and
/// manifest, and print the counter summary on stderr.
#[test]
fn cli_trace_and_manifest_leave_stdout_byte_identical() {
    let dir = std::env::temp_dir().join(format!("hammervolt-obs-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let manifest = dir.join("manifest.json");

    let plain = run_cli(&["sweep", "--jobs", "2", "B3"], &[]);
    assert!(plain.status.success(), "plain run failed: {plain:?}");
    assert!(!plain.stdout.is_empty());

    let traced = run_cli(
        &[
            "sweep",
            "--jobs",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--manifest-out",
            manifest.to_str().unwrap(),
            "--metrics",
            "B3",
        ],
        &[],
    );
    assert!(traced.status.success(), "traced run failed: {traced:?}");
    assert_eq!(
        plain.stdout, traced.stdout,
        "observability flags must not change the record stream"
    );
    let stderr = String::from_utf8_lossy(&traced.stderr);
    assert!(
        stderr.contains("run metrics"),
        "--metrics must print a counter summary, got: {stderr}"
    );

    // The trace: every line JSON with a type, at least one span, exactly
    // one trailing manifest event.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let events = parse_events(&lines);
    let mut span_count = 0usize;
    let mut manifest_count = 0usize;
    for v in &events {
        match as_str(v.field("type")).expect("event type") {
            "span" => span_count += 1,
            "manifest" => manifest_count += 1,
            "warn" => {}
            other => panic!("unexpected event type {other:?}"),
        }
    }
    assert!(span_count > 0, "trace must contain spans");
    assert_eq!(manifest_count, 1, "trace ends with one manifest event");
    assert_eq!(
        as_str(events.last().unwrap().field("type")),
        Some("manifest"),
        "manifest event must be the final line"
    );

    // The manifest file: schema-valid with the counter floor.
    let mtext = std::fs::read_to_string(&manifest).expect("manifest written");
    let mv: Value = serde_json::from_str(mtext.trim()).expect("manifest parses");
    assert_eq!(as_u64(mv.field("schema")), Some(1));
    assert_eq!(as_str(mv.field("bin")), Some("hammervolt"));
    assert!(as_u64(mv.field("wall_us")).unwrap() > 0);
    let counters = mv.field("counters").as_object().expect("counters");
    assert!(counters.len() >= 10, "manifest counter floor: {mtext}");
    let phases = mv.field("phases").as_object().expect("phases");
    assert!(
        phases.iter().any(|(k, _)| k == "sweep:hammer") && phases.iter().any(|(k, _)| k == "emit"),
        "manifest must time the sweep and emit phases: {mtext}"
    );

    // The embedded manifest event matches the file's deterministic core.
    let embedded = events.last().unwrap().field("data");
    assert_eq!(embedded.field("counters"), mv.field("counters"));
    assert_eq!(
        embedded.field("annotations").field("config_hash"),
        mv.field("annotations").field("config_hash")
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--trace-out` without a path refuses the run with one line naming the
/// flag: a following flag is not a path, so `list --trace-out --metrics`
/// must not write a trace file named `--metrics`.
#[test]
fn cli_refuses_a_trace_out_without_a_path() {
    let dir = std::env::temp_dir().join(format!("hammervolt-obs-noval-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["list", "--trace-out", "--metrics"][..],
        &["list", "--trace-out"],
        &["list", "--trace-out="],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hammervolt"))
            .args(args)
            .current_dir(&dir)
            .env_remove("HAMMERVOLT_TRACE_OUT")
            .env_remove("HAMMERVOLT_MANIFEST_OUT")
            .output()
            .expect("run hammervolt");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran the command");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
        assert!(
            stderr.contains("--trace-out"),
            "{args:?}: stderr {stderr:?}"
        );
    }
    assert!(
        !dir.join("--metrics").exists(),
        "the next flag was taken as the trace path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bad `HAMMERVOLT_JOBS` must warn on stderr and fall back to auto — not
/// silently swallow the typo (the pre-observability behavior).
#[test]
fn cli_warns_on_unparsable_jobs_env() {
    let out = run_cli(&["sweep", "B3"], &[("HAMMERVOLT_JOBS", "three")]);
    assert!(out.status.success(), "run must still succeed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("HAMMERVOLT_JOBS") && stderr.contains("warning"),
        "expected a warning about HAMMERVOLT_JOBS, got: {stderr}"
    );

    // And the fallback run still produces the exact same records.
    let clean = run_cli(&["sweep", "B3"], &[]);
    assert_eq!(out.stdout, clean.stdout);
}
