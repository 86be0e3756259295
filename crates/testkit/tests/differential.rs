//! Differential oracle: the execution engine must produce byte-identical
//! sweep output no matter how it is scheduled or cached.
//!
//! For every sweep kind (RowHammer/Alg. 1, t_RCD/Alg. 2, retention/Alg. 3)
//! four executions are compared: serial, parallel (`--jobs 3`), a cold
//! cache-populating run, and a warm cache-served run. All four must agree
//! to the byte — the same guarantee the root crate's `tests/parallel.rs`
//! checks at smoke scale, here at golden scale as part of the conformance
//! suite.

use hammervolt_core::exec::{retention_sweeps, rowhammer_sweeps, trcd_sweeps, ExecConfig};
use hammervolt_core::job::JobControl;
use hammervolt_obs::MemorySink;
use hammervolt_testkit::{golden_config, FIG07_LEVELS_CAP};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

fn canon<T: Serialize>(sweeps: &[T]) -> String {
    serde_json::to_string(sweeps).expect("serialize")
}

fn temp_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("testkit-diff-{tag}-{}", std::process::id()))
}

/// Runs one sweep kind under all four execution shapes and asserts
/// byte-identity.
fn assert_differential<T, F>(tag: &str, run: F)
where
    T: Serialize,
    F: Fn(&ExecConfig) -> Vec<T>,
{
    let serial = canon(&run(&ExecConfig::serial()));
    let parallel = canon(&run(&ExecConfig::with_jobs(3)));
    assert_eq!(serial, parallel, "{tag}: serial vs --jobs 3 diverged");

    let dir = temp_cache(tag);
    let cached = ExecConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let cold = canon(&run(&cached));
    assert_eq!(serial, cold, "{tag}: serial vs cold-cache diverged");
    let warm = canon(&run(&cached));
    assert_eq!(serial, warm, "{tag}: serial vs warm-cache diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rowhammer_sweeps_are_schedule_and_cache_invariant() {
    let cfg = golden_config();
    assert_differential("hammer", |exec| {
        rowhammer_sweeps(&cfg, exec, &JobControl::new()).expect("hammer sweep")
    });
}

#[test]
fn trcd_sweeps_are_schedule_and_cache_invariant() {
    let cfg = golden_config();
    assert_differential("trcd", |exec| {
        trcd_sweeps(&cfg, FIG07_LEVELS_CAP, exec, &JobControl::new()).expect("trcd sweep")
    });
}

#[test]
fn retention_sweeps_are_schedule_and_cache_invariant() {
    let cfg = golden_config();
    assert_differential("retention", |exec| {
        retention_sweeps(&cfg, exec, &JobControl::new()).expect("retention sweep")
    });
}

/// The observability layer is a pure side channel: running the same
/// parallel sweep with tracing and metrics fully enabled must leave the
/// sweep payload byte-identical, while still producing a well-formed event
/// stream.
///
/// The other differential tests in this binary may run concurrently and
/// will then also emit spans into the shared process-wide sink; that is
/// deliberate — the payload comparison must hold no matter how much
/// instrumentation traffic surrounds the run.
#[test]
fn traced_sweeps_match_untraced_byte_for_byte() {
    let cfg = golden_config();
    let (exec, ctl) = (ExecConfig::with_jobs(3), JobControl::new());
    let plain = canon(&rowhammer_sweeps(&cfg, &exec, &ctl).expect("plain sweep"));

    let sink = Arc::new(MemorySink::new());
    hammervolt_obs::set_sink(Some(sink.clone()));
    hammervolt_obs::set_tracing(true);
    hammervolt_obs::set_metrics(true);
    let traced = canon(&rowhammer_sweeps(&cfg, &exec, &ctl).expect("traced sweep"));
    hammervolt_obs::set_tracing(false);
    hammervolt_obs::set_metrics(false);
    hammervolt_obs::set_sink(None);

    assert_eq!(
        plain, traced,
        "enabling tracing+metrics must not change sweep output"
    );
    let lines = sink.lines();
    assert!(!lines.is_empty(), "a traced sweep must emit events");
    let mut spans = 0usize;
    for line in &lines {
        let v: serde::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad event line {line:?}: {e}"));
        match v.field("type") {
            serde::Value::Str(kind) => {
                if kind == "span" {
                    spans += 1;
                    assert_ne!(
                        v.field("id"),
                        &serde::Value::Null,
                        "span without id: {line}"
                    );
                }
            }
            other => panic!("event without string type ({other:?}): {line}"),
        }
    }
    assert!(spans > 0, "a traced sweep must emit spans");
}

/// Metric scopes are part of the same side-channel contract: running the
/// sweep with metrics on *and* a scope entered (as the study server does per
/// job) must leave the payload byte-identical to a bare run, while the scope
/// itself accumulates the engine's counters.
#[test]
fn scoped_sweeps_match_bare_byte_for_byte() {
    let cfg = golden_config();
    let (exec, ctl) = (ExecConfig::with_jobs(3), JobControl::new());
    let bare = canon(&rowhammer_sweeps(&cfg, &exec, &ctl).expect("bare sweep"));

    let scope = hammervolt_obs::scope::Scope::new(&[("job_id", "diff"), ("tenant", "oracle")]);
    hammervolt_obs::set_metrics(true);
    let scoped = {
        let _guard = hammervolt_obs::scope::enter(&scope);
        canon(&rowhammer_sweeps(&cfg, &exec, &ctl).expect("scoped sweep"))
    };
    hammervolt_obs::set_metrics(false);

    assert_eq!(
        bare, scoped,
        "entering a metric scope must not change sweep output"
    );
    assert!(
        scope.counter_value("exec_units") > 0,
        "the scope must have absorbed the engine's unit counter"
    );
}
