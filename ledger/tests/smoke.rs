//! Drives every workload end to end at tiny size: a one-run session (pass
//! processes plus traced replays), the result line in both modes,
//! and `diff` of a ledger against itself.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_bench-ledger");
const WORKLOADS: [&str; 4] = ["quick_study", "population_fleet", "serve_mix", "spice_mc"];

fn parse(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
}

/// `(end_to_end, per_layer)` metric names from the repository's definition.
fn declared() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"));
    let names = |key: &str| -> Vec<String> {
        let Value::Array(items) = bench.field(key) else {
            panic!("no {key} list");
        };
        items
            .iter()
            .map(|m| match m.field("name") {
                Value::Str(s) => s.clone(),
                other => panic!("metric name {other:?}"),
            })
            .collect()
    };
    (names("end_to_end"), names("per_layer"))
}

fn keys(v: &Value) -> Vec<String> {
    v.as_object()
        .unwrap_or_else(|| panic!("expected an object, got {v:?}"))
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("bench-ledger runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 stdout"),
    )
}

/// A run's last stdout line has exactly the result's four keys and
/// exactly the declared metrics, each with its unit.
fn check_result_line(stdout: &str, names: &[String]) {
    let line = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.field("correct"), &Value::Bool(true), "{stdout}");
    assert_eq!(line.field("failed"), &Value::Int(0));
    assert_eq!(keys(line.field("metrics")), names);
    for name in names {
        let m = line.field("metrics").field(name);
        assert!(
            matches!(m.field("unit"), Value::Str(_)),
            "{name} has no unit"
        );
        assert!(
            matches!(m.field("value"), Value::Float(_) | Value::Int(_)),
            "{name} has no value"
        );
    }
}

#[test]
fn every_workload_runs_traces_and_diffs_clean() {
    let (e2e, layers) = declared();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ledger = dir.join("ledger.json");
    let ledger = ledger.to_str().expect("UTF-8 path");

    let (ok, _) = run(&[
        "run", "--runs", "1", "--size", "tiny", "--seed", "5", "--out", ledger,
    ]);
    assert!(ok, "the session reported a failure");
    let doc = parse(&std::fs::read_to_string(ledger).expect("ledger written"));
    for w in WORKLOADS {
        let entry = doc.field("workloads").field(w);
        // The traced replay reproduced the engine's output.
        assert_eq!(entry.field("traced_correct"), &Value::Bool(true), "{w}");
        assert_eq!(entry.field("failed"), &Value::Int(0), "{w}");
        let mut reported = keys(entry.field("e2e"));
        assert_eq!(reported.pop().as_deref(), Some("failed_ratio"));
        assert_eq!(reported, e2e, "{w}");
        assert_eq!(keys(entry.field("layers")), layers, "{w}");
    }
    // Every declared layer metric is measured by some workload. Outcome
    // counts may read zero at tiny size: ten requests need not overlap in
    // flight, and four Monte-Carlo trials need not fail.
    let outcomes = ["serve.dedup_ratio", "spice.failed_trials"];
    for name in layers.iter().filter(|n| !outcomes.contains(&n.as_str())) {
        let measured = WORKLOADS.iter().any(|w| {
            let v = doc.field("workloads").field(w).field("layers").field(name);
            matches!(v.field("value"), Value::Float(x) if *x != 0.0)
                || matches!(v.field("value"), Value::Int(x) if *x != 0)
        });
        assert!(measured, "no workload measures {name}");
    }

    let (ok, stdout) = run(&["diff", ledger, ledger]);
    assert!(ok, "a ledger regresses against itself:\n{stdout}");
    assert!(!stdout.contains("worse"), "{stdout}");

    let one_run = [
        "--workload",
        "spice_mc",
        "--seed",
        "2",
        "--seconds",
        "0",
        "--size",
        "tiny",
    ];
    let (ok, stdout) = run(&[&one_run[..], &["--trace", "0"]].concat());
    assert!(ok);
    check_result_line(&stdout, &e2e);
    let (ok, stdout) = run(&[&one_run[..], &["--trace", "1"]].concat());
    assert!(ok);
    check_result_line(&stdout, &layers);
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let (ok, stdout) = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(stdout.is_empty());
}
