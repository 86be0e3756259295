//! The `population_study` binary's command line: a flag it cannot honour
//! refuses the run with one line naming the flag, and the observability
//! flags every binary shares are accepted beside its own.

use std::process::{Command, Output};

fn population_study(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_population_study"))
        .args(args)
        .env("HAMMERVOLT_JOBS", "1")
        .output()
        .expect("spawn population_study")
}

/// The run exits 2 before measuring anything, with one line on stderr
/// that names `flag`.
fn refused(args: &[&str], flag: &str) {
    let out = population_study(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed a study");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
    assert!(stderr.contains(flag), "{args:?}: stderr {stderr:?}");
}

#[test]
fn rows_beyond_u32_are_refused() {
    // `as u32` used to narrow this to one row per module.
    refused(&["--size", "8", "--rows", "4294967297"], "--rows");
    refused(&["--size", "8", "--rows=-1"], "--rows");
}

#[test]
fn values_that_do_not_parse_are_refused() {
    refused(&["--size", "8", "--batch", "abc"], "--batch");
    refused(&["--size", "8", "--seed", "x"], "--seed");
    refused(&["--size", "8", "--min-batches"], "--min-batches");
    refused(&["--size", "8", "--manifest-out"], "--manifest-out");
    refused(
        &["--size", "8", "--manifest-out", "--metrics"],
        "--manifest-out",
    );
    refused(&["--size", "8", "--manifest-out="], "--manifest-out");
}

#[test]
fn unknown_flags_are_refused() {
    refused(&["--size", "8", "--sizes", "8"], "--sizes");
}

#[test]
fn observability_flags_run_beside_the_study_flags() {
    let out = population_study(&["--size", "8", "--metrics"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr {stderr:?}");
    assert!(
        stdout.starts_with("population study: 8 generated modules"),
        "stdout {stdout:?}"
    );
    assert!(stderr.contains("run metrics"), "stderr {stderr:?}");
}
