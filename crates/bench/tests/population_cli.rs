//! The `population_study` binary's command line: a flag it cannot honour
//! refuses the run with one line naming the flag, and the observability
//! flags every binary shares are accepted beside its own. Its stdout is
//! the harnesses' shared writer: a reader that closes it early ends the
//! run quietly, and any other failed write in one line.

use std::fs::File;
use std::process::{Command, Output, Stdio};

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

/// A run of `--size 8` whose stdout is `stdout`.
fn population_study_into(stdout: impl Into<Stdio>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_population_study"))
        .args(["--size", "8"])
        .env("HAMMERVOLT_JOBS", "1")
        .stdout(stdout)
        .output()
        .expect("spawn population_study")
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // `population_study --size 8 | head -n 1` used to panic with
    // "failed printing to stdout: Broken pipe" and exit 101.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = population_study_into(writer);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr {stderr:?}");
    assert!(stderr.is_empty(), "stderr {stderr:?}");
}

#[test]
fn a_failed_stdout_is_reported_in_one_line() {
    let full = File::options()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = population_study_into(full);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr:?}");
    assert_eq!(
        stderr, "population_study: cannot write to stdout: no storage space\n",
        "stderr {stderr:?}"
    );
}
