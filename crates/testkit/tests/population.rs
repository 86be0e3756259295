//! Conformance for population studies (`hammervolt_core::population`):
//! generated-fleet runs must be byte-identical at any worker count —
//! *including* the adaptive stopping batch — warm resubmissions must be
//! served from the population cache without re-executing, and a cancelled
//! run must resume from batch checkpoints re-running only unfinished
//! batches.

use hammervolt_core::error::StudyError;
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobControl, JobSpec};
use hammervolt_core::population::{PopulationConfig, PopulationSummary};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("testkit-pop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fleet whose stopping rule converges well before exhaustion (the smoke
/// config measures ~1 % of a 10,000-module fleet), so the tests exercise
/// the adaptive stop, not fleet exhaustion.
fn fleet_spec() -> JobSpec {
    JobSpec::population(PopulationConfig::smoke(10_000, 1))
}

/// Parses the payload's final line as the run summary.
fn summary_of(records_jsonl: &str) -> PopulationSummary {
    let last = records_jsonl.lines().last().expect("payload has lines");
    serde_json::from_str(last).expect("last line is the summary")
}

/// A 96-module fleet whose `min_batches` is its whole length (12 batches
/// of 8): every batch is measured before the stop rule may end the run, so
/// the whole fleet runs through the windows that measure batches without a
/// join between them.
fn prefix_fleet_spec() -> JobSpec {
    let mut config = PopulationConfig::smoke(96, 1);
    config.stopping.min_batches = 12;
    JobSpec::population(config)
}

#[test]
fn byte_identical_across_worker_counts_including_stopping_batch() {
    let early_stop = fleet_spec();
    let whole_prefix = prefix_fleet_spec();
    for (spec, stops_early) in [(early_stop, true), (whole_prefix, false)] {
        let reference = spec
            .run(&ExecConfig::serial(), &JobControl::new())
            .expect("serial run succeeds");
        let reference_summary = summary_of(&reference.records_jsonl);
        if stops_early {
            assert!(
                reference_summary.converged,
                "the fleet spec must stop on convergence, not exhaustion"
            );
            assert!(
                reference_summary.measured < reference_summary.size,
                "adaptive stop must leave most of the fleet unmeasured"
            );
        } else {
            assert_eq!(reference_summary.stopped_at_batch, 12);
            assert_eq!(reference_summary.measured, 96);
        }
        for jobs in [2, 8] {
            let out = spec
                .run(&ExecConfig::with_jobs(jobs), &JobControl::new())
                .unwrap_or_else(|e| panic!("jobs={jobs} run failed: {e}"));
            assert_eq!(
                out.records_jsonl, reference.records_jsonl,
                "jobs={jobs} payload diverged from the serial reference"
            );
            assert_eq!(
                summary_of(&out.records_jsonl).stopped_at_batch,
                reference_summary.stopped_at_batch,
                "jobs={jobs} stopped at a different batch"
            );
        }
    }
}

#[test]
fn warm_resubmission_is_served_from_population_cache() {
    let dir = temp_dir("warm");
    let exec = ExecConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let spec = fleet_spec();

    let cold_ctl = JobControl::new();
    let cold = spec.run(&exec, &cold_ctl).expect("cold run succeeds");
    let cold_snap = cold_ctl.snapshot();
    assert_eq!(cold_snap.cache_hits, 0);
    assert_eq!(cold_snap.cache_misses, 1, "one population, one cold miss");
    assert!(cold_snap.units_executed > 0);

    let warm_ctl = JobControl::new();
    let warm = spec.run(&exec, &warm_ctl).expect("warm run succeeds");
    let warm_snap = warm_ctl.snapshot();
    assert_eq!(
        warm.records_jsonl, cold.records_jsonl,
        "warm result must be byte-identical to the cold compute"
    );
    assert_eq!(
        warm_snap.cache_hits, 1,
        "warm run hits the population cache"
    );
    assert_eq!(
        warm_snap.units_executed, 0,
        "a cache hit must not re-execute any batch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// At one worker and at two: the batches before `min_batches` are measured
/// in windows without a join between batches, so a window's batches must
/// still be restorable one by one.
#[test]
fn cancelled_population_resumes_from_batch_checkpoints() {
    for jobs in [1, 2] {
        cancel_then_resume(jobs);
    }
}

fn cancel_then_resume(jobs: usize) {
    let dir = temp_dir(&format!("resume-j{jobs}"));
    let exec = ExecConfig {
        jobs,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    }
    .with_checkpoints(true);
    let spec = fleet_spec();

    // Cancel as soon as the first batch completes. A batch is sealed as its
    // checkpoint just before it counts as done, and cooperative cancellation
    // lets in-flight modules finish but seals no batch whose modules did not
    // all finish, so exactly `units_done` batches are restorable.
    let ctl = JobControl::new();
    let stop_watching = Arc::new(AtomicBool::new(false));
    let watcher = {
        let ctl = ctl.clone();
        let stop = Arc::clone(&stop_watching);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if ctl.snapshot().units_done >= 1 {
                    ctl.cancel.cancel();
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };
    let result = spec.run(&exec, &ctl);
    stop_watching.store(true, Ordering::Relaxed);
    watcher.join().expect("watcher completes");
    assert!(
        matches!(result, Err(StudyError::Cancelled)),
        "jobs={jobs}: expected Cancelled, got {result:?}"
    );
    let cancelled = ctl.snapshot();
    assert!(cancelled.units_done >= 1, "at least one batch finished");

    // Resume: only the unfinished batches may re-execute.
    let resume_ctl = JobControl::new();
    let resumed = spec.run(&exec, &resume_ctl).expect("resume succeeds");
    let snap = resume_ctl.snapshot();
    assert_eq!(
        snap.checkpoint_hits, cancelled.units_done,
        "jobs={jobs}: every finished batch must be restored from its checkpoint"
    );
    let clean = spec
        .run(&ExecConfig::serial(), &JobControl::new())
        .expect("clean run succeeds");
    assert_eq!(
        resumed.records_jsonl, clean.records_jsonl,
        "jobs={jobs}: resumed result must be byte-identical to a clean run"
    );
    let stopping_batches = summary_of(&clean.records_jsonl).stopped_at_batch;
    assert!(
        cancelled.units_done < stopping_batches,
        "cancellation must land before the adaptive stop ({}/{stopping_batches})",
        cancelled.units_done,
    );
    assert_eq!(
        snap.units_executed,
        stopping_batches - cancelled.units_done,
        "jobs={jobs}: only unfinished batches may re-execute"
    );

    // The population-level entry landed, so the now-redundant batch
    // checkpoints were swept away.
    let leftover_ckpts = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .count();
    assert_eq!(
        leftover_ckpts, 0,
        "batch checkpoints must be cleared once the population entry lands"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
