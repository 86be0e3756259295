//! Concurrency and resumability conformance for the job abstraction
//! (`hammervolt_core::job`): overlapping concurrent jobs must be
//! byte-identical to serial runs, warm resubmissions must be served from the
//! sweep cache without re-executing, and cancelled jobs must resume from
//! chunk checkpoints re-running only unfinished units — with no torn cache
//! entries left behind at any point.

use hammervolt_core::error::StudyError;
use hammervolt_core::exec::{self, ExecConfig};
use hammervolt_core::job::{JobControl, JobSpec, SweepKind};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;
use hammervolt_obs::EventSink;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::ThreadId;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("testkit-jobs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but multi-unit spec: one module, two-row chunks.
fn small_spec(module: ModuleId) -> JobSpec {
    JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk: 2,
            modules: vec![module],
            ..StudyConfig::smoke()
        },
    }
}

/// Every file in a cache directory must be a complete, sealed,
/// self-consistent envelope — never a torn write, whatever interruption or
/// concurrency produced it — and no temp files may be left behind.
fn assert_no_torn_entries(dir: &PathBuf) {
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(
            !name.contains(".tmp."),
            "temp file left behind in cache dir: {name}"
        );
        let text = std::fs::read_to_string(&path).expect("entry is readable");
        let line = text.lines().next().expect("entry has a line");
        let envelope: exec::CacheEnvelope =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("{name} is torn: {e}"));
        let key = u64::from_str_radix(&envelope.key, 16).expect("hex key");
        assert!(
            exec::open_entry(line, key).is_some(),
            "{name} fails its own checksum — torn or corrupt entry"
        );
        checked += 1;
    }
    assert!(checked > 0, "expected cache entries to inspect");
}

#[test]
fn warm_resubmission_is_served_from_cache_without_reexecuting() {
    let dir = temp_dir("warm");
    let exec = ExecConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let spec = small_spec(ModuleId::B3);

    let cold_ctl = JobControl::new();
    let cold = spec.run(&exec, &cold_ctl).expect("cold run succeeds");
    let cold_snap = cold_ctl.snapshot();
    assert_eq!(cold_snap.cache_hits, 0);
    assert_eq!(cold_snap.cache_misses, 1, "one module, one cold miss");
    assert!(cold_snap.units_executed > 0);
    assert_eq!(cold_snap.units_executed, cold_snap.units_total);

    let warm_ctl = JobControl::new();
    let warm = spec.run(&exec, &warm_ctl).expect("warm run succeeds");
    let warm_snap = warm_ctl.snapshot();
    assert_eq!(
        warm.records_jsonl, cold.records_jsonl,
        "warm result must be byte-identical to the cold compute"
    );
    assert_eq!(warm_snap.cache_hits, 1, "warm run hits the sweep cache");
    assert_eq!(
        warm_snap.units_executed, 0,
        "a cache hit must not re-execute any unit"
    );

    assert_no_torn_entries(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_overlapping_jobs_match_serial_execution_bytes() {
    // Serial reference: each spec run alone, no cache.
    let specs = [small_spec(ModuleId::B3), small_spec(ModuleId::B0)];
    let serial: Vec<String> = specs
        .iter()
        .map(|s| {
            s.run(&ExecConfig::serial(), &JobControl::new())
                .expect("serial run succeeds")
                .records_jsonl
        })
        .collect();

    // Concurrent: four threads, two per spec, all sharing one cache dir —
    // overlapping submissions racing on the same entries.
    let dir = temp_dir("concurrent");
    let exec = ExecConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let spec = specs[i % 2].clone();
            let exec = exec.clone();
            std::thread::spawn(move || {
                (
                    i % 2,
                    spec.run(&exec, &JobControl::new())
                        .expect("concurrent run succeeds")
                        .records_jsonl,
                )
            })
        })
        .collect();
    for handle in handles {
        let (which, records) = handle.join().expect("thread completes");
        assert_eq!(
            records, serial[which],
            "concurrent result diverged from the serial reference"
        );
    }
    assert_no_torn_entries(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fires a job's cancel token when the thread that runs the job closes its
/// first `exec.shard` span, which it does once that unit has finished.
/// Spans from other threads (the tests running alongside) are ignored.
struct CancelAfterFirstUnit {
    thread: ThreadId,
    ctl: JobControl,
}

impl EventSink for CancelAfterFirstUnit {
    fn emit(&self, line: &str) {
        if std::thread::current().id() == self.thread && line.contains(r#""name":"exec.shard""#) {
            self.ctl.cancel.cancel();
        }
    }
}

#[test]
fn cancelled_job_resumes_from_chunk_checkpoints() {
    let dir = temp_dir("resume");
    let exec = ExecConfig {
        jobs: 1, // units run on this thread, which checks the token before each
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    }
    .with_checkpoints(true);
    let spec = small_spec(ModuleId::B3);

    // Cancel as soon as the first unit completes; cooperative cancellation
    // lets in-flight units finish (so checkpoints never tear) and skips the
    // rest. Tracing is on for this run only, so its spans reach the sink.
    let ctl = JobControl::new();
    hammervolt_obs::set_sink(Some(Arc::new(CancelAfterFirstUnit {
        thread: std::thread::current().id(),
        ctl: ctl.clone(),
    })));
    hammervolt_obs::set_tracing(true);
    let result = spec.run(&exec, &ctl);
    hammervolt_obs::set_tracing(false);
    hammervolt_obs::set_sink(None);
    assert!(
        matches!(result, Err(StudyError::Cancelled)),
        "expected Cancelled, got {result:?}"
    );
    let cancelled = ctl.snapshot();
    assert_eq!(
        cancelled.units_done, 1,
        "the sweep stops after its first unit"
    );
    assert!(
        cancelled.units_done < cancelled.units_total,
        "cancellation must land before the sweep finished (finished {}/{})",
        cancelled.units_done,
        cancelled.units_total,
    );
    // Mid-sweep interruption leaves only complete, sealed entries.
    assert_no_torn_entries(&dir);

    // Resume: the same spec re-runs only the unfinished chunks.
    let resume_ctl = JobControl::new();
    let resumed = spec.run(&exec, &resume_ctl).expect("resume succeeds");
    let snap = resume_ctl.snapshot();
    assert_eq!(
        snap.checkpoint_hits, cancelled.units_done,
        "every finished chunk must be restored from its checkpoint"
    );
    assert_eq!(
        snap.units_executed,
        snap.units_total - cancelled.units_done,
        "only unfinished chunks may re-execute"
    );

    // And the stitched-together result is byte-identical to a clean run.
    let clean = spec
        .run(&ExecConfig::serial(), &JobControl::new())
        .expect("clean run succeeds");
    assert_eq!(resumed.records_jsonl, clean.records_jsonl);

    // The sweep-level entry landed, so the now-redundant chunk checkpoints
    // were swept away.
    let leftover_ckpts = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .count();
    assert_eq!(
        leftover_ckpts, 0,
        "chunk checkpoints must be cleared once the module entry lands"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_before_start_executes_nothing() {
    let ctl = JobControl::new();
    ctl.cancel.cancel();
    let result = small_spec(ModuleId::B3).run(&ExecConfig::serial(), &ctl);
    assert!(matches!(result, Err(StudyError::Cancelled)));
    assert_eq!(ctl.snapshot().units_executed, 0);
}
