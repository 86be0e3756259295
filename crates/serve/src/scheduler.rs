//! The threaded job scheduler: worker threads driving the deterministic
//! [`Core`] over real [`JobSpec`] executions.
//!
//! Threading is a thin shell — every scheduling decision is delegated to the
//! [`Core`] state machine under one mutex, with a logical tick counter as its
//! clock, so the concurrent scheduler inherits the core's tested fairness,
//! bounding, dedup, and stealing behavior. Workers block on a condvar when
//! idle and are woken by submissions and shutdown.
//!
//! Execution itself happens *outside* the lock: a worker claims a job,
//! releases the mutex, runs [`JobSpec::run`] under the job's [`JobControl`],
//! then re-locks to record the outcome and wake waiters. A job that panics
//! fails alone, as `Failed("panic: …")`: the worker catches the unwind,
//! records it like any other outcome and takes the next job. Cancellation fires
//! the running job's token; the engine returns [`StudyError::Cancelled`] at
//! the next unit boundary and (with checkpoints enabled) the finished chunks
//! stay on disk for the next submission of the same spec to resume from.

use crate::sched::{CancelOutcome, Core, JobId, SchedConfig, SubmitOutcome};
use hammervolt_core::error::StudyError;
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobControl, JobOutput, JobSpec, ProgressSnapshot};
use hammervolt_obs::scope::Scope;
use hammervolt_obs::{counter_add, histogram_record, metrics};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity.
    QueueFull,
    /// The scheduler is shutting down.
    ShuttingDown,
}

/// A job's externally visible lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPhase {
    /// Waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished successfully; the output is available.
    Done,
    /// Finished with an engine error (message attached).
    Failed(String),
    /// Cancelled before completion.
    Cancelled,
}

impl JobPhase {
    /// Whether the job has reached a terminal state.
    pub fn is_settled(&self) -> bool {
        !matches!(self, JobPhase::Queued | JobPhase::Running)
    }

    /// Short lowercase label for API payloads.
    pub fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed(_) => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// A point-in-time external view of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// The job's scheduler id.
    pub id: JobId,
    /// The job's content hash (shared by deduped submitters).
    pub spec_hash: u64,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Progress counters (all zeros until the job starts).
    pub progress: ProgressSnapshot,
    /// How many submissions share this execution (1 + dedup hits).
    pub subscribers: u64,
    /// The submitting request's id (empty for jobs submitted without one).
    pub request_id: String,
    /// The job's scoped counter snapshot, name-sorted: every `obs` counter
    /// the engine ticked while executing *this* job — empty until it runs,
    /// or when metrics are disabled process-wide.
    pub metrics: Vec<(String, u64)>,
}

/// Scheduler-level numbers for `/stats`: the deterministic state the core
/// tracks, read under the same lock submissions take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Queued (not yet claimed) jobs across all deques.
    pub queue_depth: usize,
    /// Jobs claimed by workers but not yet completed.
    pub in_flight: usize,
    /// Each worker deque's queued length, by worker index.
    pub deque_lens: Vec<usize>,
    /// Jobs claimed per tenant over the scheduler's lifetime, name-sorted.
    pub tenants_served: Vec<(String, u64)>,
}

struct JobRecord {
    spec: JobSpec,
    spec_hash: u64,
    ctl: JobControl,
    phase: JobPhase,
    output: Option<JobOutput>,
    subscribers: u64,
    /// The submitting request's id (propagated into `x-request-id`-rooted
    /// span trees and the job view).
    request_id: String,
    /// The job's metric scope; held here so its series stays visible to
    /// `/metrics` for as long as the job record is retained.
    scope: Arc<Scope>,
    /// When the job entered the queue (queue-wait histogram).
    queued_at: Instant,
}

impl JobRecord {
    fn view(&self, id: JobId) -> JobView {
        JobView {
            id,
            spec_hash: self.spec_hash,
            phase: self.phase.clone(),
            progress: self.ctl.snapshot(),
            subscribers: self.subscribers,
            request_id: self.request_id.clone(),
            metrics: self.scope.counters_snapshot(),
        }
    }
}

struct Shared {
    core: Mutex<Inner>,
    /// Woken on submissions (workers) and on any job settling (waiters).
    changed: Condvar,
    exec: ExecConfig,
    tick: AtomicU64,
}

struct Inner {
    core: Core,
    jobs: BTreeMap<JobId, JobRecord>,
    shutdown: bool,
}

/// The multi-tenant job scheduler. Create with [`Scheduler::start`], stop
/// with [`Scheduler::shutdown`] (also invoked on drop).
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Starts `config.workers` worker threads executing jobs under `exec`
    /// (shared cache dir, per-job worker count, checkpoint policy).
    pub fn start(config: SchedConfig, exec: ExecConfig) -> Self {
        let shared = Arc::new(Shared {
            core: Mutex::new(Inner {
                core: Core::new(config.clone()),
                jobs: BTreeMap::new(),
                shutdown: false,
            }),
            changed: Condvar::new(),
            exec,
            tick: AtomicU64::new(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hv-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler { shared, workers }
    }

    fn now(&self) -> u64 {
        self.shared.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Submits a spec for `tenant`. Identical in-flight specs dedup onto the
    /// existing job (its id is returned and its subscriber count grows).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the queue is at capacity;
    /// [`SubmitError::ShuttingDown`] after [`Scheduler::shutdown`] began.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_with(tenant, spec, "", 0)
    }

    /// [`Scheduler::submit`] carrying the submitter's observability context:
    /// `request_id` is recorded on the job (and echoed in views), and
    /// `trace_parent` — the submitting request's span id, `0` for none —
    /// becomes the parent of the job's root span, so one job's spans form a
    /// single tree from socket to shard.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::submit`].
    pub fn submit_with(
        &self,
        tenant: &str,
        spec: JobSpec,
        request_id: &str,
        trace_parent: u64,
    ) -> Result<JobId, SubmitError> {
        let spec_hash = spec.spec_hash();
        let now = self.now();
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let id = match inner.core.submit(tenant, spec_hash, now) {
            SubmitOutcome::Rejected => return Err(SubmitError::QueueFull),
            SubmitOutcome::Deduped(id) => {
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.subscribers += 1;
                }
                id
            }
            SubmitOutcome::Queued(id) => {
                // One metric scope per job: the engine's counters attribute
                // to it while this job (and only this job) executes, however
                // many fork-join workers the run fans out over.
                let scope = Scope::new(&[
                    ("job_id", id.to_string().as_str()),
                    ("tenant", tenant),
                    ("sweep_kind", spec.kind.label()),
                ]);
                let ctl = JobControl::new()
                    .with_trace_parent(trace_parent)
                    .with_scope(Arc::clone(&scope));
                inner.jobs.insert(
                    id,
                    JobRecord {
                        spec,
                        spec_hash,
                        ctl,
                        phase: JobPhase::Queued,
                        output: None,
                        subscribers: 1,
                        request_id: request_id.to_string(),
                        scope,
                        queued_at: Instant::now(),
                    },
                );
                id
            }
        };
        refresh_gauges(&inner.core);
        drop(inner);
        self.shared.changed.notify_all();
        Ok(id)
    }

    /// A snapshot of one job, or `None` for an unknown id.
    pub fn view(&self, id: JobId) -> Option<JobView> {
        let inner = self.shared.core.lock().expect("scheduler poisoned");
        inner.jobs.get(&id).map(|rec| rec.view(id))
    }

    /// Scheduler-level numbers for `/stats`, read under the scheduling lock.
    pub fn stats(&self) -> SchedStats {
        let inner = self.shared.core.lock().expect("scheduler poisoned");
        SchedStats {
            queue_depth: inner.core.queued_len(),
            in_flight: inner.core.running_len(),
            deque_lens: inner.core.deque_lens(),
            tenants_served: inner.core.tenants_served(),
        }
    }

    /// Blocks until the job settles (or `timeout` elapses), then returns its
    /// final view plus output when done. `None` for an unknown id;
    /// `Some((view, None))` on timeout or non-`Done` terminal states.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<(JobView, Option<JobOutput>)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        loop {
            let settled = match inner.jobs.get(&id) {
                None => return None,
                Some(rec) => rec.phase.is_settled(),
            };
            if settled {
                break;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _timeout) = self
                .shared
                .changed
                .wait_timeout(inner, left)
                .expect("scheduler poisoned");
            inner = guard;
        }
        inner
            .jobs
            .get(&id)
            .map(|rec| (rec.view(id), rec.output.clone()))
    }

    /// Requests cancellation. Queued jobs settle as `Cancelled` immediately;
    /// running jobs get their token fired and settle once the engine unwinds
    /// (cooperatively, at the next unit boundary). Returns `false` for an
    /// unknown id.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        match inner.core.cancel(id) {
            CancelOutcome::Unknown => false,
            CancelOutcome::Settled => true,
            CancelOutcome::WasQueued => {
                if let Some(rec) = inner.jobs.get_mut(&id) {
                    rec.phase = JobPhase::Cancelled;
                }
                drop(inner);
                self.shared.changed.notify_all();
                true
            }
            CancelOutcome::WasRunning(_) => {
                if let Some(rec) = inner.jobs.get(&id) {
                    rec.ctl.cancel.cancel();
                }
                true
            }
        }
    }

    /// Stops accepting work, drains running jobs, and joins the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut inner = self.shared.core.lock().expect("scheduler poisoned");
        inner.shutdown = true;
        drop(inner);
        self.shared.changed.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Re-publishes the scheduler gauges from the core's current state. Called
/// under the scheduling lock after every mutation; a no-op when metrics are
/// off so the hot path stays untouched in bare runs.
fn refresh_gauges(core: &Core) {
    if !hammervolt_obs::metrics_enabled() {
        return;
    }
    metrics::gauge("sched_queue_depth").set(i64::try_from(core.queued_len()).unwrap_or(i64::MAX));
    metrics::gauge("sched_inflight").set(i64::try_from(core.running_len()).unwrap_or(i64::MAX));
    for (w, len) in core.deque_lens().into_iter().enumerate() {
        metrics::gauge_named(&format!("sched_deque_len_{w}"))
            .set(i64::try_from(len).unwrap_or(i64::MAX));
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut inner = shared.core.lock().expect("scheduler poisoned");
    loop {
        let now = shared.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(id) = inner.core.next(worker, now) {
            let Some((spec, ctl, queued_at)) = inner.jobs.get_mut(&id).map(|rec| {
                rec.phase = JobPhase::Running;
                (rec.spec.clone(), rec.ctl.clone(), rec.queued_at)
            }) else {
                // A claimed job with no record cannot happen (records are
                // inserted before the core learns the id), but completing it
                // keeps the core consistent if it ever did.
                inner.core.complete(id);
                continue;
            };
            refresh_gauges(&inner.core);
            drop(inner);
            if hammervolt_obs::metrics_enabled() {
                let wait_us = u64::try_from(queued_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                histogram_record!("sched_queue_wait_us", wait_us);
            }
            let run_started = Instant::now();
            let (phase, output) = job_outcome(|| spec.run(&shared.exec, &ctl));
            if hammervolt_obs::metrics_enabled() {
                let run_us = u64::try_from(run_started.elapsed().as_micros()).unwrap_or(u64::MAX);
                histogram_record!("sched_job_run_us", run_us);
            }
            inner = shared.core.lock().expect("scheduler poisoned");
            inner.core.complete(id);
            if let Some(rec) = inner.jobs.get_mut(&id) {
                rec.phase = phase;
                rec.output = output;
            }
            refresh_gauges(&inner.core);
            // Wake result waiters (and idle peers, harmlessly).
            shared.changed.notify_all();
            continue;
        }
        if inner.shutdown {
            return;
        }
        inner = self_wait(shared, inner);
    }
}

/// Runs a job and maps its result to the job's terminal phase and output.
///
/// A panic anywhere inside `run` is caught here and fails only this job,
/// as `Failed("panic: <payload>")`, counted in `sched_job_panics`. The
/// scheduler lock is not held while a job runs, so the unwind poisons
/// nothing and the worker goes on to its next job.
fn job_outcome(
    run: impl FnOnce() -> Result<JobOutput, StudyError>,
) -> (JobPhase, Option<JobOutput>) {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(output)) => (JobPhase::Done, Some(output)),
        Ok(Err(StudyError::Cancelled)) => (JobPhase::Cancelled, None),
        Ok(Err(e)) => (JobPhase::Failed(e.to_string()), None),
        Err(payload) => {
            counter_add!("sched_job_panics", 1);
            let message = format!("panic: {}", panic_message(payload.as_ref()));
            (JobPhase::Failed(message), None)
        }
    }
}

/// The text of a panic payload: the message `panic!` was given, whether
/// it arrived as a literal or formatted.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload")
}

/// Parks an idle worker until something changes. Every change a worker acts
/// on is made under the lock and followed by `notify_all`: `submit_with`,
/// `cancel` of a queued job, every job settling and `begin_shutdown`. So
/// the 50 ms timeout is not on a request's path; it only guards against a
/// missed wake-up ever stranding a queued job.
fn self_wait<'a>(
    shared: &'a Shared,
    inner: std::sync::MutexGuard<'a, Inner>,
) -> std::sync::MutexGuard<'a, Inner> {
    let (guard, _) = shared
        .changed
        .wait_timeout(inner, Duration::from_millis(50))
        .expect("scheduler poisoned");
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_run_fails_only_its_job() {
        let (phase, output) = job_outcome(|| panic!("literal payload"));
        assert_eq!(
            phase,
            JobPhase::Failed("panic: literal payload".to_string())
        );
        assert!(output.is_none());
        let n = 7;
        let (phase, output) = job_outcome(|| panic!("formatted payload {n}"));
        assert_eq!(
            phase,
            JobPhase::Failed("panic: formatted payload 7".to_string())
        );
        assert!(output.is_none());
        let (phase, _) = job_outcome(|| std::panic::panic_any(42u8));
        assert_eq!(
            phase,
            JobPhase::Failed("panic: non-string payload".to_string())
        );
    }

    #[test]
    fn run_results_map_to_their_phases() {
        let done = JobOutput {
            spec_hash: 1,
            records_jsonl: "{}\n".to_string(),
        };
        let (phase, output) = job_outcome(|| Ok(done));
        assert_eq!(phase, JobPhase::Done);
        assert_eq!(output.map(|o| o.records_jsonl), Some("{}\n".to_string()));
        let (phase, output) = job_outcome(|| Err(StudyError::Cancelled));
        assert_eq!(phase, JobPhase::Cancelled);
        assert!(output.is_none());
        let err = StudyError::InvalidConfig {
            reason: "bad spec".to_string(),
        };
        let text = err.to_string();
        let (phase, output) = job_outcome(|| Err(err));
        assert_eq!(phase, JobPhase::Failed(text));
        assert!(output.is_none());
    }
}
