//! The deterministic multi-tenant scheduling core.
//!
//! [`Core`] is a pure state machine: no threads, no clock, no I/O. Every
//! mutation takes an explicit `now` tick supplied by the caller, so unit
//! tests drive it with a fake clock and assert exact schedules; the threaded
//! [`crate::scheduler::Scheduler`] drives it with a monotonic logical
//! counter. All internal iteration orders are deterministic (sorted scans,
//! explicit tie-breaks), so the same call sequence always produces the same
//! schedule.
//!
//! # Scheduling model
//!
//! - Every tenant has a **home worker** (stable hash of the tenant name), and
//!   submissions queue on the home worker's deque — tenant locality by
//!   default.
//! - A worker asking for work serves its own deque first, picking the
//!   **least-recently-served tenant** among those queued there (ties break by
//!   tenant name), then that tenant's oldest job — so one tenant flooding the
//!   queue cannot starve another sharing the worker.
//! - An idle worker **steals** from the longest peer deque (ties break by
//!   lowest worker index), applying the same tenant-fair pick inside the
//!   victim deque — so one tenant's burst on its home worker spreads across
//!   the pool instead of serializing behind it.
//! - The queue is **bounded** across all deques: at capacity, a submission is
//!   rejected, and the queued jobs keep their places.
//! - Identical in-flight specs (same spec hash, queued *or* running)
//!   **dedup** onto one execution: the second submitter gets the first job's
//!   id and waits on the same result.

use hammervolt_obs::counter_add;
use std::collections::BTreeMap;

/// Scheduler-assigned job identifier (monotonic, never reused).
pub type JobId = u64;

/// Sizing for the scheduling core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Worker slots (deque count); at least 1.
    pub workers: usize,
    /// Maximum *queued* (not yet running) jobs across all deques; a
    /// submission beyond it is rejected.
    pub queue_capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 2,
            queue_capacity: 64,
        }
    }
}

/// One queued entry.
#[derive(Debug, Clone)]
struct Entry {
    id: JobId,
    tenant: String,
    /// Global enqueue sequence — FIFO order within a tenant.
    seq: u64,
}

/// A job's lifecycle state as the core tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting on a deque.
    Queued,
    /// Claimed by a worker.
    Running {
        /// The worker index that claimed it.
        worker: usize,
    },
    /// Finished (successfully or not — the core doesn't distinguish; the
    /// owner stores the outcome).
    Done,
    /// Removed from the queue by [`Core::cancel`] before any worker claimed
    /// it.
    Cancelled,
}

/// Outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// A new job was enqueued.
    Queued(JobId),
    /// An identical spec is already queued or running; the submitter shares
    /// that job.
    Deduped(JobId),
    /// The queue is full.
    Rejected,
}

/// Outcome of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued; it has been removed and will never run.
    WasQueued,
    /// The job is running on the given worker; the owner must fire its
    /// cancellation token (the core keeps it `Running` until
    /// [`Core::complete`]).
    WasRunning(usize),
    /// Already finished or cancelled — nothing to do.
    Settled,
    /// No such job.
    Unknown,
}

#[derive(Debug, Default)]
struct TenantState {
    last_served: u64,
    home: usize,
}

/// The deterministic scheduling state machine. See the module docs for the
/// model.
#[derive(Debug)]
pub struct Core {
    config: SchedConfig,
    tenants: BTreeMap<String, TenantState>,
    deques: Vec<Vec<Entry>>,
    states: BTreeMap<JobId, JobState>,
    /// spec hash → in-flight (queued or running) job id, the dedup index.
    in_flight: BTreeMap<u64, JobId>,
    /// job id → spec hash, to unwind `in_flight` on completion.
    spec_of: BTreeMap<JobId, u64>,
    next_id: JobId,
    next_seq: u64,
    /// Jobs claimed but not yet completed (maintained, not derived, so the
    /// accessor is O(1) however many settled jobs the state map retains).
    running: usize,
    /// Jobs claimed per tenant over the core's lifetime — the deterministic
    /// fairness record `/stats` reports.
    served: BTreeMap<String, u64>,
}

/// Stable FNV-1a-64 of a tenant name (home-worker assignment).
fn tenant_hash(name: &str) -> u64 {
    hammervolt_core::exec::fnv1a64(name.as_bytes(), hammervolt_core::exec::FNV_OFFSET)
}

impl Core {
    /// A fresh core; `workers` is clamped to at least 1.
    pub fn new(config: SchedConfig) -> Self {
        let workers = config.workers.max(1);
        Core {
            deques: (0..workers).map(|_| Vec::new()).collect(),
            config: SchedConfig { workers, ..config },
            tenants: BTreeMap::new(),
            states: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            spec_of: BTreeMap::new(),
            next_id: 1,
            next_seq: 0,
            running: 0,
            served: BTreeMap::new(),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Total queued (not running) jobs.
    pub fn queued_len(&self) -> usize {
        self.deques.iter().map(Vec::len).sum()
    }

    /// Jobs currently claimed by workers but not yet completed.
    pub fn running_len(&self) -> usize {
        self.running
    }

    /// Each worker deque's queued length, by worker index.
    pub fn deque_lens(&self) -> Vec<usize> {
        self.deques.iter().map(Vec::len).collect()
    }

    /// Jobs claimed per tenant over the core's lifetime, name-sorted — the
    /// deterministic fairness record behind `/stats`.
    pub fn tenants_served(&self) -> Vec<(String, u64)> {
        self.served.iter().map(|(t, &n)| (t.clone(), n)).collect()
    }

    /// A job's current state, if the core has ever seen it.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.states.get(&id).copied()
    }

    /// Submits a job with content hash `spec_hash` for `tenant` at tick
    /// `now`. See [`SubmitOutcome`].
    pub fn submit(&mut self, tenant: &str, spec_hash: u64, _now: u64) -> SubmitOutcome {
        if let Some(&existing) = self.in_flight.get(&spec_hash) {
            counter_add!("sched_dedup_hits", 1);
            return SubmitOutcome::Deduped(existing);
        }
        if self.queued_len() >= self.config.queue_capacity {
            counter_add!("sched_rejects", 1);
            return SubmitOutcome::Rejected;
        }
        let workers = self.config.workers;
        let tenant_state = self
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                last_served: 0,
                home: (tenant_hash(tenant) % workers as u64) as usize,
            });
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.deques[tenant_state.home].push(Entry {
            id,
            tenant: tenant.to_string(),
            seq,
        });
        self.states.insert(id, JobState::Queued);
        self.in_flight.insert(spec_hash, id);
        self.spec_of.insert(id, spec_hash);
        SubmitOutcome::Queued(id)
    }

    /// Removes a settled job from the dedup index so a resubmission of the
    /// same spec starts a fresh execution.
    fn unindex(&mut self, id: JobId) {
        if let Some(hash) = self.spec_of.remove(&id) {
            if self.in_flight.get(&hash) == Some(&id) {
                self.in_flight.remove(&hash);
            }
        }
    }

    /// The tenant-fair pick inside one deque: the least-recently-served
    /// tenant present (ties by tenant name), then that tenant's oldest
    /// entry. Returns the entry's index.
    fn fair_pick(&self, deque: &[Entry]) -> Option<usize> {
        let best_tenant = deque
            .iter()
            .map(|e| e.tenant.as_str())
            .min_by_key(|t| {
                (
                    self.tenants.get(*t).map_or(0, |s| s.last_served),
                    t.to_string(),
                )
            })?
            .to_string();
        deque
            .iter()
            .enumerate()
            .filter(|(_, e)| e.tenant == best_tenant)
            .min_by_key(|(_, e)| e.seq)
            .map(|(i, _)| i)
    }

    /// Claims the next job for `worker` at tick `now`: own deque first
    /// (tenant-fair), then a steal from the longest peer deque. `None` when
    /// every deque is empty.
    pub fn next(&mut self, worker: usize, now: u64) -> Option<JobId> {
        let source = if !self.deques[worker].is_empty() {
            worker
        } else {
            // Steal from the longest peer deque; ties break to the lowest
            // worker index for determinism.
            let (victim, len) = self
                .deques
                .iter()
                .enumerate()
                .map(|(w, d)| (w, d.len()))
                .max_by_key(|&(w, len)| (len, std::cmp::Reverse(w)))?;
            if len == 0 {
                return None;
            }
            counter_add!("sched_steals", 1);
            victim
        };
        let i = self.fair_pick(&self.deques[source])?;
        let entry = self.deques[source].remove(i);
        if let Some(t) = self.tenants.get_mut(&entry.tenant) {
            t.last_served = now;
        }
        *self.served.entry(entry.tenant.clone()).or_insert(0) += 1;
        self.running += 1;
        self.states.insert(entry.id, JobState::Running { worker });
        Some(entry.id)
    }

    /// Marks a running job finished (whatever the outcome) and releases its
    /// dedup slot.
    pub fn complete(&mut self, id: JobId) {
        if matches!(self.states.get(&id), Some(JobState::Running { .. })) {
            self.states.insert(id, JobState::Done);
            self.unindex(id);
            self.running = self.running.saturating_sub(1);
        }
    }

    /// Requests cancellation; see [`CancelOutcome`] for what the caller must
    /// do next.
    pub fn cancel(&mut self, id: JobId) -> CancelOutcome {
        match self.states.get(&id) {
            None => CancelOutcome::Unknown,
            Some(JobState::Queued) => {
                for deque in &mut self.deques {
                    if let Some(i) = deque.iter().position(|e| e.id == id) {
                        deque.remove(i);
                        break;
                    }
                }
                self.states.insert(id, JobState::Cancelled);
                self.unindex(id);
                CancelOutcome::WasQueued
            }
            Some(JobState::Running { worker }) => CancelOutcome::WasRunning(*worker),
            Some(JobState::Done) | Some(JobState::Cancelled) => CancelOutcome::Settled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(workers: usize, cap: usize) -> Core {
        Core::new(SchedConfig {
            workers,
            queue_capacity: cap,
        })
    }

    #[test]
    fn single_tenant_runs_fifo() {
        let mut c = core(1, 16);
        let ids: Vec<JobId> = (0..4)
            .map(|i| match c.submit("t", 100 + i, 0) {
                SubmitOutcome::Queued(id) => id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let order: Vec<JobId> = (0..4).filter_map(|t| c.next(0, t)).collect();
        assert_eq!(order, ids);
    }

    #[test]
    fn accessors_track_queue_running_and_served() {
        let mut c = core(2, 16);
        for (i, tenant) in ["a", "b", "a"].iter().enumerate() {
            match c.submit(tenant, 100 + i as u64, i as u64) {
                SubmitOutcome::Queued(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(c.deque_lens().iter().sum::<usize>(), c.queued_len());
        assert_eq!(c.queued_len(), 3);
        assert_eq!(c.running_len(), 0);
        let first = c.next(0, 10).expect("work is queued");
        assert_eq!(c.running_len(), 1);
        assert_eq!(c.queued_len(), 2);
        let served: u64 = c.tenants_served().iter().map(|&(_, n)| n).sum();
        assert_eq!(served, 1);
        c.complete(first);
        assert_eq!(c.running_len(), 0);
        // Drain the rest: the per-tenant ledger ends at the claim counts.
        while let Some(id) = c.next(0, 20) {
            c.complete(id);
        }
        assert_eq!(
            c.tenants_served(),
            vec![("a".to_string(), 2), ("b".to_string(), 1)]
        );
    }

    #[test]
    fn dedup_shares_one_execution_until_it_settles() {
        let mut c = core(1, 16);
        let first = match c.submit("a", 7, 0) {
            SubmitOutcome::Queued(id) => id,
            other => panic!("unexpected {other:?}"),
        };
        // Queued dedup, even across tenants.
        assert_eq!(
            c.submit("b", 7, 1),
            SubmitOutcome::Deduped(first),
            "queued spec dedups"
        );
        let claimed = c.next(0, 2).unwrap();
        assert_eq!(claimed, first);
        // Running dedup too.
        assert_eq!(c.submit("c", 7, 3), SubmitOutcome::Deduped(first));
        c.complete(first);
        // Settled: a resubmission starts fresh.
        match c.submit("a", 7, 4) {
            SubmitOutcome::Queued(id) => assert_ne!(id, first),
            other => panic!("unexpected {other:?}"),
        }
    }
}
