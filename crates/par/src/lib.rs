//! Shared deterministic fork-join scheduler.
//!
//! One scheduler for every embarrassingly-parallel loop in the workspace:
//! the study execution engine (`hammervolt-core::exec`) and the population
//! study fan work out through [`parallel_map_cancellable_with`], the SPICE
//! Monte-Carlo batcher (`hammervolt-spice`) through [`parallel_map_with`],
//! so scheduling semantics — ordered results, atomic work claiming, panic
//! propagation — live in exactly one place.
//!
//! Both entry points guarantee that the result vector is ordered by input
//! index regardless of which worker computed which item, which is the
//! foundation of the workspace-wide "byte-identical for any worker count"
//! invariant: as long as `f` is a pure function of the item and of a
//! workspace whose state is fully re-initialized per item, output cannot
//! depend on scheduling.
//!
//! The pool also hands observability context across the fork: the caller's
//! active metric scope (`hammervolt_obs::scope`) is captured before workers
//! spawn and re-entered on each worker thread, so per-job counter
//! attribution survives the fan-out exactly like cross-thread span
//! parenting does. This is a pure side channel — it cannot affect claiming
//! order or results.
//!
//! [`simd`] re-exports `hammervolt-obs`'s AVX-512 dispatch for the SPICE
//! crate, whose lane groups fan out here and step inside it, so that crate
//! needs no dependency on `obs` of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hammervolt_obs::simd;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A cooperative cancellation token shared between a controller and the
/// workers of a fork-join region.
///
/// Cancellation is *cooperative*: setting the token never interrupts an
/// in-flight item — workers observe it between items and simply stop
/// claiming new ones. An item therefore either runs to completion or never
/// starts, which is what lets the execution engine persist chunk
/// checkpoints without ever writing a torn entry.
///
/// Tokens are cheap to clone (an `Arc` around one atomic) and sticky: once
/// cancelled, a token stays cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; workers observe it at the next
    /// item boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Reads the worker count from `HAMMERVOLT_JOBS` (`0` = one worker per CPU).
///
/// Unset means `0`. A value that is set but is not a valid count, or is not
/// valid UTF-8, is reported through [`hammervolt_obs::warn`] (stderr when no
/// event sink is installed) and then also falls back to `0`, never
/// silently.
pub fn jobs_from_env() -> usize {
    match std::env::var("HAMMERVOLT_JOBS") {
        Ok(v) => v.parse::<usize>().unwrap_or_else(|_| {
            hammervolt_obs::warn(
                "par",
                &format!(
                    "HAMMERVOLT_JOBS={v:?} is not a valid worker count; \
                     using auto (one worker per CPU)"
                ),
            );
            0
        }),
        Err(std::env::VarError::NotPresent) => 0,
        Err(std::env::VarError::NotUnicode(_)) => {
            hammervolt_obs::warn(
                "par",
                "HAMMERVOLT_JOBS is set but not valid UTF-8; using auto",
            );
            0
        }
    }
}

/// Resolves a job count: `0` means one worker per available CPU.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in input order. Each worker thread owns a mutable workspace built by
/// `init`, passed to every `f` call that worker makes.
///
/// Workers claim item indices from a shared atomic counter, so load
/// balances automatically; each worker accumulates `(index, result)` pairs
/// locally and the batches are stitched back into input order at the end —
/// no per-item locking. `jobs <= 1` (or a single item) degrades to a plain
/// serial map on the calling thread.
///
/// This is the batching primitive: `init` clones a pristine solver
/// workspace (scratch matrices, trace buffers, a template circuit) once per
/// worker, and the per-item calls reuse it allocation-free. For ordered
/// results to stay schedule-independent, `f` must fully re-initialize any
/// workspace state it reads — an item's result must not depend on which
/// items the same worker processed before it.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` after all workers have stopped.
pub fn parallel_map_with<T, R, W, I, F>(items: &[T], jobs: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, &T) -> R + Sync,
{
    run_pool(items, jobs, None, init, f).expect("uncancellable map cannot be cancelled")
}

/// Like [`parallel_map_with`], but workers stop claiming new items once
/// `cancel` fires. Returns `None` if the region was cancelled before every
/// item completed (already-computed results are dropped — persist durable
/// side effects inside `f` if partial progress must survive); `Some` with
/// the full ordered result vector otherwise.
///
/// Cancellation is cooperative per item: an in-flight `f` call always runs
/// to completion, so `f`'s side effects are never torn.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` after all workers have stopped.
pub fn parallel_map_cancellable_with<T, R, W, I, F>(
    items: &[T],
    jobs: usize,
    cancel: &CancelToken,
    init: I,
    f: F,
) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, &T) -> R + Sync,
{
    run_pool(items, jobs, Some(cancel), init, f)
}

/// The one worker-pool implementation behind both entry points: atomic
/// index claiming, per-worker result batches, optional cooperative
/// cancellation.
fn run_pool<T, R, W, I, F>(
    items: &[T],
    jobs: usize,
    cancel: Option<&CancelToken>,
    init: I,
    f: F,
) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, &T) -> R + Sync,
{
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let jobs = resolve_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        let mut ws = init();
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            if cancelled() {
                return None;
            }
            out.push(f(&mut ws, item));
        }
        return Some(out);
    }
    // Capture the caller's metric scope (if any) so worker threads record
    // under the same per-job label set as the thread that forked them.
    let metric_scope = hammervolt_obs::scope::current();
    let next = AtomicUsize::new(0);
    let batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let _scope_guard = metric_scope.as_ref().map(hammervolt_obs::scope::enter);
                    let mut ws = init();
                    let mut mine = Vec::new();
                    loop {
                        if cancelled() {
                            return mine;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return mine;
                        }
                        mine.push((i, f(&mut ws, &items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    if cancelled() {
        return None;
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, result) in batches.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(result);
    }
    Some(
        slots
            .into_iter()
            .map(|slot| slot.expect("every index is claimed exactly once"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = parallel_map_with(&items, 4, || (), |(), &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(
            parallel_map_with(&items, 1, || (), |(), &x| x + 1).len(),
            37
        );
        assert!(parallel_map_with(&Vec::<u64>::new(), 8, || (), |(), &x: &u64| x).is_empty());
    }

    #[test]
    fn workspace_variant_initializes_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_with(
            &items,
            3,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, &x| {
                *acc += 1; // workspace is genuinely mutable and persistent
                x + 1
            },
        );
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=3).contains(&n), "one init per worker, got {n}");
    }

    #[test]
    fn workspace_results_are_order_stable_across_job_counts() {
        let items: Vec<u64> = (0..101).collect();
        let reference = parallel_map_with(&items, 1, || (), |(), &x| x * x);
        for jobs in [2, 4, 8] {
            assert_eq!(
                parallel_map_with(&items, jobs, || (), |(), &x| x * x),
                reference
            );
        }
    }

    #[test]
    fn cancellable_map_without_cancel_matches_plain_map() {
        let items: Vec<u64> = (0..23).collect();
        let token = CancelToken::new();
        let out = parallel_map_cancellable_with(&items, 4, &token, || (), |(), &x| x * 3);
        assert_eq!(out, Some(items.iter().map(|x| x * 3).collect::<Vec<_>>()));
    }

    #[test]
    fn cancelled_before_start_returns_none_without_running_items() {
        let ran = AtomicUsize::new(0);
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 4] {
            let out = parallel_map_cancellable_with(
                &items,
                jobs,
                &token,
                || (),
                |(), &x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                },
            );
            assert_eq!(out, None, "jobs={jobs}");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no item may start");
    }

    #[test]
    fn cancel_mid_run_stops_claiming_but_never_tears_items() {
        // Serial pool: deterministic — cancellation fired from inside item 5
        // completes that item, then stops the region before item 6.
        let token = CancelToken::new();
        let completed = Mutex::new(Vec::new());
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_cancellable_with(
            &items,
            1,
            &token,
            || (),
            |(), &x| {
                if x == 5 {
                    token.cancel();
                }
                completed.lock().unwrap().push(x);
                x
            },
        );
        assert_eq!(out, None);
        assert_eq!(*completed.lock().unwrap(), (0..=5).collect::<Vec<u64>>());

        // Parallel pool: the cancelling item still completes (cooperative,
        // never torn) and the region reports cancellation.
        let token = CancelToken::new();
        let completed = Mutex::new(Vec::new());
        let out = parallel_map_cancellable_with(
            &items,
            3,
            &token,
            || (),
            |(), &x| {
                if x == 5 {
                    token.cancel();
                }
                completed.lock().unwrap().push(x);
                x
            },
        );
        assert_eq!(out, None);
        assert!(
            completed.lock().unwrap().contains(&5),
            "the cancelling item completes"
        );
    }

    #[test]
    fn cancel_token_is_sticky_and_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn metric_scope_propagates_to_every_worker() {
        let scope = hammervolt_obs::scope::Scope::new(&[("job_id", "par-test")]);
        let _g = hammervolt_obs::scope::enter(&scope);
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map_with(
            &items,
            4,
            || (),
            |(), &x| {
                hammervolt_obs::scope::record_counter("par_test_scope_units", 1);
                x
            },
        );
        assert_eq!(out, items);
        assert_eq!(
            scope.counter_value("par_test_scope_units"),
            32,
            "every worker must attribute to the forking thread's scope"
        );
    }

    #[test]
    fn zero_jobs_resolves_to_available_cpus() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(5), 5);
        // and a map with jobs=0 still completes correctly
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(parallel_map_with(&items, 0, || (), |(), &x| x), items);
    }
}
