//! Process-wide metrics: named atomic counters and log-bucketed histograms.
//!
//! Handles are `&'static` (leaked once per name) so hot paths pay one
//! relaxed atomic op per update after a one-time registry lookup — the
//! [`crate::counter_add!`] / [`crate::histogram_record!`] macros cache the
//! lookup per call site.
//!
//! **Determinism contract:** counters hold deterministic event counts only
//! (commands issued, flips materialized, cache hits); anything derived from
//! wall-clock time goes into histograms. [`counters_snapshot`] is therefore
//! byte-stable for a fixed study configuration and feeds the run manifest's
//! golden-checked stable subset.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level metric (queue depths, in-flight jobs): unlike a
/// [`Counter`] it may go down, so it is signed and supports `set`.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets (covers the full `u64` range).
const BUCKETS: usize = 65;

/// A lock-free histogram over power-of-two buckets: bucket `0` holds value
/// `0`, bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`. Good to a factor
/// of two — plenty for latency distributions — with deterministic quantile
/// read-out (quantiles report a bucket's upper bound).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// The exclusive upper bound of bucket `b` (`u64::MAX` for the last).
    fn bucket_bound(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64.checked_shl(b as u32).map_or(u64::MAX, |v| v - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`); `0` when empty. Deterministic for a fixed sample
    /// multiset.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_bound(b);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }

    /// The occupied buckets as `(inclusive upper bound, cumulative count)`
    /// pairs in ascending bound order, plus the total count the cumulative
    /// series converges to. The final `u64::MAX` bucket is folded into the
    /// total (a scraper renders it as `+Inf`); bounds with no new samples
    /// since the previous bound are skipped. The pairs and the total come
    /// from one pass over the buckets, so `total` always equals the last
    /// cumulative value even while other threads record.
    pub fn exposition_buckets(&self) -> (Vec<(u64, u64)>, u64) {
        let mut pairs = Vec::new();
        let mut cumulative = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            let n = slot.load(Ordering::Relaxed);
            cumulative += n;
            if n > 0 && b < BUCKETS - 1 {
                pairs.push((Self::bucket_bound(b), cumulative));
            }
        }
        (pairs, cumulative)
    }
}

/// A point-in-time histogram summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Bucket-upper-bound quantiles: p50, p90, p99.
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(BTreeMap::new()),
    gauges: Mutex::new(BTreeMap::new()),
    histograms: Mutex::new(BTreeMap::new()),
};

/// The counter registered under `name`, creating it (at zero) on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = REGISTRY.counters.lock().expect("counter registry poisoned");
    map.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Counter {
            name,
            value: AtomicU64::new(0),
        }))
    })
}

/// [`counter`] for a name only known at runtime (per-worker, per-endpoint
/// series). The name is interned — leaked once per distinct string — so
/// callers must keep the name set bounded.
pub fn counter_named(name: &str) -> &'static Counter {
    let mut map = REGISTRY.counters.lock().expect("counter registry poisoned");
    if let Some(c) = map.get(name) {
        return c;
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let handle: &'static Counter = Box::leak(Box::new(Counter {
        name,
        value: AtomicU64::new(0),
    }));
    map.insert(name, handle);
    handle
}

/// The gauge registered under `name`, creating it (at zero) on first use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = REGISTRY.gauges.lock().expect("gauge registry poisoned");
    map.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Gauge {
            name,
            value: AtomicI64::new(0),
        }))
    })
}

/// [`gauge`] for a name only known at runtime. Interned like
/// [`counter_named`] — keep the name set bounded.
pub fn gauge_named(name: &str) -> &'static Gauge {
    let mut map = REGISTRY.gauges.lock().expect("gauge registry poisoned");
    if let Some(g) = map.get(name) {
        return g;
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let handle: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        value: AtomicI64::new(0),
    }));
    map.insert(name, handle);
    handle
}

/// The histogram registered under `name`, creating it empty on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = REGISTRY
        .histograms
        .lock()
        .expect("histogram registry poisoned");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(name))))
}

/// The current value of a counter; `0` when it was never registered.
pub fn counter_value(name: &str) -> u64 {
    REGISTRY
        .counters
        .lock()
        .expect("counter registry poisoned")
        .get(name)
        .map_or(0, |c| c.get())
}

/// Every registered counter as `(name, value)`, sorted by name — the
/// deterministic snapshot the run manifest embeds.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    REGISTRY
        .counters
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|(&name, c)| (name.to_string(), c.get()))
        .collect()
}

/// The current level of a gauge; `0` when it was never registered.
pub fn gauge_value(name: &str) -> i64 {
    REGISTRY
        .gauges
        .lock()
        .expect("gauge registry poisoned")
        .get(name)
        .map_or(0, |g| g.get())
}

/// Every registered gauge as `(name, level)`, sorted by name.
pub fn gauges_snapshot() -> Vec<(String, i64)> {
    REGISTRY
        .gauges
        .lock()
        .expect("gauge registry poisoned")
        .iter()
        .map(|(&name, g)| (name.to_string(), g.get()))
        .collect()
}

/// Every registered histogram handle, sorted by name — for renderers that
/// need bucket-level detail ([`crate::prometheus`]).
pub fn histograms_registered() -> Vec<&'static Histogram> {
    REGISTRY
        .histograms
        .lock()
        .expect("histogram registry poisoned")
        .values()
        .copied()
        .collect()
}

/// Every registered histogram's summary, sorted by name.
pub fn histograms_snapshot() -> Vec<HistogramSnapshot> {
    REGISTRY
        .histograms
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .map(|(&name, h)| HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum: h.sum(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
        })
        .collect()
}

/// Resets every registered counter, gauge, and histogram to zero
/// (registrations are kept). For golden regeneration and tests that need
/// clean deltas.
pub fn reset() {
    for c in REGISTRY
        .counters
        .lock()
        .expect("counter registry poisoned")
        .values()
    {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in REGISTRY
        .gauges
        .lock()
        .expect("gauge registry poisoned")
        .values()
    {
        g.value.store(0, Ordering::Relaxed);
    }
    for h in REGISTRY
        .histograms
        .lock()
        .expect("histogram registry poisoned")
        .values()
    {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
    }
}

/// Serializes the crate's tests that read values from the process-wide
/// registry, toggle the global metrics or tracing flag, or swap the event
/// sink, against each other and against the one that [`reset`]s the
/// registry, so a concurrent test cannot zero a count, switch collection
/// on, or steal events mid-assertion.
#[cfg(test)]
pub(crate) static METRICS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_concurrently_without_loss() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let c = counter("metrics_test_concurrent");
        let before = c.get();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get() - before, 80_000);
    }

    #[test]
    fn counter_lookup_returns_same_handle() {
        let a = counter("metrics_test_same") as *const Counter;
        let b = counter("metrics_test_same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let h = histogram("metrics_test_quantiles");
        for v in [0u64, 1, 1, 3, 3, 3, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 114);
        // p50 of 8 samples = rank 4 → the [2,4) bucket, bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // p99 → rank 8 → the [64,128) bucket, bound 127.
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_handles_extremes() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let h = histogram("metrics_test_extremes");
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        counter("metrics_test_snap_b").add(2);
        counter("metrics_test_snap_a").add(1);
        let take = || -> Vec<(String, u64)> {
            counters_snapshot()
                .into_iter()
                .filter(|(n, _)| n.starts_with("metrics_test_snap_"))
                .collect()
        };
        let one = take();
        let two = take();
        assert_eq!(one, two, "snapshots of unchanged counters must be equal");
        let names: Vec<&str> = one.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        counter("metrics_test_reset").add(9);
        gauge("metrics_test_reset_g").set(4);
        histogram("metrics_test_reset_h").record(5);
        reset();
        assert_eq!(counter_value("metrics_test_reset"), 0);
        assert_eq!(gauge_value("metrics_test_reset_g"), 0);
        assert_eq!(histogram("metrics_test_reset_h").count(), 0);
        assert!(counters_snapshot()
            .iter()
            .any(|(n, _)| n == "metrics_test_reset"));
        assert!(gauges_snapshot()
            .iter()
            .any(|(n, _)| n == "metrics_test_reset_g"));
    }

    #[test]
    fn gauge_levels_move_both_ways() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let g = gauge("metrics_test_gauge");
        g.set(10);
        g.add(5);
        g.sub(12);
        assert_eq!(g.get(), 3);
        g.sub(7);
        assert_eq!(g.get(), -4, "gauges may go negative");
    }

    #[test]
    fn named_lookup_interns_one_handle_per_string() {
        let a = counter_named(&format!("metrics_test_{}", "dyn")) as *const Counter;
        let b = counter_named("metrics_test_dyn") as *const Counter;
        assert_eq!(a, b);
        let g1 = gauge_named(&format!("metrics_test_{}", "dyn_g")) as *const Gauge;
        let g2 = gauge_named("metrics_test_dyn_g") as *const Gauge;
        assert_eq!(g1, g2);
        // Static and dynamic registration of the same name share a handle.
        let s = counter("metrics_test_dyn") as *const Counter;
        assert_eq!(a, s);
    }

    #[test]
    fn exposition_buckets_are_cumulative_and_skip_empty() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let h = histogram("metrics_test_exposition");
        for v in [0u64, 1, 1, 3, 100] {
            h.record(v);
        }
        let (pairs, total) = h.exposition_buckets();
        assert_eq!(total, 5);
        // Bounds 0, 1, 3, 127 — the empty [4,64) range is skipped.
        assert_eq!(pairs, vec![(0, 1), (1, 3), (3, 4), (127, 5)]);
        let bounds: Vec<u64> = pairs.iter().map(|&(b, _)| b).collect();
        let mut sorted = bounds.clone();
        sorted.sort_unstable();
        assert_eq!(bounds, sorted, "bounds ascend");
        assert_eq!(pairs.last().map(|&(_, c)| c), Some(total));
    }

    #[test]
    fn exposition_folds_max_bucket_into_total() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let h = histogram("metrics_test_exposition_max");
        h.record(u64::MAX);
        h.record(1);
        let (pairs, total) = h.exposition_buckets();
        assert_eq!(total, 2);
        assert_eq!(
            pairs,
            vec![(1, 1)],
            "u64::MAX lands past every finite bound"
        );
    }
}
