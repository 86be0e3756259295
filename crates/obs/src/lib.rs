//! Zero-dependency structured observability for the hammervolt workspace.
//!
//! The paper's credibility rests on reporting exactly what the test
//! infrastructure did (cf. "Revisiting RowHammer", ISCA 2020); this crate is
//! the reproduction's equivalent: lightweight spans with monotonic timing
//! ([`trace`]), a process-wide registry of atomic counters and histograms
//! ([`metrics`]), a pluggable JSONL event sink, a rate-limited progress line
//! ([`progress`]), and an end-of-run manifest ([`manifest`]) carrying the
//! configuration hash, per-phase wall times, and a full counter snapshot.
//!
//! # Design constraints
//!
//! 1. **Deterministic-safe.** Instrumentation is a pure side channel: no
//!    code path in this crate may influence measurement payloads, RNG
//!    streams, or scheduling decisions. Sweep output is byte-identical with
//!    observability on or off (enforced by `tests/observability.rs` and the
//!    testkit differential oracle).
//! 2. **Near-zero disabled cost.** Every instrumentation point is guarded
//!    by a `static` atomic enable flag; with tracing and metrics off, the
//!    hot-path cost is a single relaxed atomic load (EXPERIMENTS.md,
//!    "Scoped counter bump", times one `counter_add!` in each state).
//! 3. **No dependencies.** The crate sits below the device model; it
//!    hand-rolls the little JSON it emits ([`json`]) instead of pulling in
//!    a serializer.
//!
//! # Enablement
//!
//! Tracing, metrics, and the progress line are independent process-wide
//! switches ([`set_tracing`], [`set_metrics`], [`set_progress`]), normally
//! driven by the shared CLI helper ([`cli`]): `--trace-out PATH`,
//! `--metrics`, `--progress`, `--manifest-out PATH`, or the equivalent
//! `HAMMERVOLT_TRACE_OUT` / `HAMMERVOLT_METRICS` / `HAMMERVOLT_PROGRESS` /
//! `HAMMERVOLT_MANIFEST_OUT` environment variables.
//!
//! # Feature dispatch
//!
//! One module here is not observability: [`simd`], the workspace's one
//! door into code compiled for AVX-512, which the device model's hash
//! kernels and the SPICE lane solver share. It lives in this crate because
//! the crate sits below both without a dependency of its own.

// Denied rather than forbidden so that one item, `simd::Avx512::run`, the
// call into kernels compiled for AVX-512, can opt back in; no other code
// here may use `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod prometheus;
pub mod scope;
pub mod simd;
pub mod trace;

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

pub use trace::Span;

// ---------------------------------------------------------------------------
// Enable flags
// ---------------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: AtomicBool = AtomicBool::new(false);
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Whether span/event tracing is on. One relaxed atomic load — this is the
/// whole disabled-path cost of a tracing site.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Whether metric collection is on. One relaxed atomic load.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Whether the stderr progress line is on. One relaxed atomic load.
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Turns span/event tracing on or off (normally done by [`cli`]).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Turns metric collection on or off (normally done by [`cli`]).
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// Turns the progress line on or off (normally done by [`cli`]).
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether any collection (tracing or metrics) is active — used to gate
/// work that only matters when a manifest or trace will be produced, such
/// as phase timing and annotations.
#[inline]
pub fn collecting() -> bool {
    tracing_enabled() || metrics_enabled()
}

// ---------------------------------------------------------------------------
// Monotonic epoch
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-local monotonic epoch all event timestamps are relative to
/// (fixed at first use).
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since [`epoch`].
pub fn epoch_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Event sink
// ---------------------------------------------------------------------------

/// A destination for JSONL event lines (spans, warnings, the manifest).
///
/// Sinks are a pure side channel: implementations must not feed anything
/// back into measurement code.
pub trait EventSink: Send + Sync {
    /// Consumes one JSON event line (no trailing newline).
    fn emit(&self, line: &str);
    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

static SINK: RwLock<Option<Arc<dyn EventSink>>> = RwLock::new(None);

/// Installs (or, with `None`, removes) the process-wide event sink.
pub fn set_sink(sink: Option<Arc<dyn EventSink>>) {
    *SINK.write().expect("sink lock poisoned") = sink;
}

/// Emits one event line to the installed sink; dropped when no sink is
/// installed.
pub fn emit_event(line: &str) {
    if let Some(sink) = SINK.read().expect("sink lock poisoned").as_ref() {
        sink.emit(line);
    }
}

/// Flushes the installed sink, if any.
pub fn flush_sink() {
    if let Some(sink) = SINK.read().expect("sink lock poisoned").as_ref() {
        sink.flush();
    }
}

/// Whether an event sink is currently installed.
pub fn sink_installed() -> bool {
    SINK.read().expect("sink lock poisoned").is_some()
}

/// Reports a non-fatal configuration or I/O problem: as a `warn` event on
/// the installed sink, or on stderr when no sink is installed.
pub fn warn(source: &str, msg: &str) {
    if sink_installed() {
        let mut line = String::with_capacity(64 + msg.len());
        line.push_str("{\"type\":\"warn\",\"t_us\":");
        line.push_str(&epoch_us().to_string());
        line.push_str(",\"source\":");
        json::write_str(&mut line, source);
        line.push_str(",\"msg\":");
        json::write_str(&mut line, msg);
        line.push('}');
        emit_event(&line);
    } else {
        eprintln!("hammervolt: warning: [{source}] {msg}");
    }
}

/// Reads a boolean environment flag. Every flag follows one rule: `1`,
/// `true`, `yes` and `on` mean on and `0`, `false`, `no` and `off` mean off,
/// in any case; an unset or empty variable means off. Any other value is
/// reported through [`warn`], naming the variable, and means off.
pub fn env_flag(name: &str) -> bool {
    let Some(value) = std::env::var_os(name) else {
        return false;
    };
    let value = value.to_string_lossy();
    flag_value(&value).unwrap_or_else(|| {
        warn(
            "env",
            &format!(
                "{name}={value:?} is not a boolean (1/true/yes/on or \
                 0/false/no/off); treating it as off"
            ),
        );
        false
    })
}

/// The rule behind [`env_flag`]: `Some(on)` for a recognized spelling,
/// `None` for anything else.
fn flag_value(value: &str) -> Option<bool> {
    match value.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "" | "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// A sink that appends each event line to a buffered file.
pub struct FileSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl FileSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        Ok(FileSink {
            writer: Mutex::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        })
    }
}

impl EventSink for FileSink {
    fn emit(&self, line: &str) {
        let mut w = self.writer.lock().expect("file sink poisoned");
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("file sink poisoned").flush();
    }
}

/// An in-memory sink for tests: captures every line for later inspection.
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty capture sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every line captured so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink poisoned").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, line: &str) {
        self.lines
            .lock()
            .expect("memory sink poisoned")
            .push(line.to_string());
    }
}

/// Adds `n` to the named process-wide counter when metrics are enabled,
/// and attributes the same `n` to the thread's active [`scope::Scope`],
/// if one is entered.
///
/// The counter handle is resolved once per call site and cached, so the
/// enabled path is one atomic load plus one relaxed `fetch_add` (plus a
/// thread-local scope probe); the disabled path is the load alone.
/// Counters must only ever count *deterministic* quantities (events,
/// commands, flips) — wall-clock time belongs in histograms — so that the
/// manifest's counter snapshot is byte-stable for a fixed configuration.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {
        if $crate::metrics_enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
                ::std::sync::OnceLock::new();
            let n = $n as u64;
            HANDLE
                .get_or_init(|| $crate::metrics::counter($name))
                .add(n);
            $crate::scope::record_counter($name, n);
        }
    };
}

/// Records a value in the named process-wide histogram when metrics are
/// enabled, and attributes the same sample to the thread's active
/// [`scope::Scope`], if one is entered. Same call-site caching as
/// [`counter_add!`]. Histograms are the home for wall-clock durations and
/// other nondeterministic samples; they are excluded from the manifest's
/// stable subset.
#[macro_export]
macro_rules! histogram_record {
    ($name:literal, $v:expr) => {
        if $crate::metrics_enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
                ::std::sync::OnceLock::new();
            let v = $v as u64;
            HANDLE
                .get_or_init(|| $crate::metrics::histogram($name))
                .record(v);
            $crate::scope::record_histogram($name, v);
        }
    };
}

/// Sets the named process-wide gauge when metrics are enabled. Gauges are
/// levels (queue depth, in-flight jobs): global-only, never scoped, and —
/// like histograms — excluded from the manifest's stable subset.
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {
        if $crate::metrics_enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::metrics::gauge($name))
                .set($v as i64);
        }
    };
}

/// Raises the named process-wide gauge by `n` when metrics are enabled.
#[macro_export]
macro_rules! gauge_add {
    ($name:literal, $n:expr) => {
        if $crate::metrics_enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::metrics::gauge($name))
                .add($n as i64);
        }
    };
}

/// Lowers the named process-wide gauge by `n` when metrics are enabled.
#[macro_export]
macro_rules! gauge_sub {
    ($name:literal, $n:expr) => {
        if $crate::metrics_enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::metrics::gauge($name))
                .sub($n as i64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_toggle_independently() {
        let _guard = crate::metrics::METRICS_TEST_LOCK.lock().unwrap();
        assert!(!tracing_enabled() || tracing_enabled()); // no panic
        set_metrics(true);
        assert!(metrics_enabled());
        assert!(collecting());
        set_metrics(false);
    }

    #[test]
    fn boolean_flags_follow_one_rule() {
        for on in ["1", "true", "yes", "on", "TRUE", "Yes", "ON"] {
            assert_eq!(flag_value(on), Some(true), "{on:?} means on");
        }
        for off in ["", "0", "false", "no", "off", "FALSE", "No", "Off"] {
            assert_eq!(flag_value(off), Some(false), "{off:?} means off");
        }
        for unknown in ["maybe", "2", "enabled", " on", "y"] {
            assert_eq!(flag_value(unknown), None, "{unknown:?} is not a flag");
        }
    }

    #[test]
    fn memory_sink_captures_events() {
        let _guard = crate::metrics::METRICS_TEST_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        set_sink(Some(sink.clone()));
        emit_event(r#"{"type":"test"}"#);
        set_sink(None);
        assert!(sink.lines().contains(&r#"{"type":"test"}"#.to_string()));
    }

    #[test]
    fn counter_macro_is_inert_when_disabled() {
        let _guard = crate::metrics::METRICS_TEST_LOCK.lock().unwrap();
        set_metrics(false);
        counter_add!("lib_test_inert", 5);
        assert_eq!(metrics::counter_value("lib_test_inert"), 0);
        set_metrics(true);
        counter_add!("lib_test_inert", 5);
        set_metrics(false);
        assert_eq!(metrics::counter_value("lib_test_inert"), 5);
    }

    #[test]
    fn gauge_macro_is_inert_when_disabled() {
        let _guard = crate::metrics::METRICS_TEST_LOCK.lock().unwrap();
        set_metrics(false);
        gauge_set!("lib_test_gauge_inert", 7);
        assert_eq!(metrics::gauge_value("lib_test_gauge_inert"), 0);
        set_metrics(true);
        gauge_set!("lib_test_gauge_inert", 7);
        gauge_add!("lib_test_gauge_inert", 2);
        gauge_sub!("lib_test_gauge_inert", 4);
        set_metrics(false);
        assert_eq!(metrics::gauge_value("lib_test_gauge_inert"), 5);
    }

    #[test]
    fn macros_attribute_to_the_entered_scope() {
        let _guard = crate::metrics::METRICS_TEST_LOCK.lock().unwrap();
        let s = scope::Scope::new(&[("job_id", "lib-macro")]);
        set_metrics(true);
        {
            let _g = scope::enter(&s);
            counter_add!("lib_test_scoped", 4);
            histogram_record!("lib_test_scoped_us", 9);
        }
        counter_add!("lib_test_scoped", 1); // outside: global only
        set_metrics(false);
        assert_eq!(s.counter_value("lib_test_scoped"), 4);
        assert!(metrics::counter_value("lib_test_scoped") >= 5);
        let hist = s.histograms_snapshot();
        let h = hist
            .iter()
            .find(|h| h.name == "lib_test_scoped_us")
            .expect("scoped histogram recorded");
        assert_eq!((h.count, h.sum), (1, 9));
    }
}
