//! The end-of-run manifest: one canonical JSON object recording what the
//! process did — binary name, git describe, job count, wall time per phase,
//! and a full counter/histogram snapshot.
//!
//! Phase wall times accumulate through [`phase`] guards; free-form
//! annotations (config hash, worker count) attach via [`annotate`]. The
//! manifest's **stable subset** — `{"config_hash", counters}` — contains
//! only deterministic values and is what the testkit goldens pin; wall
//! times and histogram quantiles vary run to run and live outside it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

static PHASES: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());
static ANNOTATIONS: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());

/// Accumulates wall time for a named phase while alive.
#[derive(Debug)]
pub struct PhaseGuard {
    inner: Option<(String, Instant)>,
}

/// Starts timing a named run phase ("sweep:hammer", "emit", ...). Wall time
/// is added to the phase's total when the guard drops; repeated phases
/// accumulate. Inert unless tracing or metrics is enabled.
pub fn phase(name: &str) -> PhaseGuard {
    if !crate::collecting() {
        return PhaseGuard { inner: None };
    }
    PhaseGuard {
        inner: Some((name.to_string(), Instant::now())),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some((name, start)) = self.inner.take() else {
            return;
        };
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut phases = PHASES.lock().expect("phase table poisoned");
        if let Some(entry) = phases.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = entry.1.saturating_add(us);
        } else {
            phases.push((name, us));
        }
    }
}

/// Attaches a key/value annotation to the manifest (e.g. `config_hash`,
/// `jobs`). Later writes to the same key win. Inert unless tracing or
/// metrics is enabled.
pub fn annotate(key: &str, value: &str) {
    if !crate::collecting() {
        return;
    }
    ANNOTATIONS
        .lock()
        .expect("annotation table poisoned")
        .insert(key.to_string(), value.to_string());
}

/// Clears accumulated phases and annotations (counters are reset separately
/// via [`crate::metrics::reset`]). For tests and golden regeneration.
pub fn reset() {
    PHASES.lock().expect("phase table poisoned").clear();
    ANNOTATIONS
        .lock()
        .expect("annotation table poisoned")
        .clear();
}

/// Recorded phases in first-seen order as `(name, total_us)`.
pub fn phases_snapshot() -> Vec<(String, u64)> {
    PHASES.lock().expect("phase table poisoned").clone()
}

fn render_counters() -> String {
    let mut w = json::ObjectWriter::new();
    for (name, value) in crate::metrics::counters_snapshot() {
        w.field_u64(&name, value);
    }
    w.finish()
}

/// The manifest's deterministic core as canonical JSON:
/// `{"config_hash":"…","counters":{…}}`. Byte-stable for a fixed study
/// configuration — this is the piece the testkit golden pins.
pub fn stable_subset_json() -> String {
    let config_hash = ANNOTATIONS
        .lock()
        .expect("annotation table poisoned")
        .get("config_hash")
        .cloned()
        .unwrap_or_default();
    let mut w = json::ObjectWriter::new();
    w.field_str("config_hash", &config_hash);
    w.field_raw("counters", &render_counters());
    w.finish()
}

/// Builds the full run manifest as one canonical JSON object.
///
/// `bin` is the binary name, `wall_us` the total process wall time, and
/// `git` the output of `git describe` (empty when unavailable).
pub fn build_manifest(bin: &str, wall_us: u64, git: &str) -> String {
    let mut w = json::ObjectWriter::new();
    w.field_u64("schema", 1);
    w.field_str("bin", bin);
    w.field_str("git", git);
    w.field_u64("wall_us", wall_us);

    let mut phases = json::ObjectWriter::new();
    for (name, us) in phases_snapshot() {
        phases.field_u64(&name, us);
    }
    w.field_raw("phases", &phases.finish());

    w.field_raw("counters", &render_counters());

    let mut hists = json::ObjectWriter::new();
    for h in crate::metrics::histograms_snapshot() {
        let mut one = json::ObjectWriter::new();
        one.field_u64("count", h.count);
        one.field_u64("sum", h.sum);
        one.field_u64("p50", h.p50);
        one.field_u64("p90", h.p90);
        one.field_u64("p99", h.p99);
        hists.field_raw(&h.name, &one.finish());
    }
    w.field_raw("histograms", &hists.finish());

    let mut annos = json::ObjectWriter::new();
    for (key, value) in ANNOTATIONS
        .lock()
        .expect("annotation table poisoned")
        .iter()
    {
        annos.field_str(key, value);
    }
    w.field_raw("annotations", &annos.finish());

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::METRICS_TEST_LOCK;

    #[test]
    fn phases_accumulate_and_keep_order() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        reset();
        crate::set_metrics(true);
        drop(phase("manifest_test_b"));
        drop(phase("manifest_test_a"));
        drop(phase("manifest_test_b"));
        crate::set_metrics(false);
        let names: Vec<String> = phases_snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["manifest_test_b", "manifest_test_a"]);
        reset();
    }

    #[test]
    fn manifest_is_valid_json_with_required_fields() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        reset();
        crate::set_metrics(true);
        annotate("config_hash", "deadbeef");
        drop(phase("manifest_test_phase"));
        crate::set_metrics(false);

        let text = build_manifest("manifest-test", 42, "v0-test");
        let v: serde::Value = serde_json::from_str(&text).expect("manifest parses");
        let obj = v.as_object().expect("manifest is an object");
        for key in [
            "schema",
            "bin",
            "git",
            "wall_us",
            "phases",
            "counters",
            "histograms",
            "annotations",
        ] {
            assert!(
                obj.iter().any(|(k, _)| k == key),
                "manifest missing field {key}: {text}"
            );
        }
        assert_eq!(v.field("bin"), &serde::Value::Str("manifest-test".into()));
        reset();
    }

    #[test]
    fn stable_subset_contains_only_hash_and_counters() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        reset();
        crate::set_metrics(true);
        annotate("config_hash", "cafe");
        crate::set_metrics(false);
        let text = stable_subset_json();
        let v: serde::Value = serde_json::from_str(&text).expect("stable subset parses");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["config_hash", "counters"]);
        reset();
    }

    #[test]
    fn guards_are_inert_when_nothing_collects() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        reset();
        drop(phase("manifest_test_inert"));
        annotate("manifest_test_inert", "x");
        assert!(phases_snapshot().is_empty());
        assert!(!build_manifest("x", 0, "").contains("manifest_test_inert"));
    }
}
