//! Prometheus text exposition (version 0.0.4) over the whole metric
//! registry, hand-rolled on `std` like the rest of the crate.
//!
//! [`render`] produces one scrape body: every registered counter, gauge,
//! and histogram, plus — under the same metric names — one labeled series
//! per live [`crate::scope::Scope`] (a job's `job_id`/`tenant`/`sweep_kind`
//! labels). Histograms render their power-of-two buckets as the cumulative
//! `_bucket{le="..."}` series Prometheus expects, with `le` bounds being
//! each bucket's inclusive upper value and the mandatory `+Inf` bucket
//! equal to `_count`.
//!
//! The renderer is read-only and lock-light (registry snapshots), so a
//! scraper hitting `GET /metrics` never stalls measurement threads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::metrics::{self, Histogram};
use crate::scope;

/// Maps an internal metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, and a
/// leading digit gets a `_` prefix. Internal names are already snake_case,
/// so this is normally the identity.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if valid {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// `{k="v",...}` for a non-empty label set, `""` for an empty one.
fn label_block(labels: &[(String, String)]) -> String {
    label_block_extra(labels, None)
}

/// Like [`label_block`], with an optional trailing `le` pair (histogram
/// bucket lines), always emitting braces when any pair is present.
fn label_block_extra(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{}\"", escape_label_value(le));
    }
    out.push('}');
    out
}

fn render_histogram(out: &mut String, metric: &str, labels: &[(String, String)], h: &Histogram) {
    let (pairs, total) = h.exposition_buckets();
    for (bound, cumulative) in pairs {
        let _ = writeln!(
            out,
            "{metric}_bucket{} {cumulative}",
            label_block_extra(labels, Some(&bound.to_string()))
        );
    }
    let _ = writeln!(
        out,
        "{metric}_bucket{} {total}",
        label_block_extra(labels, Some("+Inf"))
    );
    let _ = writeln!(out, "{metric}_sum{} {}", label_block(labels), h.sum());
    // `_count` repeats the `+Inf` cumulative value so the series is
    // internally consistent even while other threads record.
    let _ = writeln!(out, "{metric}_count{} {total}", label_block(labels));
}

/// A metric's samples grouped for one `# TYPE` block: the unlabeled global
/// value (if registered globally) plus `(scope index, value)` pairs for
/// each live scope carrying the name.
type SampleGroup<G, S> = BTreeMap<String, (Option<G>, Vec<(usize, S)>)>;

/// Renders the entire registry — counters, gauges, histograms, and every
/// live scope's series as labeled samples — as one Prometheus text
/// exposition body.
pub fn render() -> String {
    let scopes = scope::live_scopes();
    let mut out = String::new();

    // Counters: one `# TYPE` group per name holding the unlabeled global
    // sample followed by each live scope's labeled sample.
    let mut counters: SampleGroup<u64, u64> = BTreeMap::new();
    for (name, value) in metrics::counters_snapshot() {
        counters.entry(name).or_default().0 = Some(value);
    }
    for (i, s) in scopes.iter().enumerate() {
        for (name, value) in s.counters_snapshot() {
            counters.entry(name).or_default().1.push((i, value));
        }
    }
    for (name, (global, scoped)) in &counters {
        let metric = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        if let Some(value) = global {
            let _ = writeln!(out, "{metric} {value}");
        }
        for &(i, value) in scoped {
            let _ = writeln!(out, "{metric}{} {value}", label_block(scopes[i].labels()));
        }
    }

    // Gauges are global-only levels.
    for (name, value) in metrics::gauges_snapshot() {
        let metric = sanitize_name(&name);
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {value}");
    }

    // Histograms: global buckets plus per-scope labeled buckets.
    let mut histograms: SampleGroup<&'static Histogram, Arc<Histogram>> = BTreeMap::new();
    for h in metrics::histograms_registered() {
        histograms.entry(h.name().to_string()).or_default().0 = Some(h);
    }
    for (i, s) in scopes.iter().enumerate() {
        for h in s.histograms_registered() {
            histograms
                .entry(h.name().to_string())
                .or_default()
                .1
                .push((i, h));
        }
    }
    for (name, (global, scoped)) in &histograms {
        let metric = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {metric} histogram");
        if let Some(h) = global {
            render_histogram(&mut out, &metric, &[], h);
        }
        for (i, h) in scoped {
            render_histogram(&mut out, &metric, scopes[*i].labels(), h);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;

    #[test]
    fn sanitize_maps_invalid_characters() {
        assert_eq!(sanitize_name("exec_unit_us"), "exec_unit_us");
        assert_eq!(sanitize_name("http.request-time"), "http_request_time");
        assert_eq!(sanitize_name("7seas"), "_7seas");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    }

    #[test]
    fn label_block_renders_sorted_pairs_and_le() {
        let labels = vec![
            ("job_id".to_string(), "7".to_string()),
            ("tenant".to_string(), "a\"b".to_string()),
        ];
        assert_eq!(
            label_block_extra(&labels, Some("+Inf")),
            r#"{job_id="7",tenant="a\"b",le="+Inf"}"#
        );
        assert_eq!(label_block(&[]), "");
        assert_eq!(label_block_extra(&[], Some("3")), r#"{le="3"}"#);
    }

    #[test]
    fn render_exposes_counter_gauge_and_cumulative_histogram() {
        let _guard = crate::metrics::METRICS_TEST_LOCK.lock().unwrap();
        metrics::counter("prom_test_events").add(11);
        metrics::gauge("prom_test_level").set(-2);
        let h = metrics::histogram("prom_test_us");
        for v in [1u64, 1, 3] {
            h.record(v);
        }
        let body = render();
        assert!(body.contains("# TYPE prom_test_events counter\nprom_test_events 11\n"));
        assert!(body.contains("# TYPE prom_test_level gauge\nprom_test_level -2\n"));
        assert!(body.contains("# TYPE prom_test_us histogram\n"));
        assert!(body.contains("prom_test_us_bucket{le=\"1\"} 2\n"));
        assert!(body.contains("prom_test_us_bucket{le=\"3\"} 3\n"));
        assert!(body.contains("prom_test_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(body.contains("prom_test_us_sum 5\n"));
        assert!(body.contains("prom_test_us_count 3\n"));
    }

    #[test]
    fn scoped_series_render_as_labels_under_the_global_name() {
        let s = Scope::new(&[("job_id", "42"), ("tenant", "acme")]);
        metrics::counter("prom_test_scoped").add(9);
        {
            let _g = crate::scope::enter(&s);
            crate::scope::record_counter("prom_test_scoped", 4);
            crate::scope::record_histogram("prom_test_scoped_us", 3);
        }
        let body = render();
        let type_lines: Vec<&str> = body
            .lines()
            .filter(|l| *l == "# TYPE prom_test_scoped counter")
            .collect();
        assert_eq!(type_lines.len(), 1, "one TYPE group per metric name");
        assert!(body.contains("prom_test_scoped{job_id=\"42\",tenant=\"acme\"} 4\n"));
        assert!(
            body.contains("prom_test_scoped_us_bucket{job_id=\"42\",tenant=\"acme\",le=\"3\"} 1\n")
        );
        assert!(body.contains("prom_test_scoped_us_count{job_id=\"42\",tenant=\"acme\"} 1\n"));
        drop(s);
        let after = render();
        assert!(
            !after.contains("job_id=\"42\""),
            "dropped scopes must disappear from the scrape"
        );
    }

    #[test]
    fn histogram_buckets_ascend_and_accumulate() {
        let _guard = crate::metrics::METRICS_TEST_LOCK.lock().unwrap();
        let h = metrics::histogram("prom_test_cumulative");
        for v in [0u64, 2, 2, 9, 1000] {
            h.record(v);
        }
        let body = render();
        let mut last_bound = -1i128;
        let mut last_cum = 0u64;
        let mut saw_inf = false;
        for line in body.lines() {
            let Some(rest) = line.strip_prefix("prom_test_cumulative_bucket{le=\"") else {
                continue;
            };
            let (bound, value) = rest.split_once("\"} ").expect("bucket line shape");
            let cum: u64 = value.parse().expect("numeric cumulative");
            assert!(cum >= last_cum, "cumulative counts never decrease");
            last_cum = cum;
            if bound == "+Inf" {
                saw_inf = true;
                assert_eq!(cum, 5);
            } else {
                let b: i128 = bound.parse().expect("numeric bound");
                assert!(b > last_bound, "bounds strictly ascend");
                last_bound = b;
            }
        }
        assert!(saw_inf, "+Inf bucket is mandatory");
    }
}
