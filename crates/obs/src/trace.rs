//! Lightweight spans with monotonic timing, emitted as JSONL on drop.
//!
//! A span measures one named region of work. Within a thread, spans nest
//! automatically through a thread-local stack; across threads (the sweep
//! span lives on the coordinator while shard spans live on workers) the
//! parent is passed explicitly via [`Span::begin_child_of`].
//!
//! Each span becomes exactly one event line when it ends:
//!
//! ```json
//! {"type":"span","id":7,"parent":3,"name":"exec.shard","start_us":120,"dur_us":4512,"module":"A0"}
//! ```
//!
//! Spans are inert (no allocation, no clock read) when tracing is disabled;
//! the only cost is one relaxed atomic load at construction.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json;

/// Span ids are unique per process and never zero (zero means "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open trace span. Dropping it emits the event line.
///
/// The inactive variant (tracing disabled at construction) is a no-op
/// carrying no state.
#[derive(Debug)]
pub struct Span {
    inner: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    start_us: u64,
    /// Extra fields as pre-rendered `"key":value` JSON fragments.
    fields: Vec<(String, String)>,
    /// Whether this span was pushed on the thread-local stack.
    on_stack: bool,
}

impl Span {
    /// Opens a span named `name`, parented to the innermost span already
    /// open on this thread (if any). No-op when tracing is disabled.
    pub fn begin(name: &'static str) -> Span {
        if !crate::tracing_enabled() {
            return Span { inner: None };
        }
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        Span::open(name, parent, true)
    }

    /// Opens a span with an explicit parent id — for work handed to another
    /// thread, where the thread-local stack can't see the logical parent.
    /// `parent` of `0` means root. No-op when tracing is disabled.
    pub fn begin_child_of(parent: u64, name: &'static str) -> Span {
        if !crate::tracing_enabled() {
            return Span { inner: None };
        }
        Span::open(name, parent, true)
    }

    fn open(name: &'static str, parent: u64, on_stack: bool) -> Span {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        if on_stack {
            SPAN_STACK.with(|s| s.borrow_mut().push(id));
        }
        Span {
            inner: Some(ActiveSpan {
                id,
                parent,
                name,
                start: Instant::now(),
                start_us: crate::epoch_us(),
                fields: Vec::new(),
                on_stack,
            }),
        }
    }

    /// This span's id, for parenting cross-thread children; `0` when
    /// tracing is disabled.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id)
    }

    /// Attaches an unsigned-integer field to the span's event line.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        if let Some(s) = self.inner.as_mut() {
            s.fields.push((key.to_string(), v.to_string()));
        }
    }

    /// Attaches a string field to the span's event line.
    pub fn field_str(&mut self, key: &str, v: &str) {
        if let Some(s) = self.inner.as_mut() {
            let mut rendered = String::with_capacity(v.len() + 2);
            json::write_str(&mut rendered, v);
            s.fields.push((key.to_string(), rendered));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else { return };
        if s.on_stack {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                // Normally the top of the stack; tolerate out-of-order drops.
                if let Some(pos) = stack.iter().rposition(|&id| id == s.id) {
                    stack.remove(pos);
                }
            });
        }
        let dur_us = u64::try_from(s.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut w = json::ObjectWriter::new();
        w.field_str("type", "span");
        w.field_u64("id", s.id);
        w.field_u64("parent", s.parent);
        w.field_str("name", s.name);
        w.field_u64("start_us", s.start_us);
        w.field_u64("dur_us", dur_us);
        for (key, rendered) in &s.fields {
            w.field_raw(key, rendered);
        }
        crate::emit_event(&w.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::METRICS_TEST_LOCK;
    use crate::MemorySink;
    use std::sync::Arc;

    #[test]
    fn disabled_span_is_inert() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        crate::set_tracing(false);
        let mut span = Span::begin("trace_test_inert");
        span.field_u64("n", 1);
        assert_eq!(span.id(), 0);
        drop(span); // must not emit or panic
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        crate::set_sink(Some(sink.clone()));
        crate::set_tracing(true);

        let outer = Span::begin("trace_test_outer");
        let outer_id = outer.id();
        {
            let inner = Span::begin("trace_test_inner");
            assert_ne!(inner.id(), 0);
        }
        drop(outer);

        crate::set_tracing(false);
        crate::set_sink(None);

        let lines = sink.lines();
        let inner_line = lines
            .iter()
            .find(|l| l.contains("trace_test_inner"))
            .expect("inner span emitted");
        assert!(
            inner_line.contains(&format!("\"parent\":{outer_id}")),
            "inner span should parent to outer: {inner_line}"
        );
        let outer_line = lines
            .iter()
            .find(|l| l.contains("trace_test_outer"))
            .expect("outer span emitted");
        assert!(outer_line.contains("\"parent\":0"));
        assert!(outer_line.contains("\"type\":\"span\""));
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _guard = METRICS_TEST_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        crate::set_sink(Some(sink.clone()));
        crate::set_tracing(true);

        let root = Span::begin("trace_test_root");
        let root_id = root.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut child = Span::begin_child_of(root_id, "trace_test_worker");
                child.field_str("module", "A0");
            });
        });
        drop(root);

        crate::set_tracing(false);
        crate::set_sink(None);

        let lines = sink.lines();
        let child_line = lines
            .iter()
            .find(|l| l.contains("trace_test_worker"))
            .expect("worker span emitted");
        assert!(child_line.contains(&format!("\"parent\":{root_id}")));
        assert!(child_line.contains("\"module\":\"A0\""));
    }
}
