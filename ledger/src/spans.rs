//! The benchmark's own tracer: every call into a layer is wrapped in a span
//! (name, start, end, parent), and spans are aggregated in memory per path —
//! count, total and self time — then written into the ledger at the end.
//!
//! Nothing here touches the library's observability registry, so the layer
//! table survives any rewrite of it.

use std::time::Instant;

#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
}

/// A live span stack over an aggregated call tree. Node 0 is the root span,
/// open from [`Tracer::new`] until [`Tracer::finish`].
#[derive(Debug)]
pub struct Tracer {
    nodes: Vec<Node>,
    stack: Vec<(usize, Instant)>,
}

impl Tracer {
    pub fn new(root: &'static str) -> Tracer {
        Tracer {
            nodes: vec![Node {
                name: root,
                children: Vec::new(),
                count: 0,
                total_ns: 0,
            }],
            stack: vec![(0, Instant::now())],
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().expect("root span is open").0;
        let found = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let idx = found.unwrap_or_else(|| {
            self.nodes.push(Node {
                name,
                children: Vec::new(),
                count: 0,
                total_ns: 0,
            });
            let idx = self.nodes.len() - 1;
            self.nodes[parent].children.push(idx);
            idx
        });
        self.stack.push((idx, Instant::now()));
    }

    /// Closes the innermost span and returns its duration in nanoseconds.
    pub fn exit(&mut self) -> u64 {
        let (idx, t0) = self.stack.pop().expect("exit matches an enter");
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let node = &mut self.nodes[idx];
        node.count += 1;
        node.total_ns += ns;
        ns
    }

    /// Closes the root span (and any span an error left open).
    pub fn finish(mut self) -> SpanTree {
        while !self.stack.is_empty() {
            self.exit();
        }
        SpanTree { nodes: self.nodes }
    }
}

/// Runs `f` inside a span named `name`; the span closes on every path out.
pub fn span<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
    t.enter(name);
    let out = f(t);
    t.exit();
    out
}

/// The nanoseconds one empty span costs (enter + exit), calibrated on a
/// scratch tracer.
pub fn empty_span_ns() -> f64 {
    const N: u32 = 200_000;
    let mut t = Tracer::new("calibrate");
    let t0 = Instant::now();
    for _ in 0..N {
        t.enter("empty");
        t.exit();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// One aggregated path of a finished tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStat {
    pub path: String,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// A finished, aggregated span tree.
#[derive(Debug, Clone)]
pub struct SpanTree {
    nodes: Vec<Node>,
}

impl SpanTree {
    fn self_ns(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        let children: u64 = node.children.iter().map(|&c| self.nodes[c].total_ns).sum();
        node.total_ns.saturating_sub(children)
    }

    /// Total seconds in spans named `name`, over every path.
    pub fn total_s(&self, name: &str) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.total_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Number of spans named `name`, over every path.
    pub fn count(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.count)
            .sum()
    }

    /// Every span closed, the root included.
    pub fn span_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.count).sum()
    }

    /// Wall seconds of the root span.
    pub fn root_s(&self) -> f64 {
        self.nodes[0].total_ns as f64 * 1e-9
    }

    /// Share of the root span's time that no child span covers.
    pub fn unattributed_ratio(&self) -> f64 {
        match self.nodes[0].total_ns {
            0 => 0.0,
            total => self.self_ns(0) as f64 / total as f64,
        }
    }

    /// Every path, depth first, as `root/child/...`.
    pub fn paths(&self) -> Vec<PathStat> {
        let mut out = Vec::new();
        let mut todo = vec![(0usize, String::new())];
        while let Some((idx, prefix)) = todo.pop() {
            let node = &self.nodes[idx];
            let path = if prefix.is_empty() {
                node.name.to_string()
            } else {
                format!("{prefix}/{}", node.name)
            };
            out.push(PathStat {
                path: path.clone(),
                count: node.count,
                total_s: node.total_ns as f64 * 1e-9,
                self_s: self.self_ns(idx) as f64 * 1e-9,
            });
            for &c in node.children.iter().rev() {
                todo.push((c, path.clone()));
            }
        }
        out
    }

    /// Adds `other`'s spans into this tree path by path (client threads of
    /// one run each keep their own tracer).
    pub fn merge(&mut self, other: &SpanTree) {
        fn walk(dst: &mut SpanTree, at: usize, src: &SpanTree, from: usize) {
            for &c in &src.nodes[from].children {
                let name = src.nodes[c].name;
                let found = dst.nodes[at]
                    .children
                    .iter()
                    .copied()
                    .find(|&d| dst.nodes[d].name == name);
                let idx = found.unwrap_or_else(|| {
                    dst.nodes.push(Node {
                        name,
                        children: Vec::new(),
                        count: 0,
                        total_ns: 0,
                    });
                    let idx = dst.nodes.len() - 1;
                    dst.nodes[at].children.push(idx);
                    idx
                });
                dst.nodes[idx].count += src.nodes[c].count;
                dst.nodes[idx].total_ns += src.nodes[c].total_ns;
                walk(dst, idx, src, c);
            }
        }
        walk(self, 0, other, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_per_path_with_self_time() {
        let mut t = Tracer::new("root");
        for _ in 0..3 {
            span(&mut t, "a", |t| span(t, "b", |_| ()));
        }
        span(&mut t, "b", |_| ());
        let tree = t.finish();
        let paths = tree.paths();
        let names: Vec<&str> = paths.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(names, ["root", "root/a", "root/a/b", "root/b"]);
        assert_eq!(paths[1].count, 3);
        assert_eq!(tree.count("b"), 4);
        assert_eq!(tree.span_count(), 1 + 3 + 3 + 1);
        assert!(paths[1].self_s <= paths[1].total_s);
        assert!((0.0..=1.0).contains(&tree.unattributed_ratio()));
    }

    #[test]
    fn merge_adds_matching_paths() {
        let mut a = Tracer::new("client");
        span(&mut a, "req", |_| ());
        let mut a = a.finish();
        let mut b = Tracer::new("client");
        span(&mut b, "req", |_| ());
        span(&mut b, "other", |_| ());
        a.merge(&b.finish());
        assert_eq!(a.count("req"), 2);
        assert_eq!(a.count("other"), 1);
    }
}
