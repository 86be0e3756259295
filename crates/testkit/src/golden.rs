//! Content-hashed golden snapshots.
//!
//! A golden is a JSONL file under `goldens/`: a header line carrying the
//! snapshot name, an FNV-1a-64 content hash, and the payload line count,
//! followed by one JSON line per payload item. The hash makes silent edits
//! to a checked-in file detectable independently of the comparison against
//! freshly computed payloads, and gives CI a one-token drift signal.

use hammervolt_core::exec::{fnv1a64, FNV_OFFSET};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One golden snapshot: a named, ordered list of JSON payload lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// Snapshot name (also the file stem under `goldens/`).
    pub name: String,
    /// Payload lines, one JSON document per line.
    pub lines: Vec<String>,
}

impl Golden {
    /// Builds a golden with one line per serialized item.
    pub fn from_items<T: Serialize>(name: &str, items: &[T]) -> Self {
        Golden {
            name: name.to_string(),
            lines: items
                .iter()
                .map(|it| serde_json::to_string(it).expect("golden item serializes"))
                .collect(),
        }
    }

    /// Builds a single-line golden from one serializable value.
    pub fn single<T: Serialize>(name: &str, value: &T) -> Self {
        Golden {
            name: name.to_string(),
            lines: vec![serde_json::to_string(value).expect("golden value serializes")],
        }
    }

    /// FNV-1a-64 over the payload lines (newline-joined), as printed in the
    /// header.
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for line in &self.lines {
            h = fnv1a64(line.as_bytes(), h);
            h = fnv1a64(b"\n", h);
        }
        h
    }

    /// Renders the full file form: header plus payload lines, trailing
    /// newline included.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# golden {} fnv={:016x} lines={}\n",
            self.name,
            self.content_hash(),
            self.lines.len()
        );
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Parses a rendered golden file, verifying the header against the
    /// payload it arrived with (a hand-edited or truncated file fails
    /// here, before any comparison).
    ///
    /// # Errors
    ///
    /// Returns a description of the defect: missing/malformed header, line
    /// count mismatch, or a stored hash that does not match the stored
    /// payload.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty golden file")?;
        let rest: Vec<String> = lines.map(str::to_string).collect();
        let mut fields = header.split_whitespace();
        if fields.next() != Some("#") || fields.next() != Some("golden") {
            return Err(format!("malformed golden header: {header:?}"));
        }
        let name = fields
            .next()
            .ok_or_else(|| format!("header missing name: {header:?}"))?
            .to_string();
        let mut stored_hash = None;
        let mut stored_lines = None;
        for field in fields {
            if let Some(v) = field.strip_prefix("fnv=") {
                stored_hash = u64::from_str_radix(v, 16).ok();
            } else if let Some(v) = field.strip_prefix("lines=") {
                stored_lines = v.parse::<usize>().ok();
            }
        }
        let stored_hash = stored_hash.ok_or_else(|| format!("header missing fnv=: {header:?}"))?;
        let stored_lines =
            stored_lines.ok_or_else(|| format!("header missing lines=: {header:?}"))?;
        let golden = Golden { name, lines: rest };
        if golden.lines.len() != stored_lines {
            return Err(format!(
                "golden {}: header claims {} lines, file has {} (truncated?)",
                golden.name,
                stored_lines,
                golden.lines.len()
            ));
        }
        let actual = golden.content_hash();
        if actual != stored_hash {
            return Err(format!(
                "golden {}: stored hash {stored_hash:016x} does not match content \
                 {actual:016x} (file edited without regenerating?)",
                golden.name
            ));
        }
        Ok(golden)
    }

    /// Compares this (checked-in) golden against a freshly `computed` one.
    /// `None` when identical; otherwise a human-readable drift summary:
    /// hashes, line counts, and the first differing line pair.
    pub fn diff(&self, computed: &Golden) -> Option<String> {
        if self.lines == computed.lines {
            return None;
        }
        let mut s = format!(
            "golden {} drifted: checked-in fnv={:016x} ({} lines) vs computed \
             fnv={:016x} ({} lines)",
            self.name,
            self.content_hash(),
            self.lines.len(),
            computed.content_hash(),
            computed.lines.len(),
        );
        let first_diff = self
            .lines
            .iter()
            .zip(&computed.lines)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| self.lines.len().min(computed.lines.len()));
        let show = |lines: &[String]| {
            lines
                .get(first_diff)
                .map(|l| truncate_line(l, 160))
                .unwrap_or_else(|| "<missing>".to_string())
        };
        let _ = write!(
            s,
            "\n  first difference at line {}\n    checked-in: {}\n    computed:   {}",
            first_diff + 1,
            show(&self.lines),
            show(&computed.lines),
        );
        Some(s)
    }
}

fn truncate_line(line: &str, max: usize) -> String {
    if line.len() <= max {
        line.to_string()
    } else {
        format!("{}… ({} bytes)", &line[..max], line.len())
    }
}

/// The checked-in golden directory (`crates/testkit/goldens`).
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// The file path of one named golden.
pub fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Golden {
        Golden {
            name: "sample".into(),
            lines: vec![r#"{"a":1}"#.into(), r#"{"b":2.5}"#.into()],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let g = sample();
        let parsed = Golden::parse(&g.render()).unwrap();
        assert_eq!(parsed, g);
        assert!(g.diff(&parsed).is_none());
    }

    #[test]
    fn parse_rejects_tampered_payload() {
        let g = sample();
        let tampered = g.render().replace("2.5", "2.6");
        let err = Golden::parse(&tampered).unwrap_err();
        assert!(err.contains("does not match content"), "{err}");
    }

    #[test]
    fn parse_rejects_truncation() {
        let g = sample();
        let rendered = g.render();
        let truncated: String = rendered.lines().take(2).map(|l| format!("{l}\n")).collect();
        let err = Golden::parse(&truncated).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = sample();
        let mut b = sample();
        b.lines[1] = r#"{"b":99}"#.into();
        let d = a.diff(&b).expect("must drift");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains(r#"{"b":2.5}"#), "{d}");
        assert!(d.contains(r#"{"b":99}"#), "{d}");
    }

    #[test]
    fn hash_is_order_sensitive() {
        let a = sample();
        let mut b = sample();
        b.lines.reverse();
        assert_ne!(a.content_hash(), b.content_hash());
    }
}
