//! ASCII table rendering.
//!
//! The table-regeneration harnesses (Tables 1–3 of the paper) print their
//! output through [`AsciiTable`], which handles column sizing and alignment,
//! and through the paper-style number formatters below.

use std::fmt::Write as _;

/// A simple ASCII table builder: the first column left-aligned (labels),
/// the rest right-aligned (numbers).
///
/// # Example
///
/// ```
/// use hammervolt_stats::table::AsciiTable;
/// let mut t = AsciiTable::new(vec!["Module".into(), "HCfirst".into()]);
/// t.add_row(vec!["A0".into(), "39.8K".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("Module"));
/// assert!(rendered.contains("39.8K"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        AsciiTable {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the header width.
    pub fn add_row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        cells.truncate(self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table with a header separator line.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String], widths: &[usize]| {
            for (i, (cell, &width)) in cells.iter().zip(widths).enumerate() {
                let pad = width.saturating_sub(cell.chars().count());
                if i == 0 {
                    out.push_str(cell);
                    out.extend(std::iter::repeat_n(' ', pad));
                } else {
                    out.push_str("  ");
                    out.extend(std::iter::repeat_n(' ', pad));
                    out.push_str(cell);
                }
            }
            // trim trailing spaces on the line
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers, &widths);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            write_row(&mut out, row, &widths);
        }
        out
    }
}

/// Formats a hammer count the way the paper does: thousands with a `K` suffix
/// and one decimal (e.g. `39.8K`), plain digits below 1000.
pub fn fmt_kilo(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.1}K", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Formats a bit error rate in the paper's scientific style, e.g. `1.24e-03`.
pub fn fmt_ber(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = AsciiTable::new(vec!["Name".into(), "Value".into()]);
        t.add_row(vec!["alpha".into(), "1".into()]);
        t.add_row(vec!["b".into(), "12345".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // right-aligned numeric column: "1" should be preceded by spaces
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].ends_with("12345"));
        // left-aligned name column
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn short_and_long_rows_normalized() {
        let mut t = AsciiTable::new(vec!["A".into(), "B".into()]);
        t.add_row(vec!["x".into()]);
        t.add_row(vec!["y".into(), "1".into(), "extra".into()]);
        let r = t.render();
        assert_eq!(r.lines().count(), 4, "header, rule and two rows");
        assert!(!r.contains("extra"));
    }

    #[test]
    fn kilo_formatting_matches_paper_style() {
        assert_eq!(fmt_kilo(39_800.0), "39.8K");
        assert_eq!(fmt_kilo(300_000.0), "300.0K");
        assert_eq!(fmt_kilo(950.0), "950");
    }

    #[test]
    fn ber_formatting() {
        assert_eq!(fmt_ber(1.24e-3), "1.24e-3");
        assert_eq!(fmt_ber(0.0), "0");
    }
}
