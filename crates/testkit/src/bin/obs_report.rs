//! Human-readable report over run manifests: counters and phase wall times,
//! as a table for one manifest or a diff table for two.
//!
//! ```text
//! obs-report <manifest.json>              # one run: counter + phase tables
//! obs-report <a.json> <b.json>            # two runs: A/B diff tables
//! ```
//!
//! With two manifests the diff lists every counter and phase present in
//! either, with its value in A, in B, the delta (B − A), and the B/A ratio,
//! for comparing a run against a baseline (e.g. the `sweep:*` and `emit`
//! phases of two worker counts). Rows missing from one side print `-` and
//! ratio is omitted when A is 0.
//!
//! Exit status: 0 on success, 1 on unreadable/invalid manifests, 2 on usage
//! errors.

use serde::Value;

const USAGE: &str = "usage: obs-report <manifest.json> [<manifest-b.json>]";

/// Loads a manifest and flattens one of its object sections into sorted
/// `(name, value)` pairs.
fn section(m: &Value, key: &str) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = m
        .field(key)
        .as_object()
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::Int(i) => u64::try_from(*i).ok().map(|v| (k.clone(), v)),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// Flattens the manifest's string-valued `annotations` object into sorted
/// `(name, value)` pairs (config hash, worker count, ...).
fn annotations(m: &Value) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = m
        .field("annotations")
        .as_object()
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(k, v)| match v {
                    Value::Str(s) => Some((k.clone(), s.clone())),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// Prints the annotations as a `name value` table when any are present.
fn print_annotations(title: &str, rows: &[(String, String)]) {
    if rows.is_empty() {
        return;
    }
    println!("\n{title}");
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
    println!("{:width$}  value", "name");
    for (name, value) in rows {
        println!("{name:width$}  {value}");
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: unreadable ({e})"))?;
    let v: Value =
        serde_json::from_str(text.trim()).map_err(|e| format!("{path}: not valid JSON ({e})"))?;
    if v.as_object().is_none() {
        return Err(format!("{path}: manifest is not a JSON object"));
    }
    Ok(v)
}

fn bin_of(m: &Value) -> String {
    match m.field("bin") {
        Value::Str(s) => s.clone(),
        _ => "?".to_string(),
    }
}

fn wall_of(m: &Value) -> u64 {
    match m.field("wall_us") {
        Value::Int(i) => u64::try_from(*i).unwrap_or(0),
        _ => 0,
    }
}

/// Prints one `name value` table with a heading.
fn print_single(title: &str, rows: &[(String, u64)]) {
    println!("\n{title}");
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(4).max(4);
    println!("{:width$}  {:>12}", "name", "value");
    for (name, value) in rows {
        println!("{name:width$}  {value:>12}");
    }
}

/// Merges two sorted `(name, value)` lists into `(name, a, b)` rows keyed by
/// the union of names.
fn merge(a: &[(String, u64)], b: &[(String, u64)]) -> Vec<(String, Option<u64>, Option<u64>)> {
    let mut names: Vec<&String> = a.iter().chain(b.iter()).map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    let find = |rows: &[(String, u64)], name: &str| {
        rows.binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|at| rows[at].1)
    };
    names
        .into_iter()
        .map(|name| (name.clone(), find(a, name), find(b, name)))
        .collect()
}

/// Prints an A/B diff table with delta and ratio columns.
fn print_diff(title: &str, a: &[(String, u64)], b: &[(String, u64)]) {
    let rows = merge(a, b);
    println!("\n{title}");
    let width = rows
        .iter()
        .map(|(n, _, _)| n.len())
        .max()
        .unwrap_or(4)
        .max(4);
    println!(
        "{:width$}  {:>12}  {:>12}  {:>13}  {:>8}",
        "name", "a", "b", "delta", "ratio"
    );
    for (name, a, b) in rows {
        let cell = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        let delta = match (a, b) {
            (Some(a), Some(b)) => format!("{:+}", i128::from(b) - i128::from(a)),
            _ => "-".to_string(),
        };
        let ratio = match (a, b) {
            (Some(a), Some(b)) if a > 0 => format!("{:.3}", b as f64 / a as f64),
            _ => "-".to_string(),
        };
        println!(
            "{name:width$}  {:>12}  {:>12}  {delta:>13}  {ratio:>8}",
            cell(a),
            cell(b)
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path_a, path_b) = match args.as_slice() {
        [a] => (a.clone(), None),
        [a, b] => (a.clone(), Some(b.clone())),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let manifest_a = match load(&path_a) {
        Ok(m) => m,
        Err(e) => {
            println!("FAIL {e}");
            std::process::exit(1);
        }
    };
    match path_b {
        None => {
            println!(
                "manifest {path_a}: bin {}, wall {} us",
                bin_of(&manifest_a),
                wall_of(&manifest_a)
            );
            print_single("phases (us)", &section(&manifest_a, "phases"));
            print_single("counters", &section(&manifest_a, "counters"));
            print_annotations("annotations", &annotations(&manifest_a));
        }
        Some(path_b) => {
            let manifest_b = match load(&path_b) {
                Ok(m) => m,
                Err(e) => {
                    println!("FAIL {e}");
                    std::process::exit(1);
                }
            };
            println!(
                "a: {path_a} (bin {}, wall {} us)",
                bin_of(&manifest_a),
                wall_of(&manifest_a)
            );
            println!(
                "b: {path_b} (bin {}, wall {} us)",
                bin_of(&manifest_b),
                wall_of(&manifest_b)
            );
            print_diff(
                "phases (us)",
                &section(&manifest_a, "phases"),
                &section(&manifest_b, "phases"),
            );
            print_diff(
                "counters",
                &section(&manifest_a, "counters"),
                &section(&manifest_b, "counters"),
            );
            print_annotations("annotations (a)", &annotations(&manifest_a));
            print_annotations("annotations (b)", &annotations(&manifest_b));
        }
    }
}
