//! `bench-ledger run`: a whole measuring session in one ledger file, and
//! `bench-ledger diff`: two ledgers compared metric by metric.

use crate::spec::{self, MetricDef};
use crate::stats::Summary;
use crate::workload::{Size, Workload};
use crate::{as_f64, spawn_pass, spawn_setup, Flags, PassSample, SETUP_PROBES};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// `setup_s` is not worse unless it grew by more than this many seconds as
/// well as by more than its bound.
const SETUP_FLOOR_S: f64 = 0.005;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn summary_value(s: &Summary, def: Option<&MetricDef>) -> Value {
    let mut fields = Vec::new();
    if let Some(def) = def {
        fields.push(("unit", Value::Str(def.unit.clone())));
        fields.push(("better", Value::Str(def.better.clone())));
        fields.push(("bound", Value::Float(def.bound)));
    }
    fields.extend([
        ("median", Value::Float(s.median)),
        ("q1", Value::Float(s.q1)),
        ("q3", Value::Float(s.q3)),
        ("min", Value::Float(s.min)),
        ("max", Value::Float(s.max)),
        ("n", Value::Int(s.n as i128)),
    ]);
    obj(fields)
}

fn hex(v: u64) -> Value {
    Value::Str(format!("{v:016x}"))
}

/// The traced run, in a child process of its own: the per-layer metrics,
/// the span table and the engine digest.
fn traced_child(w: Workload, seed: u64, size: Size) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "1", "--size", size.name()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the traced run: {e}"))?;
    let lines: Vec<String> = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .lines()
        .map_while(Result::ok)
        .collect();
    let status = child
        .wait()
        .map_err(|e| format!("traced run did not finish: {e}"))?;
    if !status.success() {
        return Err(format!("{} traced run exited with {status}", w.name()));
    }
    let detail = lines
        .iter()
        .find_map(|l| l.strip_prefix("ledger-trace "))
        .ok_or("traced run printed no span table")?;
    let result = lines.last().ok_or("traced run printed no result")?;
    let parse = |s: &str| serde_json::from_str::<Value>(s).map_err(|e| e.to_string());
    Ok((parse(detail)?, parse(result)?))
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `bench-ledger run`: per workload one discarded warm-up pass, then `runs`
/// untraced passes round-robin across workloads, then one traced run each;
/// every pass in a fresh process. Writes the ledger and prints its summary.
pub fn run(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let runs: usize = flags.num("runs", 5)?;
    let seed: u64 = flags.num("seed", 0)?;
    let size = flags.size()?;
    let out = flags.get("out").map_or_else(
        || crate::scratch_dir("ledger").with_extension("json"),
        std::path::PathBuf::from,
    );
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    // Per workload and run: the median set-up probe and the pass.
    let mut samples: Vec<Vec<Result<(f64, PassSample), String>>> =
        Workload::ALL.iter().map(|_| Vec::new()).collect();
    for w in Workload::ALL {
        eprintln!("session: warm-up {}", w.name());
        if let Err(e) = spawn_pass(w, seed, size) {
            eprintln!("session: warm-up failed: {e}");
        }
    }
    for k in 0..runs {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("session: run {}/{runs} {}", k + 1, w.name());
            let setups = (0..SETUP_PROBES)
                .map(|_| spawn_setup(w, seed, size))
                .collect::<Result<Vec<f64>, _>>();
            samples[wi].push(
                setups.and_then(|s| Ok((crate::stats::median(&s), spawn_pass(w, seed, size)?))),
            );
        }
    }
    let mut workloads = Vec::new();
    let mut any_failed = false;
    for (w, runs) in Workload::ALL.into_iter().zip(&samples) {
        eprintln!("session: traced {}", w.name());
        let (detail, traced) = traced_child(w, seed, size)?;
        let pinned = crate::pinned(w, seed, size);
        let traced_digest = match detail.field("digest") {
            Value::Str(h) => u64::from_str_radix(h, 16).ok(),
            _ => None,
        };
        let reference = pinned.or(traced_digest);
        let mut ratios = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        for r in runs {
            let (a, f) = match r {
                Ok((_, p)) if Some(p.digest) == reference => (p.attempted, p.failed),
                Ok((_, p)) => (p.attempted, p.attempted),
                Err(_) => (1, 1),
            };
            attempted += a;
            failed += f;
            ratios.push(f as f64 / a as f64);
        }
        let traced_failed = traced.field("failed");
        let traced_ok = matches!(traced.field("correct"), Value::Bool(true));
        any_failed |= failed > 0 || !traced_ok;
        let ok: Vec<&(f64, PassSample)> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
        let mut e2e = Vec::new();
        for def in spec::end_to_end() {
            let values: Vec<f64> = ok
                .iter()
                .map(|(setup_s, p)| match def.name.as_str() {
                    "wall_s" => p.wall_s,
                    "setup_s" => *setup_s,
                    "peak_rss_mb" => p.peak_rss_mb,
                    other => panic!("no measurement defines end-to-end metric {other:?}"),
                })
                .collect();
            e2e.push((
                def.name.clone(),
                summary_value(&Summary::of(&values), Some(&def)),
            ));
        }
        let failed_ratio = MetricDef {
            name: "failed_ratio".to_string(),
            unit: "fraction".to_string(),
            better: "lower".to_string(),
            bound: 0.0,
        };
        e2e.push((
            failed_ratio.name.clone(),
            summary_value(&Summary::of(&ratios), Some(&failed_ratio)),
        ));
        let mut extras: Vec<(String, Vec<f64>)> = Vec::new();
        for (_, p) in &ok {
            for (k, v) in &p.extras {
                match extras.iter_mut().find(|(n, _)| n == k) {
                    Some((_, vs)) => vs.push(*v),
                    None => extras.push((k.clone(), vec![*v])),
                }
            }
        }
        let extras = extras
            .into_iter()
            .map(|(k, vs)| (k, summary_value(&Summary::of(&vs), None)))
            .collect();
        workloads.push((
            w.name().to_string(),
            obj(vec![
                ("digest", reference.map_or(Value::Null, hex)),
                ("pinned", pinned.map_or(Value::Null, hex)),
                ("attempted", Value::Int(attempted.into())),
                ("failed", Value::Int(failed.into())),
                ("traced_correct", Value::Bool(traced_ok)),
                ("traced_failed", traced_failed.clone()),
                ("e2e", Value::Object(e2e)),
                ("extras", Value::Object(extras)),
                ("layers", traced.field("metrics").clone()),
                ("spans", detail.field("spans").clone()),
            ]),
        ));
    }
    let ledger = obj(vec![
        ("ledger", Value::Int(1)),
        ("commit", Value::Str(commit())),
        ("nproc", Value::Int(nproc() as i128)),
        ("seed", Value::Int(seed.into())),
        ("runs", Value::Int(runs as i128)),
        ("size", Value::Str(size.name().to_string())),
        ("workloads", Value::Object(workloads)),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let text = serde_json::to_string_pretty(&ledger).expect("JSON encodes");
    std::fs::write(&out, text + "\n").map_err(|e| format!("cannot write {out:?}: {e}"))?;
    print_summary(&ledger);
    println!("ledger written to {}", out.display());
    Ok(i32::from(any_failed))
}

fn num(v: &Value, key: &str) -> f64 {
    as_f64(v.field(key)).unwrap_or(f64::NAN)
}

fn summary_of(v: &Value) -> Summary {
    Summary {
        median: num(v, "median"),
        q1: num(v, "q1"),
        q3: num(v, "q3"),
        min: num(v, "min"),
        max: num(v, "max"),
        n: num(v, "n") as usize,
    }
}

fn entries(v: &Value) -> &[(String, Value)] {
    v.as_object().unwrap_or(&[])
}

/// `b / a`, or `-` when `a` is zero.
fn ratio(a: f64, b: f64) -> String {
    if a == 0.0 {
        "-".to_string()
    } else {
        format!("{:.4}", b / a)
    }
}

fn print_summary(ledger: &Value) {
    println!(
        "commit {}  nproc {}  seed {}  runs {}",
        match ledger.field("commit") {
            Value::Str(s) => s.as_str(),
            _ => "?",
        },
        num(ledger, "nproc"),
        num(ledger, "seed"),
        num(ledger, "runs"),
    );
    println!(
        "{:<17} {:<26} {:>12} {:>12} {:>12} {:>3}",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for (name, w) in entries(ledger.field("workloads")) {
        for (metric, s) in entries(w.field("e2e"))
            .iter()
            .chain(entries(w.field("extras")))
        {
            let s = summary_of(s);
            println!(
                "{name:<17} {metric:<26} {:>12.6} {:>12.6} {:>12.6} {:>3}",
                s.median, s.q1, s.q3, s.n
            );
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a ledger: {e}"))
}

/// How one metric moved from ledger A to ledger B.
fn verdict(name: &str, def: &Value, a: &Summary, b: &Summary) -> &'static str {
    let lower = matches!(def.field("better"), Value::Str(s) if s == "lower");
    let bound = num(def, "bound");
    let floor = if name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let worse_by = if lower {
        b.median - a.median
    } else {
        a.median - b.median
    };
    let allowed = (bound * a.median.abs()).max(floor);
    let all_better = if lower { b.max < a.min } else { b.min > a.max };
    if bound > 0.0 && a.rel_iqr().max(b.rel_iqr()) > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > allowed {
        "worse"
    } else if -worse_by > allowed {
        "better"
    } else {
        "within bound"
    }
}

/// `bench-ledger diff A.json B.json`: exit 1 when any end-to-end metric of B
/// is worse than A's by more than its bound, or B fails more.
pub fn diff(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err("diff takes two ledger files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if num(&a, "nproc") != num(&b, "nproc") {
        eprintln!(
            "warning: nproc differs ({} vs {}); timings are not comparable",
            num(&a, "nproc"),
            num(&b, "nproc")
        );
    }
    let mut regressed = false;
    println!(
        "{:<17} {:<13} {:>12} {:>8} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A"
    );
    for (name, wa) in entries(a.field("workloads")) {
        let wb = b.field("workloads").field(name);
        if wb.as_object().is_none() {
            println!("{name:<17} missing from B");
            continue;
        }
        for (metric, def) in entries(wa.field("e2e")) {
            let sa = summary_of(def);
            let sb = summary_of(wb.field("e2e").field(metric));
            let v = verdict(metric, def, &sa, &sb);
            regressed |= v == "worse";
            println!(
                "{name:<17} {metric:<13} {:>12.6} {:>7.2}% {:>12.6} {:>7.2}% {:>8}  {v}",
                sa.median,
                100.0 * sa.rel_iqr(),
                sb.median,
                100.0 * sb.rel_iqr(),
                ratio(sa.median, sb.median)
            );
        }
    }
    println!(
        "\n{:<17} {:<28} {:>14} {:>14} {:>8}",
        "workload", "layer", "A", "B", "B/A"
    );
    for (name, wa) in entries(a.field("workloads")) {
        for (layer, va) in entries(wa.field("layers")) {
            let x = num(va, "value");
            let y = num(
                b.field("workloads")
                    .field(name)
                    .field("layers")
                    .field(layer),
                "value",
            );
            // A layer both runs bypass reads zero in both.
            if x != 0.0 || y != 0.0 {
                println!(
                    "{name:<17} {layer:<28} {x:>14.6} {y:>14.6} {:>8}",
                    ratio(x, y)
                );
            }
        }
    }
    Ok(i32::from(regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: &str, bound: f64) -> Value {
        obj(vec![
            ("better", Value::Str(better.to_string())),
            ("bound", Value::Float(bound)),
        ])
    }

    fn runs(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let a = runs(&[10.0, 10.1, 10.2, 10.1, 10.0]);
        let lower = def("lower", 0.05);
        assert_eq!(verdict("wall_s", &lower, &a, &a), "within bound");
        let slow = runs(&[11.5, 11.6, 11.5, 11.4, 11.5]);
        assert_eq!(verdict("wall_s", &lower, &a, &slow), "worse");
        assert_eq!(verdict("wall_s", &lower, &slow, &a), "better");
        let noisy = runs(&[8.0, 12.0, 10.0, 14.0, 9.0]);
        assert_eq!(verdict("wall_s", &lower, &a, &noisy), "unresolved");
        // failed_ratio: any increase is worse.
        let zero = runs(&[0.0, 0.0]);
        let some = runs(&[0.0, 0.01]);
        assert_eq!(
            verdict("failed_ratio", &def("lower", 0.0), &zero, &some),
            "worse"
        );
        // setup_s gets an absolute floor on top of its bound.
        let setup_a = runs(&[0.0020, 0.0020, 0.0021]);
        let setup_b = runs(&[0.0030, 0.0030, 0.0031]);
        assert_eq!(
            verdict("setup_s", &def("lower", 0.25), &setup_a, &setup_b),
            "within bound"
        );
    }
}
