//! `bench-ledger`: the repository benchmark — four workloads measured end to
//! end (untraced, one fresh process per pass) and layer by layer (a traced
//! serial replay through each layer's public API). See `README.md`.

mod alg;
mod population;
mod quick;
mod serve;
mod session;
mod spans;
mod spec;
mod spice;
mod stats;
mod workload;

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workload::{Size, Workload};

const USAGE: &str = "usage:
  bench-ledger --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
  bench-ledger run [--runs K] [--seed N] [--out PATH] [--size full|tiny]
  bench-ledger diff A.json B.json
  bench-ledger emit --workload NAME [--seed N] [--size full|tiny]
workloads: quick_study population_fleet serve_mix spice_mc";

/// Passes per untraced run however short `--seconds` is; the run reports
/// their median.
const MIN_PASSES: usize = 3;

/// Set-up probes per run (and per session run); `setup_s` is their median.
pub const SETUP_PROBES: usize = 25;

/// A fresh directory path under the package's `tmp/`, unique within this
/// process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
}

fn main() {
    // Every compute path runs 2 workers; the SPICE runner takes its worker
    // count from this variable. Set before any thread starts.
    std::env::set_var("HAMMERVOLT_JOBS", "2");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => session::run(&args[1..]),
        Some("diff") => session::diff(&args[1..]),
        Some("setup") => setup_child(&args[1..]),
        Some("pass") => pass_child(&args[1..]),
        Some("emit") => emit(&args[1..]),
        _ => measure(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bench-ledger: {e}\n{USAGE}");
            std::process::exit(1);
        }
    }
}

/// `--name value` flags.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}"))
        })
    }

    pub fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    pub fn size(&self) -> Result<Size, String> {
        let name = self.get("size").unwrap_or("full");
        Size::parse(name).ok_or_else(|| format!("unknown size {name:?}"))
    }
}

/// The pinned digest a run's output must equal, when the run is the pinned
/// configuration.
fn pinned(w: Workload, seed: u64, size: Size) -> Option<u64> {
    (seed == spec::PINNED_SEED && size == Size::Full)
        .then(|| spec::pinned_digest(w.name()))
        .flatten()
}

/// The result line the benchmark prints last.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    let obj = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(attempted.into())),
        ("failed".to_string(), Value::Int(failed.into())),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&obj).expect("JSON encodes")
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

/// One pass measured in its own process.
pub struct PassSample {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub extras: Vec<(String, f64)>,
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    as_f64(v.field(key))
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match v.field(key) {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn child(sub: &str, w: Workload, seed: u64, size: Size) -> Result<std::process::Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    Command::new(exe)
        .args([sub, "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--size", size.name()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a {sub} process: {e}"))
}

/// One set-up probe in a fresh process: its speed-scaled set-up seconds
/// (see [`setup_child`]). Waits for the process to exit.
pub fn spawn_setup(w: Workload, seed: u64, size: Size) -> Result<f64, String> {
    let mut probe = child("setup", w, seed, size)?;
    let mut line = String::new();
    let read = BufReader::new(probe.stdout.take().expect("stdout is piped")).read_line(&mut line);
    let status = probe
        .wait()
        .map_err(|e| format!("set-up probe did not finish: {e}"))?;
    let setup_s = line
        .strip_prefix("ready ")
        .and_then(|s| s.trim_end().parse().ok());
    match (read, setup_s) {
        (Ok(_), Some(s)) if status.success() => Ok(s),
        _ => Err(format!("{} set-up probe exited with {status}", w.name())),
    }
}

/// Runs one pass in a child process, which prints its result as one JSON
/// line. Waits for the process to exit.
pub fn spawn_pass(w: Workload, seed: u64, size: Size) -> Result<PassSample, String> {
    let mut pass = child("pass", w, seed, size)?;
    let result = BufReader::new(pass.stdout.take().expect("stdout is piped"))
        .lines()
        .next();
    let status = pass
        .wait()
        .map_err(|e| format!("pass did not finish: {e}"))?;
    if !status.success() {
        return Err(format!("{} pass exited with {status}", w.name()));
    }
    let line = result
        .and_then(Result::ok)
        .ok_or_else(|| format!("{} pass printed no result", w.name()))?;
    let v: Value = serde_json::from_str(&line).map_err(|e| format!("bad pass result: {e}"))?;
    let missing = || format!("incomplete pass result: {line}");
    let digest = match v.field("digest") {
        Value::Str(hex) => u64::from_str_radix(hex, 16).map_err(|_| missing())?,
        _ => return Err(missing()),
    };
    let extras = v
        .field("extras")
        .as_object()
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, x)| Some((k.clone(), as_f64(x)?)))
        .collect();
    Ok(PassSample {
        wall_s: field_f64(&v, "wall_s").ok_or_else(missing)?,
        peak_rss_mb: field_f64(&v, "peak_rss_mb").ok_or_else(missing)?,
        digest,
        attempted: field_u64(&v, "attempted").ok_or_else(missing)?,
        failed: field_u64(&v, "failed").ok_or_else(missing)?,
        extras,
    })
}

/// Host-speed probe: a fixed integer kernel no repository change touches,
/// about 30 µs on the 2-vCPU host the bounds were set on.
fn host_kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut x = 0u64;
    let mut acc = 0u64;
    for _ in 0..20_000 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The kernel's time at which [`setup_child`] reports set-up unscaled.
const HOST_KERNEL_NOMINAL_S: f64 = 28e-6;

/// `bench-ledger setup`: parse, set up, report the set-up time, tear down.
///
/// Set-up takes micro- to milliseconds, and on a shared host a vCPU runs at
/// one of two speeds for minutes at a time (1.6–1.8× apart), so a raw time
/// mostly measures which speed the probe met. The host kernel runs right
/// before and after set-up, at the same speed; the reported time is scaled
/// by the kernel's nominal time over its measured time.
fn setup_child(args: &[String]) -> Result<i32, String> {
    let before = host_kernel_s();
    let t0 = Instant::now();
    let flags = Flags::parse(args)?;
    let prepared = flags
        .workload()?
        .prepare(flags.num("seed", 0)?, flags.size()?)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let kernel_s = (before + host_kernel_s()) / 2.0;
    println!("ready {}", setup_s * HOST_KERNEL_NOMINAL_S / kernel_s);
    prepared.finish();
    Ok(0)
}

/// `bench-ledger pass`: set up, run one pass, report it.
fn pass_child(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let prepared = flags
        .workload()?
        .prepare(flags.num("seed", 0)?, flags.size()?)?;
    let out = prepared.pass();
    prepared.finish();
    let out = out?;
    let extras = out
        .extras
        .iter()
        .map(|&(k, v)| (k.to_string(), Value::Float(v)))
        .collect();
    let line = Value::Object(vec![
        ("wall_s".to_string(), Value::Float(out.wall_s)),
        (
            "peak_rss_mb".to_string(),
            Value::Float(stats::peak_rss_mb()?),
        ),
        (
            "digest".to_string(),
            Value::Str(format!("{:016x}", stats::fnv1a64(&out.payload))),
        ),
        ("attempted".to_string(), Value::Int(out.attempted.into())),
        ("failed".to_string(), Value::Int(out.failed.into())),
        ("extras".to_string(), Value::Object(extras)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("JSON encodes"));
    Ok(0)
}

/// `bench-ledger emit`: one pass's output bytes on stdout (the quick study's
/// equal `hammervolt sweep; trcd; retention --jobs 2`), digest on stderr.
fn emit(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let w = flags.workload()?;
    let prepared = w.prepare(flags.num("seed", 0)?, flags.size()?)?;
    let out = prepared.pass();
    prepared.finish();
    let out = out?;
    std::io::stdout()
        .lock()
        .write_all(&out.payload)
        .map_err(|e| e.to_string())?;
    eprintln!("{} digest {:016x}", w.name(), stats::fnv1a64(&out.payload));
    Ok(0)
}

/// `BENCHMARK.json`'s command: one untraced run (end-to-end metrics) or one
/// traced run (per-layer metrics) of one workload.
fn measure(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let w = flags.workload()?;
    let seed = flags.num("seed", 0)?;
    let size = flags.size()?;
    let seconds = Duration::from_secs_f64(flags.num("seconds", 0.0)?);
    let line = match flags.num("trace", 0u8)? {
        0 => untraced(w, seed, size, seconds)?,
        1 => traced(w, seed, size)?,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    println!("{line}");
    Ok(0)
}

fn untraced(w: Workload, seed: u64, size: Size, seconds: Duration) -> Result<String, String> {
    let start = Instant::now();
    let mut crashed = 0u64;
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        match spawn_setup(w, seed, size) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("bench-ledger: {e}");
                crashed += 1;
            }
        }
    }
    let setup_s = stats::median(&setups);
    eprintln!("{} set-up: median {setup_s:.6} s of {:?}", w.name(), setups);
    let mut passes: Vec<PassSample> = Vec::new();
    let mut pass_crashes = 0;
    while passes.len() + pass_crashes < MIN_PASSES || start.elapsed() < seconds {
        match spawn_pass(w, seed, size) {
            Ok(p) => {
                eprintln!(
                    "{} pass {}: wall {:.4} s, peak {:.1} MiB, digest {:016x}",
                    w.name(),
                    passes.len() + 1,
                    p.wall_s,
                    p.peak_rss_mb,
                    p.digest
                );
                passes.push(p);
            }
            Err(e) => {
                eprintln!("bench-ledger: {e}");
                pass_crashes += 1;
            }
        }
    }
    crashed += pass_crashes as u64;
    let reference = pinned(w, seed, size)
        .or_else(|| passes.first().map(|p| p.digest))
        .ok_or("every pass failed")?;
    let mut attempted = crashed;
    let mut failed = crashed;
    for p in &passes {
        attempted += p.attempted;
        failed += if p.digest == reference {
            p.failed
        } else {
            p.attempted
        };
    }
    let pick = |f: fn(&PassSample) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let metrics = spec::end_to_end()
        .into_iter()
        .map(|def| {
            let value = match def.name.as_str() {
                "wall_s" => pick(|p| p.wall_s),
                "setup_s" => setup_s,
                "peak_rss_mb" => pick(|p| p.peak_rss_mb),
                other => panic!("no measurement defines end-to-end metric {other:?}"),
            };
            (def.name.clone(), metric(value, &def.unit))
        })
        .collect();
    Ok(result_line(failed == 0, attempted, failed, metrics))
}

fn traced(w: Workload, seed: u64, size: Size) -> Result<String, String> {
    let out = w.traced(seed, size)?;
    let defs = spec::per_layer();
    if let Some(unknown) = out
        .layers
        .names()
        .find(|n| !defs.iter().any(|d| d.name == *n))
    {
        panic!("layer metric {unknown:?} is not declared in BENCHMARK.json");
    }
    let pin = pinned(w, seed, size);
    let failed = out.failed + u64::from(pin.is_some_and(|p| p != out.digest));
    let attempted = out.attempted + u64::from(pin.is_some());
    let spans = out
        .spans
        .paths()
        .into_iter()
        .map(|p| {
            Value::Object(vec![
                ("path".to_string(), Value::Str(p.path)),
                ("count".to_string(), Value::Int(p.count.into())),
                ("total_s".to_string(), Value::Float(p.total_s)),
                ("self_s".to_string(), Value::Float(p.self_s)),
            ])
        })
        .collect();
    let detail = Value::Object(vec![
        (
            "digest".to_string(),
            Value::Str(format!("{:016x}", out.digest)),
        ),
        ("spans".to_string(), Value::Array(spans)),
    ]);
    println!(
        "ledger-trace {}",
        serde_json::to_string(&detail).expect("JSON encodes")
    );
    let metrics = defs
        .iter()
        .map(|d| {
            (
                d.name.clone(),
                metric(out.layers.get(&d.name).unwrap_or(0.0), &d.unit),
            )
        })
        .collect();
    Ok(result_line(failed == 0, attempted, failed, metrics))
}
