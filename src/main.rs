//! `hammervolt` CLI: run the study's experiments against the simulated
//! module fleet and dump machine-readable records.
//!
//! ```text
//! hammervolt sweep  [MODULE..]   # Alg. 1 RowHammer ladder sweep → JSONL
//! hammervolt trcd   [MODULE..]   # Alg. 2 activation-latency sweep → JSONL
//! hammervolt retention [MODULE..]# Alg. 3 retention sweep → JSONL
//! hammervolt vppmin              # V_PPmin search across all modules
//! hammervolt list                # Table 3 module inventory
//! ```
//!
//! The sweep commands run as jobs (`JobSpec::write_records`, the same
//! dispatch the study server uses) on the parallel execution engine,
//! streaming records to stdout:
//!
//! - `--jobs N` (or `HAMMERVOLT_JOBS`) sets the worker count; `0` means one
//!   per CPU. Output is byte-identical for any worker count.
//! - `--cache-dir PATH` (or `HAMMERVOLT_CACHE_DIR`) enables the
//!   content-addressed sweep cache: completed module sweeps are persisted
//!   and re-runs with the same configuration skip simulation entirely.
//! - `--resume` (or `HAMMERVOLT_RESUME=1`; requires `--cache-dir`) persists
//!   every completed `(module, chunk)` work unit as a sealed checkpoint and
//!   restores finished units on re-run. Checkpoints are written atomically
//!   as units finish, so an interrupted run (Ctrl-C, kill, crash) leaves
//!   valid partial results on disk and the next invocation re-runs only the
//!   unfinished chunks — with byte-identical final output.
//!
//! `HAMMERVOLT_SCALE` selects the protocol (`smoke`, `quick` (default), or
//! `paper`); `HAMMERVOLT_ROWS` overrides the per-chunk row sample with a
//! positive count. A malformed value of either warns and is ignored.
//!
//! Observability (side-channel only; record output is byte-identical with
//! these on or off):
//!
//! - `--trace-out PATH` (or `HAMMERVOLT_TRACE_OUT`) streams JSONL spans and
//!   events to a file,
//! - `--manifest-out PATH` (or `HAMMERVOLT_MANIFEST_OUT`) writes the run
//!   manifest — config hash, per-phase wall times, counters, histograms,
//! - `--metrics` (or `HAMMERVOLT_METRICS=1`) collects counters and prints a
//!   summary to stderr at exit,
//! - `--progress` (or `HAMMERVOLT_PROGRESS=1`) keeps a rate-limited progress
//!   line on stderr during sweeps.
//!
//! The boolean variables accept `1`/`true`/`yes`/`on` and
//! `0`/`false`/`no`/`off` in any case; any other value warns and means off.

use hammervolt::dram::registry::{self, ModuleId};
use hammervolt::obs::cli::ObsOptions;
use hammervolt::obs::warn;
use hammervolt::study::exec::ExecConfig;
use hammervolt::study::job::{JobControl, JobSpec, SweepKind};
use hammervolt::study::study::{self, StudyConfig};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "usage: hammervolt <sweep|trcd|retention|vppmin|list> \
     [--jobs N] [--cache-dir PATH] [--resume] \
     [--trace-out PATH] [--manifest-out PATH] [--metrics] [--progress] [modules..]";

/// Flags and positional module labels pulled out of the raw argument list.
struct Cli {
    exec: ExecConfig,
    modules: Vec<ModuleId>,
}

fn parse_cli(args: &[String]) -> Cli {
    let mut exec = ExecConfig::from_env();
    let mut labels: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value\n{USAGE}");
                    std::process::exit(2);
                })
        };
        match flag {
            "--jobs" | "-j" => {
                let v = value("--jobs");
                exec.jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs expects a number, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--cache-dir" => exec.cache_dir = Some(value("--cache-dir").into()),
            "--resume" => exec.checkpoints = true,
            f if f.starts_with('-') => {
                eprintln!("unknown flag {f:?}\n{USAGE}");
                std::process::exit(2);
            }
            _ => labels.push(arg.clone()),
        }
    }
    if exec.checkpoints && exec.cache_dir.is_none() {
        eprintln!("--resume needs a checkpoint directory: pass --cache-dir PATH\n{USAGE}");
        std::process::exit(2);
    }
    Cli {
        exec,
        modules: parse_modules(&labels),
    }
}

fn parse_modules(args: &[String]) -> Vec<ModuleId> {
    if args.is_empty() {
        return Vec::new();
    }
    args.iter()
        .map(|a| {
            ModuleId::from_label(a).unwrap_or_else(|| {
                eprintln!("unknown module {a:?}; valid labels are A0..A9, B0..B9, C0..C9");
                std::process::exit(2);
            })
        })
        .collect()
}

/// The study configuration for this invocation: `HAMMERVOLT_SCALE` picks the
/// protocol, `HAMMERVOLT_ROWS` overrides the row sample, and any module
/// labels on the command line restrict the fleet. A malformed variable is
/// reported through [`warn`] and ignored.
fn config(modules: Vec<ModuleId>) -> StudyConfig {
    let mut cfg =
        StudyConfig::for_scale(study::scale_from_env()).expect("scale_from_env names a scale");
    match std::env::var("HAMMERVOLT_ROWS") {
        Ok(v) if v.is_empty() => {}
        Ok(v) => match v.parse::<u32>() {
            Ok(rows) if rows > 0 => cfg.rows_per_chunk = rows,
            _ => warn(
                "cli",
                &format!(
                    "HAMMERVOLT_ROWS={v:?} is not a positive row count; using {}",
                    cfg.rows_per_chunk
                ),
            ),
        },
        Err(std::env::VarError::NotPresent) => {}
        Err(std::env::VarError::NotUnicode(_)) => warn(
            "cli",
            &format!(
                "HAMMERVOLT_ROWS is set but not valid UTF-8; using {}",
                cfg.rows_per_chunk
            ),
        ),
    }
    if !modules.is_empty() {
        cfg.modules = modules;
    }
    cfg
}

/// Stdout that keeps the kind of its first failed write, so a sweep error
/// caused by a closed stdout can be told apart from the engine's own.
struct Stdout<W> {
    inner: W,
    failed: Option<io::ErrorKind>,
}

impl<W: Write> Stdout<W> {
    fn keep<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            // `write_all` retries an interrupted write itself.
            if e.kind() != io::ErrorKind::Interrupted {
                self.failed.get_or_insert(e.kind());
            }
        }
        result
    }
}

impl<W: Write> Write for Stdout<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.inner.write(buf);
        self.keep(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.inner.flush();
        self.keep(result)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut obs = ObsOptions::from_env();
    if let Err(msg) = obs.take_from_args(&mut args) {
        eprintln!("hammervolt: {msg}");
        std::process::exit(2);
    }
    let _obs = obs.install("hammervolt");
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r.to_vec()),
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Stdout {
        inner: io::stdout().lock(),
        failed: None,
    };
    match cmd {
        "list" => {
            for id in ModuleId::ALL {
                let s = registry::spec(id);
                let line = writeln!(
                    out,
                    "{}  {:<24} {:>5} {:>5} MT/s {}  V_PPmin {:.1} V  HC_first {:>7.1}K  BER {:.2e}",
                    id.label(),
                    s.dimm_model,
                    s.density.to_string(),
                    s.frequency_mts,
                    s.org,
                    s.vpp_min,
                    s.hc_first_nominal / 1e3,
                    s.ber_nominal,
                );
                if line.is_err() {
                    break;
                }
            }
        }
        "vppmin" => {
            let cli = parse_cli(&rest);
            let cfg = config(cli.modules);
            for &id in &cfg.modules {
                let mut mc = cfg.bring_up(id).expect("bring-up");
                let vppmin = mc.find_vppmin().expect("search");
                if writeln!(out, "{}: V_PPmin = {vppmin:.1} V", id.label()).is_err() {
                    break;
                }
            }
        }
        "sweep" | "trcd" | "retention" => {
            let kind = match cmd {
                "sweep" => SweepKind::Hammer,
                "trcd" => SweepKind::Trcd { levels_cap: 4 },
                _ => SweepKind::Retention,
            };
            let cli = parse_cli(&rest);
            let spec = JobSpec {
                kind,
                config: config(cli.modules),
            };
            eprintln!(
                "sweeping {} module(s) with {} worker(s) ...",
                spec.config.modules.len(),
                cli.exec.effective_jobs()
            );
            let written = spec.write_records(&cli.exec, &JobControl::new(), &mut out);
            if let (Err(e), None) = (written, out.failed) {
                panic!("sweep: {e:?}");
            }
        }
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let _ = out.flush();
    // A reader that stops early (`hammervolt list | head -n 1`) closes the
    // pipe: that ends the run quietly, as it does for other tools.
    match out.failed {
        None | Some(io::ErrorKind::BrokenPipe) => ExitCode::SUCCESS,
        Some(kind) => {
            eprintln!("hammervolt: cannot write to stdout: {kind}");
            ExitCode::FAILURE
        }
    }
}
