//! `serve` — run the study server: `hammervolt` studies over HTTP.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue N]
//!       [--cache-dir PATH] [--jobs N] [--resume]
//!       [--read-timeout-ms N] [--write-timeout-ms N]
//!       [--trace-out PATH] [--metrics] [--progress]
//! ```
//!
//! - `--addr` (default `127.0.0.1:8077`): listen address; port 0 picks an
//!   ephemeral port (printed on startup).
//! - `--workers` (default 2): concurrent study executions.
//! - `--queue` (default 64): total queued-job bound. Submissions beyond it
//!   are rejected with 429; the queued jobs keep their places.
//! - `--cache-dir`: content-addressed sweep cache shared by all jobs. Warm
//!   resubmissions of a finished spec answer from it without re-executing.
//! - `--jobs` (default: all cores): per-study engine worker threads.
//! - `--resume`: persist per-chunk checkpoints (requires `--cache-dir`), so
//!   cancelled or interrupted studies resume from completed chunks.
//! - `--read-timeout-ms` / `--write-timeout-ms` (defaults 10000 / 30000,
//!   `0` disables): per-socket timeouts on accepted connections, so a slow
//!   or stalled client cannot pin a handler thread.
//! - `--trace-out`, `--metrics`, `--progress`: the observability flags
//!   every binary shares (`hammervolt_obs::cli`), each with its
//!   `HAMMERVOLT_*` environment-variable twin. The trace is flushed per
//!   request; the `--metrics` summary is written at exit, which a server
//!   that runs until killed never reaches (`GET /metrics` serves the same
//!   counters live).
//! - `--manifest-out` (or `HAMMERVOLT_MANIFEST_OUT`) is refused with exit
//!   status 2: the run manifest is written at exit, so the server could
//!   never write it.
//!
//! See `EXPERIMENTS.md` ("Serving studies") for the endpoint reference.

use hammervolt_core::exec::ExecConfig;
use hammervolt_obs::cli::ObsOptions;
use hammervolt_serve::{SchedConfig, Server, ServerConfig};
use std::time::Duration;

/// Parses the server's own flags: the arguments the observability flags
/// were taken out of.
fn parse_args(args: Vec<String>) -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:8077".to_string();
    let mut sched = SchedConfig::default();
    let mut exec = ExecConfig::from_env();
    let mut config = ServerConfig::default();
    let mut args = args.into_iter();
    // Accept both `--flag value` and `--flag=value`, like the main CLI.
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str, inline: Option<&str>| {
        inline
            .map(str::to_string)
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        match flag.as_str() {
            "--addr" => addr = next_value(&mut args, "--addr", inline.as_deref())?,
            "--workers" => {
                sched.workers = next_value(&mut args, "--workers", inline.as_deref())?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            "--queue" => {
                sched.queue_capacity = next_value(&mut args, "--queue", inline.as_deref())?
                    .parse()
                    .map_err(|_| "--queue needs an integer".to_string())?;
            }
            "--cache-dir" => {
                exec.cache_dir =
                    Some(next_value(&mut args, "--cache-dir", inline.as_deref())?.into());
            }
            "--jobs" => {
                exec.jobs = next_value(&mut args, "--jobs", inline.as_deref())?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?;
            }
            "--resume" => exec.checkpoints = true,
            "--read-timeout-ms" => {
                let ms: u64 = next_value(&mut args, "--read-timeout-ms", inline.as_deref())?
                    .parse()
                    .map_err(|_| "--read-timeout-ms needs an integer".to_string())?;
                config.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--write-timeout-ms" => {
                let ms: u64 = next_value(&mut args, "--write-timeout-ms", inline.as_deref())?
                    .parse()
                    .map_err(|_| "--write-timeout-ms needs an integer".to_string())?;
                config.write_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if exec.checkpoints && exec.cache_dir.is_none() {
        return Err("--resume needs a checkpoint directory: pass --cache-dir PATH".to_string());
    }
    config.sched = sched;
    config.exec = exec;
    Ok((addr, config))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut obs = ObsOptions::from_env();
    if let Err(msg) = obs.take_from_args(&mut args) {
        eprintln!("serve: {msg}");
        std::process::exit(2);
    }
    if obs.manifest_out.is_some() {
        eprintln!(
            "serve: --manifest-out (or HAMMERVOLT_MANIFEST_OUT) is not supported: \
             the manifest is written at exit, which a server never reaches"
        );
        std::process::exit(2);
    }
    let _obs = obs.install(env!("CARGO_BIN_NAME"));
    let (addr, config) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("serve: {msg}");
            std::process::exit(2);
        }
    };
    let server = match Server::start(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    hammervolt_bench::outln!(
        "hammervolt study server listening on http://{}",
        server.addr()
    );
    hammervolt_bench::outln!(
        "submit:  curl -XPOST http://{}/studies -d '{{\"kind\":\"hammer\",\"scale\":\"smoke\"}}'",
        server.addr()
    );
    // Serve until the process is killed. Interruption is safe at any point:
    // checkpoints and cache entries are written atomically (write + rename),
    // so a killed server leaves only valid partial state, and a restarted
    // one resumes unfinished studies chunk-by-chunk when resubmitted.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
