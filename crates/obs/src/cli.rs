//! Shared observability wiring for every binary in the workspace: flag and
//! environment-variable parsing, sink installation, and the end-of-run
//! [`RunGuard`] that writes the manifest.
//!
//! Flags (each with an environment-variable twin):
//!
//! | Flag                  | Env var                   | Effect                          |
//! |-----------------------|---------------------------|---------------------------------|
//! | `--trace-out <path>`  | `HAMMERVOLT_TRACE_OUT`    | JSONL span/event file + tracing |
//! | `--metrics`           | `HAMMERVOLT_METRICS=1`    | counter/histogram collection    |
//! | `--progress`          | `HAMMERVOLT_PROGRESS=1`   | rate-limited stderr line        |
//! | `--manifest-out <path>`| `HAMMERVOLT_MANIFEST_OUT`| run-manifest file (implies `--metrics`) |

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::{json, manifest, metrics, progress, FileSink};

/// Parsed observability options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ObsOptions {
    /// JSONL event-sink path; enables tracing.
    pub trace_out: Option<PathBuf>,
    /// Run-manifest path; implies metrics.
    pub manifest_out: Option<PathBuf>,
    /// Enable counter/histogram collection.
    pub metrics: bool,
    /// Enable the stderr progress line.
    pub progress: bool,
}

impl ObsOptions {
    /// Options from environment variables alone (`HAMMERVOLT_TRACE_OUT`,
    /// `HAMMERVOLT_METRICS`, `HAMMERVOLT_PROGRESS`,
    /// `HAMMERVOLT_MANIFEST_OUT`). The boolean vars are read by
    /// [`crate::env_flag`].
    pub fn from_env() -> ObsOptions {
        let path_var = |name: &str| -> Option<PathBuf> {
            std::env::var_os(name)
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        };
        ObsOptions {
            trace_out: path_var("HAMMERVOLT_TRACE_OUT"),
            manifest_out: path_var("HAMMERVOLT_MANIFEST_OUT"),
            metrics: crate::env_flag("HAMMERVOLT_METRICS"),
            progress: crate::env_flag("HAMMERVOLT_PROGRESS"),
        }
    }

    /// Strips the observability flags this module owns out of `args`
    /// (mutating it) and merges them over `self`. Supports both
    /// `--flag value` and `--flag=value` spellings. Unknown arguments are
    /// left untouched for the caller's own parser.
    ///
    /// # Errors
    ///
    /// A one-line message naming the flag when `--trace-out` or
    /// `--manifest-out` has no value: the arguments end, the value is
    /// empty, or the next argument is another flag (starts with `--`).
    pub fn take_from_args(&mut self, args: &mut Vec<String>) -> Result<(), String> {
        let mut kept = Vec::with_capacity(args.len());
        let mut iter = std::mem::take(args).into_iter().peekable();
        while let Some(arg) = iter.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let path = || {
                inline
                    .or_else(|| iter.next_if(|next| !next.starts_with("--")))
                    .filter(|value| !value.is_empty())
                    .map(PathBuf::from)
                    .ok_or_else(|| format!("{flag} needs a path"))
            };
            match flag.as_str() {
                "--trace-out" => self.trace_out = Some(path()?),
                "--manifest-out" => self.manifest_out = Some(path()?),
                "--metrics" => self.metrics = true,
                "--progress" => self.progress = true,
                _ => kept.push(arg),
            }
        }
        *args = kept;
        Ok(())
    }

    /// Whether any observability feature is requested.
    pub fn any(&self) -> bool {
        self.trace_out.is_some() || self.manifest_out.is_some() || self.metrics || self.progress
    }

    /// Installs these options process-wide and returns the [`RunGuard`]
    /// that finalizes everything (progress line, manifest, sink flush) when
    /// dropped at the end of `main`.
    pub fn install(self, bin: &str) -> RunGuard {
        crate::epoch(); // pin the timestamp origin before any work runs
        let wants_manifest = self.manifest_out.is_some();
        if let Some(path) = self.trace_out.as_deref() {
            match FileSink::create(path) {
                Ok(sink) => {
                    crate::set_sink(Some(Arc::new(sink)));
                    crate::set_tracing(true);
                }
                Err(err) => {
                    crate::warn("obs", &format!("cannot open trace file {path:?}: {err}"));
                }
            }
        }
        if self.metrics || wants_manifest || crate::tracing_enabled() {
            crate::set_metrics(true);
        }
        if self.progress {
            crate::set_progress(true);
        }
        RunGuard {
            bin: bin.to_string(),
            started: Instant::now(),
            manifest_out: self.manifest_out,
            print_metrics: self.metrics,
        }
    }
}

/// One-call setup for binaries without a strict argument parser: read the
/// env vars and the observability flags in a copy of `std::env::args`,
/// install, and return the guard. A `--trace-out` or `--manifest-out`
/// without a value ends the process with exit status 2 and one line on
/// stderr. The process's own argument list cannot be changed, so a binary
/// that rejects unknown flags must instead call
/// [`ObsOptions::take_from_args`] on its arguments and parse what is left,
/// as the `hammervolt` CLI and the `serve` binary do. Bind the result for
/// the length of `main`:
///
/// ```no_run
/// let _obs = hammervolt_obs::cli::init_bin("fig07");
/// // ... study code runs while the guard is alive ...
/// ```
pub fn init_bin(bin: &str) -> RunGuard {
    let mut opts = ObsOptions::from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = opts.take_from_args(&mut args) {
        eprintln!("{bin}: {msg}");
        std::process::exit(2);
    }
    opts.install(bin)
}

/// Finalizes the observability run on drop: finishes the progress line,
/// builds the manifest, writes it to `--manifest-out`, emits it as a
/// `manifest` event on the trace sink, prints a counter summary to stderr
/// when `--metrics` was given, and flushes the sink.
#[derive(Debug)]
pub struct RunGuard {
    bin: String,
    started: Instant,
    manifest_out: Option<PathBuf>,
    print_metrics: bool,
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        progress::finish();
        crate::set_progress(false);
        if !crate::collecting() {
            return;
        }
        let wall_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let text = manifest::build_manifest(&self.bin, wall_us, &git_describe());
        if let Some(path) = self.manifest_out.as_deref() {
            let write = || -> std::io::Result<()> {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir)?;
                }
                std::fs::write(path, format!("{text}\n"))
            };
            if let Err(err) = write() {
                crate::warn("obs", &format!("cannot write manifest {path:?}: {err}"));
            }
        }
        if crate::tracing_enabled() {
            let mut w = json::ObjectWriter::new();
            w.field_str("type", "manifest");
            w.field_raw("data", &text);
            crate::emit_event(&w.finish());
        }
        if self.print_metrics {
            eprintln!("hammervolt: run metrics ({} wall_us={wall_us})", self.bin);
            for (name, value) in metrics::counters_snapshot() {
                eprintln!("hammervolt:   {name} = {value}");
            }
        }
        crate::flush_sink();
        crate::set_tracing(false);
        crate::set_metrics(false);
        crate::set_sink(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_args_strips_only_obs_flags() {
        let mut opts = ObsOptions::default();
        let mut args: Vec<String> = [
            "sweep",
            "--jobs",
            "4",
            "--trace-out",
            "/tmp/t.jsonl",
            "--metrics",
            "--manifest-out=/tmp/m.json",
            "--progress",
            "--cache-dir=/tmp/c",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        opts.take_from_args(&mut args).unwrap();
        assert_eq!(
            opts.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(
            opts.manifest_out.as_deref(),
            Some(std::path::Path::new("/tmp/m.json"))
        );
        assert!(opts.metrics);
        assert!(opts.progress);
        assert!(opts.any());
        assert_eq!(args, vec!["sweep", "--jobs", "4", "--cache-dir=/tmp/c"]);
    }

    #[test]
    fn default_options_request_nothing() {
        let mut opts = ObsOptions::default();
        let mut args = vec!["trcd".to_string()];
        opts.take_from_args(&mut args).unwrap();
        assert!(!opts.any());
        assert_eq!(args, vec!["trcd"]);
    }

    #[test]
    fn a_path_flag_without_a_path_is_refused() {
        for flag in ["--trace-out", "--manifest-out"] {
            let missing: [&[&str]; 4] = [
                &["list", flag],
                &["list", flag, "--metrics"],
                &["list", flag, ""],
                &[&format!("{flag}="), "list"],
            ];
            for case in missing {
                let mut args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
                let mut opts = ObsOptions::default();
                let err = opts.take_from_args(&mut args).unwrap_err();
                assert_eq!(err, format!("{flag} needs a path"), "{case:?}");
                assert!(!opts.any(), "{case:?} set {opts:?}");
            }
        }
    }
}
