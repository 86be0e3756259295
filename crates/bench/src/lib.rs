//! Shared plumbing for the figure- and table-regeneration harnesses.
//!
//! Every table and figure in the paper's evaluation has a bin target in this
//! crate (see `src/bin/`); each prints the regenerated rows/series as ASCII
//! tables/plots plus a JSON block for machine consumption. This library holds
//! the pieces the bins share: scale selection, paper reference values, and
//! output helpers, among them the one stdout writer every bin prints
//! through ([`outln!`], [`out!`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use hammervolt_core::exec::ExecConfig;
use hammervolt_core::study::{self, StudyConfig};
use std::io::{self, Write as _};

/// Prints to stdout like `print!`, through [`write_stdout`] under the
/// calling binary's name.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(env!("CARGO_BIN_NAME"), format_args!($($arg)*))
    };
}

/// Prints a line to stdout like `println!`, through [`write_stdout`] under
/// the calling binary's name.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out!("\n")
    };
    ($($arg:tt)*) => {
        $crate::out!("{}\n", format_args!($($arg)*))
    };
}

/// Writes `args` to stdout and flushes, as the harness binary `bin`.
///
/// A reader that closes stdout early (`population_study | head -n 1`)
/// ends the run there, quietly and with status 0, as it ends the other
/// tools of a pipeline. Any other failed write ends it with status 1 and
/// one line on stderr, `<bin>: cannot write to stdout: <reason>`. Either
/// way the process exits at once, so a run manifest is not written, as on
/// the binaries' other error exits. `println!` panics instead (status 101,
/// and a panic message on stderr).
pub fn write_stdout(bin: &str, args: std::fmt::Arguments<'_>) {
    let mut stdout = io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("{bin}: cannot write to stdout: {}", e.kind());
        std::process::exit(1);
    }
}

/// Installs the shared observability wiring for a harness bin: reads the
/// `HAMMERVOLT_TRACE_OUT`/`HAMMERVOLT_MANIFEST_OUT`/`HAMMERVOLT_METRICS`/
/// `HAMMERVOLT_PROGRESS` environment variables and the `--trace-out`,
/// `--manifest-out`, `--metrics`, and `--progress` flags, and returns the
/// guard that writes the run manifest on drop. The flags stay in
/// `std::env::args`, so a bin that rejects unknown flags parses what
/// [`hammervolt_obs::cli::ObsOptions::take_from_args`] leaves instead (see
/// [`hammervolt_obs::cli::init_bin`]). Call it first thing in `main` and
/// keep the guard alive for the whole run:
///
/// ```no_run
/// let _obs = hammervolt_bench::obs_init("fig07");
/// // ... regenerate the figure while the guard is alive ...
/// ```
pub fn obs_init(bin: &str) -> hammervolt_obs::cli::RunGuard {
    hammervolt_obs::cli::init_bin(bin)
}

/// Run scale, selected with the `HAMMERVOLT_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `HAMMERVOLT_SCALE=smoke` — minutes-scale: a module subset, few rows.
    Smoke,
    /// default — tens of minutes: all 30 modules, reduced rows/iterations.
    Quick,
    /// `HAMMERVOLT_SCALE=paper` — the paper's full protocol (hours).
    Paper,
}

impl Scale {
    /// Reads the scale from the environment; a malformed value warns and
    /// means the default (see [`study::scale_from_env`]).
    pub fn from_env() -> Self {
        match study::scale_from_env() {
            "paper" => Scale::Paper,
            "smoke" => Scale::Smoke,
            _ => Scale::Quick,
        }
    }

    /// The study configuration for this scale (see [`StudyConfig::for_scale`]).
    pub fn config(&self) -> StudyConfig {
        let name = match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        };
        StudyConfig::for_scale(name).expect("every Scale names a protocol")
    }

    /// The execution-engine configuration for harness runs: worker count and
    /// sweep cache from `HAMMERVOLT_JOBS` / `HAMMERVOLT_CACHE_DIR`, so every
    /// figure and table bin parallelizes (and caches) the same way.
    pub fn exec(&self) -> ExecConfig {
        ExecConfig::from_env()
    }

    /// Human-readable banner line for harness output.
    pub fn banner(&self) -> String {
        let cfg = self.config();
        format!(
            "scale = {:?} | modules = {} | rows/module = {} | alg1 iterations = {}",
            self,
            cfg.modules.len(),
            cfg.rows_per_chunk * 4,
            cfg.alg1.iterations,
        )
    }
}

/// Paper-reported reference values, used to print "paper vs measured"
/// comparison lines in every harness.
pub mod paper {
    /// Mean BER change at `V_PPmin` across rows (−15.2 %).
    pub const MEAN_BER_CHANGE: f64 = -0.152;
    /// Maximum module BER reduction (−66.9 %, B3).
    pub const MAX_BER_REDUCTION: f64 = -0.669;
    /// Mean `HC_first` change (+7.4 %).
    pub const MEAN_HC_CHANGE: f64 = 0.074;
    /// Maximum per-row `HC_first` increase (+85.8 %).
    pub const MAX_HC_INCREASE: f64 = 0.858;
    /// Fraction of rows with decreased BER (81.2 %).
    pub const FRAC_BER_DECREASED: f64 = 0.812;
    /// Fraction of rows with increased BER (15.4 %).
    pub const FRAC_BER_INCREASED: f64 = 0.154;
    /// Fraction of rows with increased `HC_first` (69.3 %).
    pub const FRAC_HC_INCREASED: f64 = 0.693;
    /// Fraction of rows with decreased `HC_first` (14.2 %).
    pub const FRAC_HC_DECREASED: f64 = 0.142;
    /// Average `t_RCD` guardband reduction (21.9 %).
    pub const GUARDBAND_REDUCTION: f64 = 0.219;
    /// CV at P90 / P95 / P99 (§4.6).
    pub const CV_PERCENTILES: (f64, f64, f64) = (0.08, 0.13, 0.24);
    /// Normalized `HC_first` ranges at `V_PPmin` per manufacturer (Obsv. 6).
    pub const HC_RANGES: [(&str, f64, f64); 3] =
        [("A", 0.94, 1.52), ("B", 0.92, 1.86), ("C", 0.91, 1.35)];
    /// Normalized BER ranges at `V_PPmin` per manufacturer (Obsv. 3).
    pub const BER_RANGES: [(&str, f64, f64); 3] =
        [("A", 0.43, 1.11), ("B", 0.33, 1.03), ("C", 0.74, 0.94)];
}

/// Prints a "paper vs measured" comparison line.
pub fn compare_line(label: &str, paper_value: f64, measured: f64) -> String {
    format!("{label:<42} paper {paper_value:>8.3}   measured {measured:>8.3}")
}

/// Derives a KDE plot window that covers the data: the sample range padded
/// by three bandwidths (where a Gaussian kernel's mass is negligible),
/// unioned with the figure's nominal (paper-axis) window.
///
/// The harnesses used to evaluate the density on the hard-coded nominal
/// window alone, which silently clipped distribution tails once a parameter
/// regime pushed samples past the paper's axis; samples outside the nominal
/// window now widen the grid and raise a warning so the shift is visible.
///
/// # Panics
///
/// Panics if `samples` is empty or `bandwidth` is not positive — callers
/// fit the KDE first, which enforces both.
pub fn kde_window(
    source: &str,
    samples: &[f64],
    bandwidth: f64,
    nominal: (f64, f64),
) -> (f64, f64) {
    assert!(!samples.is_empty(), "kde_window needs samples");
    assert!(bandwidth > 0.0, "kde_window needs a positive bandwidth");
    let lo_s = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi_s = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let (nominal_lo, nominal_hi) = nominal;
    if lo_s < nominal_lo || hi_s > nominal_hi {
        hammervolt_obs::warn(
            source,
            &format!(
                "samples span [{lo_s:.3}, {hi_s:.3}] outside the nominal plot window \
                 [{nominal_lo:.3}, {nominal_hi:.3}]; widening the density grid"
            ),
        );
    }
    let pad = 3.0 * bandwidth;
    (nominal_lo.min(lo_s - pad), nominal_hi.max(hi_s + pad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_build_configs() {
        assert_eq!(Scale::Smoke.config().rows_per_chunk, 4);
        assert_eq!(Scale::Quick.config().modules.len(), 30);
        assert!(!Scale::Paper.config().reduced_geometry);
        assert!(Scale::Smoke.banner().contains("Smoke"));
    }

    #[test]
    fn compare_line_formats() {
        let l = compare_line("mean BER change", -0.152, -0.161);
        assert!(l.contains("-0.152"));
        assert!(l.contains("-0.161"));
    }

    #[test]
    fn kde_window_keeps_nominal_when_samples_fit() {
        let w = kde_window("test", &[12.0, 15.0, 18.0], 0.5, (10.0, 22.0));
        assert_eq!(w, (10.0, 22.0));
    }

    #[test]
    fn kde_window_widens_for_out_of_range_samples() {
        // A tail past the nominal axis must stay on the grid, padded by 3h.
        let (lo, hi) = kde_window("test", &[12.0, 25.0], 0.5, (10.0, 22.0));
        assert_eq!(lo, 10.0);
        assert!((hi - 26.5).abs() < 1e-12, "hi = {hi}");
        let (lo, hi) = kde_window("test", &[5.0, 12.0], 0.5, (10.0, 22.0));
        assert!((lo - 3.5).abs() < 1e-12, "lo = {lo}");
        assert_eq!(hi, 22.0);
    }
}
