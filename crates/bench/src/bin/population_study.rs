//! Population scale-out study: characterize a generated module fleet with
//! adaptive sampling.
//!
//! Generates a `hammervolt_dram::population` fleet (defaults to 10,000
//! modules) and streams it through the engine in fixed batches, stopping as
//! soon as the cumulative §4.6 CV percentiles and the confidence interval
//! on the mean `HC_first` ratio clear the stopping rule — demonstrating
//! that a Table-3-scale conclusion generalizes to a fleet three orders of
//! magnitude larger while measuring only a statistical prefix of it.
//!
//! Usage: `population_study [--size N] [--seed N] [--batch N] [--rows N]
//! [--min-batches N]`, each also as `--flag=N`, beside the observability
//! flags every binary shares (`hammervolt_obs::cli`). An unknown flag, a
//! missing value or one that does not parse as a non-negative integer of
//! the flag's width (`--rows` takes a `u32`, the others a `u64`) exits 2
//! with one line naming the flag. Worker count / cache / resume come from
//! `HAMMERVOLT_JOBS` / `HAMMERVOLT_CACHE_DIR` / `HAMMERVOLT_RESUME` like
//! every other harness.

use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::JobControl;
use hammervolt_core::population::{population_key, population_run, PopulationConfig};
use hammervolt_obs::cli::ObsOptions;
use hammervolt_stats::table::AsciiTable;
use std::str::FromStr;

/// Parses the study's own flags: the arguments the observability flags
/// were taken out of.
fn parse_args(args: Vec<String>) -> Result<PopulationConfig, String> {
    fn int<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value.parse().map_err(|_| {
            let bits = std::mem::size_of::<T>() * 8;
            format!("{flag} needs a non-negative {bits}-bit integer, got {value:?}")
        })
    }
    let (mut size, mut seed) = (10_000, 1);
    let (mut batch, mut rows, mut min_batches) = (None, None, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let value = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--size" => size = int(&flag, &value?)?,
            "--seed" => seed = int(&flag, &value?)?,
            "--batch" => batch = Some(int(&flag, &value?)?),
            "--rows" => rows = Some(int(&flag, &value?)?),
            "--min-batches" => min_batches = Some(int(&flag, &value?)?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mut config = PopulationConfig::smoke(size, seed);
    config.batch_size = batch.unwrap_or(config.batch_size);
    config.rows_per_module = rows.unwrap_or(config.rows_per_module);
    config.stopping.min_batches = min_batches.unwrap_or(config.stopping.min_batches);
    Ok(config)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut obs = ObsOptions::from_env();
    let parsed = obs
        .take_from_args(&mut args)
        .and_then(|()| parse_args(args));
    let config = match parsed {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("population_study: {msg}");
            std::process::exit(2);
        }
    };
    let _obs = obs.install(env!("CARGO_BIN_NAME"));
    let exec = ExecConfig::from_env();
    hammervolt_bench::outln!(
        "population study: {} generated modules (seed {}), batches of {}, \
         {} rows/module, key {:016x}\n",
        config.population.size,
        config.population.seed,
        config.batch_size,
        config.rows_per_module,
        population_key(&config)
    );
    let ctl = JobControl::new();
    let (records, summary) = match population_run(&config, &exec, &ctl) {
        Ok(out) => out,
        Err(err) => {
            eprintln!("population study failed: {err}");
            std::process::exit(1);
        }
    };
    let mut t = AsciiTable::new(vec![
        "batch".into(),
        "modules".into(),
        "mean HC ratio".into(),
        "cv p90".into(),
        "cv p95".into(),
        "cv p99".into(),
        "ci rel width".into(),
        "sampled".into(),
        "stop".into(),
    ]);
    for r in &records {
        t.add_row(vec![
            r.batch.to_string(),
            r.modules.to_string(),
            fmt_opt(r.mean_hc_ratio),
            fmt_opt(r.cv_p90),
            fmt_opt(r.cv_p95),
            fmt_opt(r.cv_p99),
            fmt_opt(r.ci_rel_width),
            format!("{:.2}%", r.sampled_fraction * 100.0),
            if r.converged { "yes" } else { "" }.to_string(),
        ]);
    }
    hammervolt_bench::out!("{}", t.render());
    let rule = &config.stopping;
    hammervolt_bench::outln!(
        "\nstopping rule: cv p90/p95/p99 ≤ {:.2}/{:.2}/{:.2}, \
         {:.0}% CI within ±{:.1}% of mean, min {} batches",
        rule.cv_p90,
        rule.cv_p95,
        rule.cv_p99,
        rule.ci_level * 100.0,
        rule.ci_rel_width * 50.0,
        rule.min_batches
    );
    hammervolt_bench::outln!(
        "{} after batch {}: measured {} of {} modules ({:.2}%; families A/B/C = {}/{}/{})",
        if summary.converged {
            "converged"
        } else {
            "fleet exhausted"
        },
        summary.stopped_at_batch,
        summary.measured,
        summary.size,
        summary.measured as f64 / summary.size as f64 * 100.0,
        summary.families.0,
        summary.families.1,
        summary.families.2,
    );
    if let (Some(mean), Some((lo, hi))) = (summary.mean_hc_ratio, summary.ci) {
        hammervolt_bench::outln!(
            "mean HC_first ratio at V_PPmin = {mean:.4}  ({:.0}% CI [{lo:.4}, {hi:.4}])",
            rule.ci_level * 100.0
        );
    }
    if let Some(mean) = summary.mean_ber_ratio {
        hammervolt_bench::outln!("mean BER ratio at V_PPmin   = {mean:.4}");
    }
    if let Some((p90, p95, p99)) = summary.cv_percentiles {
        let (r90, r95, r99) = hammervolt_bench::paper::CV_PERCENTILES;
        hammervolt_bench::outln!("{}", hammervolt_bench::compare_line("CV p90", r90, p90));
        hammervolt_bench::outln!("{}", hammervolt_bench::compare_line("CV p95", r95, p95));
        hammervolt_bench::outln!("{}", hammervolt_bench::compare_line("CV p99", r99, p99));
    }
}
