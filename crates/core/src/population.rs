//! Population studies: stream a generated module fleet through the engine
//! with CV-convergence adaptive stopping.
//!
//! A population job characterizes a [`PopulationSpec`] fleet — synthetic
//! modules generated on demand from the per-manufacturer distributions in
//! `hammervolt_dram::population` — in **fixed, spec-defined batches**. Each
//! batch measures `batch_size` modules (a few Alg. 1 rows per module at
//! nominal `V_PP` and at the module's `V_PPmin`), records per-batch group
//! statistics, and then evaluates the §4.6 significance test plus a
//! confidence-interval bound over everything measured so far. Once the CV
//! percentiles clear the configured targets and the CI on the mean
//! `HC_first` ratio is tight enough, the study **stops** — characterizing a
//! ten-thousand-module fleet by measuring only the prefix that statistics
//! demand.
//!
//! Scheduling: the stop rule cannot end the run before `min_batches`
//! batches, so those batches are measured in windows of whole batches,
//! about 256 modules each, as one flat parallel map with no join between
//! batches. Each batch is then folded in index order, sealed as its
//! checkpoint and judged, in batch order. From `min_batches` on, a batch is
//! measured and judged before the next one starts, so no module past the
//! stopping batch is ever measured: both schedules measure the same modules
//! and fold them in the same order, and bytes and work counters do not
//! change.
//!
//! Determinism: batch boundaries come from the spec, never from worker
//! count; module measurements derive from `(population seed, index)`; the
//! stop decision reads accumulated statistics in batch order. Results are
//! therefore byte-identical at any `--jobs` count, *including* the stopping
//! batch index. Memory is bounded: the fleet is never enumerated, a window
//! holds at most [`MAX_BATCH_SIZE`] modules' results, and the accumulated
//! state is a few floats per measured module.
//!
//! Cache/resume: the whole run is cached under an FNV key of the exact
//! config JSON (warm re-runs execute zero units), and with checkpoints
//! enabled every finished batch is persisted as a sealed envelope, so a
//! cancelled run resumes re-running only unfinished batches. Both use the
//! sweep engine's cache-lookup, unit and landing steps ([`crate::exec`]).

use crate::alg1::{self, Alg1Config, RowScratch};
use crate::error::StudyError;
use crate::exec::{self, ExecConfig};
use crate::job::JobControl;
use crate::significance;
use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::ModuleBlueprint;
use hammervolt_dram::population::{PopulationSampler, PopulationSpec};
use hammervolt_dram::Manufacturer;
use hammervolt_obs::{counter_add, gauge_set, histogram_record, manifest, Span};
use hammervolt_par::parallel_map_cancellable_with;
use hammervolt_softmc::SoftMc;
use hammervolt_stats::{ci, quantile};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Largest `batch_size` a population accepts. A batch is measured as one
/// parallel map whose indices and results are held at once, and 4,096
/// smoke modules already take seconds.
pub const MAX_BATCH_SIZE: u64 = 4096;

/// Largest `rows_per_module` a population accepts: the victims are spread
/// through the middle half of the small-test bank, 256 of its 512 rows, so
/// more rows would only repeat victims.
pub const MAX_ROWS_PER_MODULE: u32 = 256;

/// Modules one window of the batches before `min_batches` holds at most
/// (a window holds whole batches, and at least one).
const WINDOW_MODULES: u64 = 256;

/// When to stop measuring: sequential bounds evaluated after every batch
/// over everything measured so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoppingRule {
    /// Target for the 90th-percentile group CV.
    pub cv_p90: f64,
    /// Target for the 95th-percentile group CV.
    pub cv_p95: f64,
    /// Target for the 99th-percentile group CV.
    pub cv_p99: f64,
    /// Confidence level of the sequential interval on the mean `HC_first`
    /// ratio, e.g. `0.9`.
    pub ci_level: f64,
    /// Stop only once the interval's width relative to the mean is at or
    /// under this.
    pub ci_rel_width: f64,
    /// Never stop before this many batches (sequential-testing guard
    /// against a lucky early sample).
    pub min_batches: u64,
}

impl StoppingRule {
    /// The paper's §4.6 CV percentiles (0.08 / 0.13 / 0.24) with a 90 %
    /// interval within ±2.5 % of the mean.
    pub fn paper() -> StoppingRule {
        StoppingRule {
            cv_p90: 0.08,
            cv_p95: 0.13,
            cv_p99: 0.24,
            ci_level: 0.90,
            ci_rel_width: 0.05,
            min_batches: 2,
        }
    }
}

impl Default for StoppingRule {
    fn default() -> Self {
        StoppingRule::paper()
    }
}

/// Full configuration of a population study. The exact JSON serialization
/// is the study's identity (FNV-hashed into cache keys and
/// [`crate::job::JobSpec::spec_hash`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// The generated fleet.
    pub population: PopulationSpec,
    /// Modules measured per batch; batch boundaries are fixed by this, so
    /// results (including the stopping batch) are worker-count independent.
    pub batch_size: u64,
    /// Alg. 1 victim rows measured per module.
    pub rows_per_module: u32,
    /// Per-row measurement procedure (its `iterations` are the §4.6 group
    /// size).
    pub alg1: Alg1Config,
    /// Adaptive-stopping bounds.
    pub stopping: StoppingRule,
}

impl PopulationConfig {
    /// A small, fast configuration for tests and CI smoke runs.
    ///
    /// Its stopping rule is looser than [`StoppingRule::paper`]: the CV
    /// percentiles converge to a *population property*, not to zero, and at
    /// this config's three iterations per measurement that property sits
    /// well above the paper's ten-iteration values — paper targets would
    /// never be met and the study would always exhaust the fleet. These
    /// bounds sit above the generated population's observed plateau
    /// (≈ 0.09 / 0.16 / 0.5), so the stop is decided by the genuinely
    /// shrinking quantity: the CI width on the mean `HC_first` ratio.
    pub fn smoke(size: u64, seed: u64) -> PopulationConfig {
        PopulationConfig {
            population: PopulationSpec {
                family_mix: Default::default(),
                size,
                seed,
            },
            batch_size: 8,
            rows_per_module: 2,
            alg1: Alg1Config {
                iterations: 3,
                min_step: 10_000,
                wcdp_override: Some(crate::patterns::DataPattern::CheckerboardAa),
                ..Alg1Config::default()
            },
            stopping: StoppingRule {
                cv_p90: 0.15,
                cv_p95: 0.25,
                cv_p99: 0.90,
                ci_level: 0.90,
                ci_rel_width: 0.10,
                min_batches: 3,
            },
        }
    }

    /// Number of batches a full (never-stopping) run would execute.
    pub fn planned_batches(&self) -> u64 {
        self.population.size.div_ceil(self.batch_size)
    }

    /// Module indices of batch `batch`.
    fn batch_modules(&self, batch: u64) -> Range<u64> {
        let start = batch * self.batch_size;
        start..(start + self.batch_size).min(self.population.size)
    }

    /// The batches one window measures from `first`. Before `min_batches`
    /// no batch can end the run, so whole batches of up to
    /// [`WINDOW_MODULES`] modules share one parallel map; from
    /// `min_batches` on, a window is one batch, judged before the next
    /// starts.
    fn window(&self, first: u64) -> Range<u64> {
        let prefix = self.stopping.min_batches.min(self.planned_batches());
        if first < prefix {
            first..(first + (WINDOW_MODULES / self.batch_size).max(1)).min(prefix)
        } else {
            first..first + 1
        }
    }

    fn validate(&self) -> Result<(), StudyError> {
        let reason = if self.population.size == 0 {
            Some("population size must be at least 1".to_string())
        } else if self.batch_size == 0 {
            Some("batch size must be at least 1".to_string())
        } else if self.batch_size > MAX_BATCH_SIZE {
            Some(format!("batch size must be at most {MAX_BATCH_SIZE}"))
        } else if self.rows_per_module == 0 {
            Some("rows_per_module must be at least 1".to_string())
        } else if self.rows_per_module > MAX_ROWS_PER_MODULE {
            Some(format!(
                "rows_per_module must be at most {MAX_ROWS_PER_MODULE}"
            ))
        } else if self.stopping.min_batches == 0 {
            Some("min_batches must be at least 1".to_string())
        } else {
            None
        };
        match reason {
            Some(reason) => Err(StudyError::InvalidConfig { reason }),
            None => Ok(()),
        }
    }
}

/// One batch's record: batch-local group statistics plus the cumulative
/// stopping-rule state after absorbing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Batch index (0-based).
    pub batch: u64,
    /// First module index of the batch.
    pub start: u64,
    /// Modules measured in this batch.
    pub modules: u64,
    /// Per-family module counts `(A, B, C)` in this batch.
    pub families: (u64, u64, u64),
    /// Batch mean of per-module `HC_first` ratios at `V_PPmin`.
    pub mean_hc_ratio: Option<f64>,
    /// Batch mean of per-module BER ratios at `V_PPmin`.
    pub mean_ber_ratio: Option<f64>,
    /// Usable §4.6 groups contributed by this batch.
    pub groups: usize,
    /// Cumulative CV percentiles after this batch.
    pub cv_p90: Option<f64>,
    /// Cumulative 95th-percentile CV.
    pub cv_p95: Option<f64>,
    /// Cumulative 99th-percentile CV.
    pub cv_p99: Option<f64>,
    /// Cumulative CI width on the mean `HC_first` ratio, relative to the
    /// mean.
    pub ci_rel_width: Option<f64>,
    /// Fraction of the fleet measured so far.
    pub sampled_fraction: f64,
    /// Whether the stopping rule is satisfied after this batch.
    pub converged: bool,
}

/// Final summary of a population run (the last JSONL line of the payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSummary {
    /// Fleet size named by the spec.
    pub size: u64,
    /// Modules actually measured.
    pub measured: u64,
    /// Per-family measured counts `(A, B, C)`.
    pub families: (u64, u64, u64),
    /// Batches executed (== the stopping batch count).
    pub stopped_at_batch: u64,
    /// Whether the stopping rule was satisfied (vs. fleet exhausted).
    pub converged: bool,
    /// Mean per-module `HC_first` ratio at `V_PPmin` over all measured
    /// modules.
    pub mean_hc_ratio: Option<f64>,
    /// Mean per-module BER ratio at `V_PPmin`.
    pub mean_ber_ratio: Option<f64>,
    /// Final cumulative CV percentiles `(p90, p95, p99)`.
    pub cv_percentiles: Option<(f64, f64, f64)>,
    /// Final CI on the mean `HC_first` ratio.
    pub ci: Option<(f64, f64)>,
}

/// One measured module, reduced to the statistics the study accumulates.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ModuleResult {
    mfr: Manufacturer,
    hc_ratio: Option<f64>,
    ber_ratio: Option<f64>,
    /// §4.6 groups: per-row BER samples across iterations at nominal
    /// `V_PP`.
    groups: Vec<Vec<f64>>,
}

/// A completed batch: the printable record plus its contribution to the
/// cumulative accumulators — exactly what a resume needs to replay the
/// stop decision without re-measuring.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BatchOutcome {
    record: BatchRecord,
    cvs: Vec<f64>,
    hc_ratios: Vec<f64>,
    ber_ratios: Vec<f64>,
}

#[derive(Debug, Default)]
struct Accumulator {
    cvs: Vec<f64>,
    hc_ratios: Vec<f64>,
    ber_ratios: Vec<f64>,
    measured: u64,
    families: (u64, u64, u64),
}

impl Accumulator {
    fn absorb(&mut self, out: &BatchOutcome) {
        self.cvs.extend_from_slice(&out.cvs);
        self.hc_ratios.extend_from_slice(&out.hc_ratios);
        self.ber_ratios.extend_from_slice(&out.ber_ratios);
        self.measured += out.record.modules;
        self.families.0 += out.record.families.0;
        self.families.1 += out.record.families.1;
        self.families.2 += out.record.families.2;
    }

    fn mean(values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Cumulative stopping-rule state: `(p90, p95, p99, ci_rel_width)`.
    fn bounds(&self, level: f64) -> (Option<(f64, f64, f64)>, Option<f64>) {
        let ps = if self.cvs.is_empty() {
            None
        } else {
            quantile::quantiles(&self.cvs, &[0.90, 0.95, 0.99])
                .ok()
                .map(|v| (v[0], v[1], v[2]))
        };
        let rel = if self.hc_ratios.len() < 2 {
            None
        } else {
            ci::mean_ci(&self.hc_ratios, level)
                .ok()
                .and_then(|interval| {
                    let mean = Self::mean(&self.hc_ratios)?;
                    if mean.abs() > 0.0 {
                        Some(interval.width() / mean.abs())
                    } else {
                        None
                    }
                })
        };
        (ps, rel)
    }
}

/// The population cache key: FNV-1a-64 over the kind tag and the exact
/// config JSON.
pub fn population_key(config: &PopulationConfig) -> u64 {
    let json = serde_json::to_string(config).expect("PopulationConfig serializes");
    let h = exec::fnv1a64(b"population:", exec::FNV_OFFSET);
    exec::fnv1a64(json.as_bytes(), h)
}

fn result_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("population-{key:016x}.jsonl"))
}

fn batch_checkpoint_path(dir: &Path, key: u64, batch: u64) -> PathBuf {
    dir.join(format!("ckpt-population-{key:016x}-{batch:05}.jsonl"))
}

/// Measures one generated module: `rows_per_module` Alg. 1 rows at nominal
/// `V_PP` and at the module's `V_PPmin`.
fn measure_module(
    sampler: &PopulationSampler,
    index: u64,
    config: &PopulationConfig,
    scratch: &mut RowScratch,
) -> Result<ModuleResult, StudyError> {
    let spec = sampler.module_spec(index);
    let mfr = spec.mfr;
    let vpp_min = spec.vpp_min;
    let blueprint =
        ModuleBlueprint::with_geometry(spec, sampler.module_seed(index), Geometry::small_test())
            .map_err(|e| StudyError::Infrastructure(e.into()))?;
    let mut mc = SoftMc::new(blueprint.instantiate());
    let mapping_rows = mc.module().geometry().rows_per_bank;
    let n = config.rows_per_module;
    // Victim rows evenly spread through the middle half of bank 0 (edges
    // lack aggressors); positions are physical so adjacency always exists.
    let rows: Vec<u32> = (0..n)
        .map(|k| {
            let span = mapping_rows / 2;
            let phys = mapping_rows / 4 + span * (k + 1) / (n + 1);
            mc.module().mapping().physical_to_logical(phys)
        })
        .collect();
    let mut groups = Vec::with_capacity(rows.len());
    let mut hc_ratios = Vec::new();
    let mut ber_ratios = Vec::new();
    for &row in &rows {
        mc.set_vpp(2.5)?;
        let nominal = alg1::measure_row_with(&mut mc, 0, row, &config.alg1, scratch)?;
        mc.set_vpp(vpp_min)?;
        let reduced = alg1::measure_row_with(&mut mc, 0, row, &config.alg1, scratch)?;
        if let (Some(hn), Some(hm)) = (nominal.hc_first, reduced.hc_first) {
            hc_ratios.push(hm as f64 / hn as f64);
        }
        if nominal.ber > 0.0 {
            ber_ratios.push(reduced.ber / nominal.ber);
        }
        groups.push(nominal.ber_samples);
    }
    counter_add!("population_modules", 1);
    Ok(ModuleResult {
        mfr,
        hc_ratio: Accumulator::mean(&hc_ratios),
        ber_ratio: Accumulator::mean(&ber_ratios),
        groups,
    })
}

/// Folds one batch's module results, in index order, into its outcome.
fn fold_batch(
    batch: u64,
    modules: Range<u64>,
    results: impl Iterator<Item = Result<ModuleResult, StudyError>>,
) -> Result<BatchOutcome, StudyError> {
    let mut families = (0u64, 0u64, 0u64);
    let mut cvs: Vec<f64> = Vec::new();
    let mut hc_ratios = Vec::new();
    let mut ber_ratios = Vec::new();
    let mut groups: Vec<Vec<f64>> = Vec::new();
    for result in results {
        let m = result?;
        match m.mfr {
            Manufacturer::A => families.0 += 1,
            Manufacturer::B => families.1 += 1,
            Manufacturer::C => families.2 += 1,
        }
        hc_ratios.extend(m.hc_ratio);
        ber_ratios.extend(m.ber_ratio);
        groups.extend(m.groups);
    }
    // The §4.6 significance test over this batch's groups; a batch with no
    // usable group (e.g. rows that never flipped) contributes nothing.
    let groups_used = match significance::analyze(&groups) {
        Ok(report) => {
            cvs.extend_from_slice(&report.cvs);
            report.groups
        }
        Err(_) => 0,
    };
    let record = BatchRecord {
        batch,
        start: modules.start,
        modules: modules.end - modules.start,
        families,
        mean_hc_ratio: Accumulator::mean(&hc_ratios),
        mean_ber_ratio: Accumulator::mean(&ber_ratios),
        groups: groups_used,
        // Cumulative fields are filled in by the driver after absorption.
        cv_p90: None,
        cv_p95: None,
        cv_p99: None,
        ci_rel_width: None,
        sampled_fraction: 0.0,
        converged: false,
    };
    Ok(BatchOutcome {
        record,
        cvs,
        hc_ratios,
        ber_ratios,
    })
}

/// Runs one window of batches ([`PopulationConfig::window`]). Batches with
/// a verified checkpoint are restored; the modules of the rest are measured
/// as one parallel map (deterministic output order). Then, in batch order,
/// each computed batch is folded and sealed through the unit step
/// ([`exec::seal_unit`]), and every batch's outcome goes to `judge`, which
/// returns whether the run stops there. Returns whether it did.
///
/// With metrics on, each computed batch records its share of the window's
/// wall time in `exec_unit_us`.
fn run_window(
    sampler: &PopulationSampler,
    config: &PopulationConfig,
    key: u64,
    batches: Range<u64>,
    exec_cfg: &ExecConfig,
    ctl: &JobControl,
    judge: &mut impl FnMut(BatchOutcome) -> bool,
) -> Result<bool, StudyError> {
    let mut span = Span::begin("population.window");
    span.field_u64("batch", batches.start);
    span.field_u64("batches", batches.end - batches.start);
    // Each batch with its checkpoint (file, unit key) and restored outcome.
    let units: Vec<_> = batches
        .map(|batch| {
            let checkpoint = exec_cfg.checkpoint_dir().map(|dir| {
                (
                    batch_checkpoint_path(dir, key, batch),
                    exec::unit_key(key, batch),
                )
            });
            let restored: Option<BatchOutcome> = exec::restore_unit(checkpoint.as_ref(), ctl);
            (batch, checkpoint, restored)
        })
        .collect();
    let missing = || units.iter().filter(|(.., restored)| restored.is_none());
    let indices: Vec<u64> = missing()
        .flat_map(|&(batch, ..)| config.batch_modules(batch))
        .collect();
    let computed = missing().count();
    span.field_u64("modules", indices.len() as u64);
    let timed = hammervolt_obs::metrics_enabled().then(Instant::now);
    let results = parallel_map_cancellable_with(
        &indices,
        exec_cfg.effective_jobs(),
        &ctl.cancel,
        RowScratch::new,
        |scratch, &index| {
            let out = measure_module(sampler, index, config, scratch);
            ctl.progress().module_done();
            out
        },
    )
    .ok_or(StudyError::Cancelled)?;
    let unit_us = timed.map(|t0| t0.elapsed().as_micros() / computed.max(1) as u128);
    let mut results = results.into_iter();
    for (batch, checkpoint, restored) in units {
        let outcome = match restored {
            Some(outcome) => {
                // A restored batch's modules all finish at once.
                for _ in 0..outcome.record.modules {
                    ctl.progress().module_done();
                }
                outcome
            }
            None => {
                let modules = config.batch_modules(batch);
                let taken = (modules.end - modules.start) as usize;
                let outcome = fold_batch(batch, modules, results.by_ref().take(taken))?;
                if let Some(us) = unit_us {
                    histogram_record!("exec_unit_us", us);
                }
                exec::seal_unit(checkpoint.as_ref(), ctl, &outcome);
                outcome
            }
        };
        if judge(outcome) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Runs a population study to convergence (or fleet exhaustion).
///
/// # Errors
///
/// Propagates measurement errors; returns [`StudyError::Cancelled`] when the
/// control's token fires (finished batches persist as checkpoints when
/// enabled, so a re-run resumes from them).
pub fn population_run(
    config: &PopulationConfig,
    exec_cfg: &ExecConfig,
    ctl: &JobControl,
) -> Result<(Vec<BatchRecord>, PopulationSummary), StudyError> {
    config.validate()?;
    let key = population_key(config);
    let planned = config.planned_batches();
    let mut span = Span::begin("population.run");
    span.field_u64("size", config.population.size);
    span.field_u64("planned_batches", planned);
    span.field_str("key", &format!("{key:016x}"));
    if let Some(dir) = exec_cfg.cache_dir.as_deref() {
        let path = result_path(dir, key);
        if let Some(cached) =
            exec::cache_lookup(&path, key, ctl, format_args!("population/{key:016x}"))
        {
            return Ok(cached);
        }
    }
    ctl.progress().add_totals(config.population.size, planned);
    let sampler = config.population.sampler();
    let mut acc = Accumulator::default();
    let mut records: Vec<BatchRecord> = Vec::new();
    // Absorbs one batch in batch order and applies the stopping rule.
    let mut judge = |outcome: BatchOutcome| -> bool {
        ctl.progress().unit_done();
        acc.absorb(&outcome);
        let (ps, rel) = acc.bounds(config.stopping.ci_level);
        let done = outcome.record.batch + 1;
        let rule = &config.stopping;
        let cv_ok = ps.is_some_and(|(p90, p95, p99)| {
            p90 <= rule.cv_p90 && p95 <= rule.cv_p95 && p99 <= rule.cv_p99
        });
        let ci_ok = rel.is_some_and(|r| r <= rule.ci_rel_width);
        let stop = done >= rule.min_batches && cv_ok && ci_ok;
        let mut record = outcome.record;
        record.cv_p90 = ps.map(|p| p.0);
        record.cv_p95 = ps.map(|p| p.1);
        record.cv_p99 = ps.map(|p| p.2);
        record.ci_rel_width = rel;
        record.sampled_fraction = acc.measured as f64 / config.population.size as f64;
        record.converged = stop;
        // Live progress for /metrics: CI width in ppm of the mean and the
        // sampled fraction in ppm of the fleet.
        gauge_set!(
            "population_ci_rel_width_ppm",
            rel.map_or(-1, |r| (r * 1e6) as i64)
        );
        gauge_set!(
            "population_sampled_ppm",
            (record.sampled_fraction * 1e6) as i64
        );
        counter_add!("population_batches", 1);
        records.push(record);
        stop
    };
    let mut converged = false;
    let mut next = 0;
    while next < planned && !converged {
        if ctl.cancel.is_cancelled() {
            return Err(StudyError::Cancelled);
        }
        let batches = config.window(next);
        next = batches.end;
        converged = run_window(&sampler, config, key, batches, exec_cfg, ctl, &mut judge)?;
    }
    let stopped_at_batch = records.len() as u64;
    // The whole fleet was declared up front; take back what the stop left
    // unrun, so progress ends at its totals.
    let covered = (stopped_at_batch * config.batch_size).min(config.population.size);
    ctl.progress()
        .retract_totals(config.population.size - covered, planned - stopped_at_batch);
    let (ps, _) = acc.bounds(config.stopping.ci_level);
    let interval = if acc.hc_ratios.len() < 2 {
        None
    } else {
        ci::mean_ci(&acc.hc_ratios, config.stopping.ci_level)
            .ok()
            .map(|i| (i.lo, i.hi))
    };
    let summary = PopulationSummary {
        size: config.population.size,
        measured: acc.measured,
        families: acc.families,
        stopped_at_batch,
        converged,
        mean_hc_ratio: Accumulator::mean(&acc.hc_ratios),
        mean_ber_ratio: Accumulator::mean(&acc.ber_ratios),
        cv_percentiles: ps,
        ci: interval,
    };
    if hammervolt_obs::collecting() {
        manifest::annotate("population_stopped_at_batch", &stopped_at_batch.to_string());
        manifest::annotate(
            "population_converged",
            if converged { "true" } else { "false" },
        );
        manifest::annotate("population_modules_measured", &acc.measured.to_string());
    }
    if let Some(dir) = exec_cfg.cache_dir.as_deref() {
        exec::land(
            exec_cfg,
            &result_path(dir, key),
            key,
            &(&records, &summary),
            stopped_at_batch,
            |dir, batch| batch_checkpoint_path(dir, key, batch),
        );
    }
    Ok((records, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PopulationConfig {
        let mut cfg = PopulationConfig::smoke(12, 9);
        cfg.batch_size = 4;
        cfg.rows_per_module = 1;
        cfg.alg1.iterations = 2;
        cfg
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        let ctl = JobControl::new();
        for breaker in [
            |c: &mut PopulationConfig| c.population.size = 0,
            |c: &mut PopulationConfig| c.batch_size = 0,
            |c: &mut PopulationConfig| c.rows_per_module = 0,
            |c: &mut PopulationConfig| c.stopping.min_batches = 0,
            // Bounds on what one request may make the engine hold: the
            // first collected 8 TiB of indices before it was refused.
            |c: &mut PopulationConfig| {
                c.population.size = 1 << 40;
                c.batch_size = 1 << 40;
            },
            |c: &mut PopulationConfig| c.batch_size = MAX_BATCH_SIZE + 1,
            |c: &mut PopulationConfig| c.rows_per_module = u32::MAX,
            |c: &mut PopulationConfig| c.rows_per_module = MAX_ROWS_PER_MODULE + 1,
        ] {
            let mut cfg = tiny();
            breaker(&mut cfg);
            let err = population_run(&cfg, &ExecConfig::serial(), &ctl);
            assert!(matches!(err, Err(StudyError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn key_separates_configs() {
        let a = tiny();
        let mut b = tiny();
        b.population.seed += 1;
        assert_ne!(population_key(&a), population_key(&b));
        let mut c = tiny();
        c.stopping.cv_p90 *= 2.0;
        assert_ne!(population_key(&a), population_key(&c));
        assert_eq!(population_key(&a), population_key(&tiny()));
    }

    #[test]
    fn run_is_deterministic_across_worker_counts() {
        let cfg = tiny();
        let ctl = JobControl::new();
        let serial = population_run(&cfg, &ExecConfig::serial(), &ctl).unwrap();
        let parallel = population_run(&cfg, &ExecConfig::with_jobs(4), &JobControl::new()).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.1.measured, 12);
        let f = serial.1.families;
        assert_eq!(f.0 + f.1 + f.2, 12);
    }

    #[test]
    fn batch_records_cover_the_fleet_prefix() {
        let cfg = tiny();
        let (records, summary) =
            population_run(&cfg, &ExecConfig::serial(), &JobControl::new()).unwrap();
        assert!(!records.is_empty());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.batch, i as u64);
            assert_eq!(r.start, i as u64 * cfg.batch_size);
            assert!(r.modules <= cfg.batch_size);
        }
        let measured: u64 = records.iter().map(|r| r.modules).sum();
        assert_eq!(measured, summary.measured);
        assert_eq!(summary.stopped_at_batch, records.len() as u64);
    }

    #[test]
    fn cancelled_token_stops_before_any_batch() {
        let cfg = tiny();
        let ctl = JobControl::new();
        ctl.cancel.cancel();
        let err = population_run(&cfg, &ExecConfig::serial(), &ctl).unwrap_err();
        assert_eq!(err, StudyError::Cancelled);
    }

    #[test]
    fn loose_rule_stops_at_min_batches() {
        let mut cfg = tiny();
        // Bounds loose enough that any data satisfies them: the sequential
        // guard alone decides the stopping batch.
        cfg.stopping = StoppingRule {
            cv_p90: f64::INFINITY,
            cv_p95: f64::INFINITY,
            cv_p99: f64::INFINITY,
            ci_level: 0.9,
            ci_rel_width: f64::INFINITY,
            min_batches: 2,
        };
        let ctl = JobControl::new();
        let (records, summary) = population_run(&cfg, &ExecConfig::serial(), &ctl).unwrap();
        assert!(summary.converged);
        assert_eq!(summary.stopped_at_batch, 2);
        assert_eq!(
            ctl.snapshot().modules_done,
            2 * cfg.batch_size,
            "no module past the stopping batch is measured"
        );
        assert_eq!(records.len(), 2);
        assert!(records[1].converged);
        assert!(!records[0].converged, "min_batches gates the first batch");
    }
}
