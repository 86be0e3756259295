//! Workspace-wide conformance and fault-injection harness.
//!
//! Four layers, each exercising a different failure class:
//!
//! 1. **Golden-figure oracle** ([`golden`], `tests/goldens.rs`): every
//!    figure/table payload the `hammervolt-bench` bins emit is snapshotted
//!    as a content-hashed JSONL file under `goldens/`. Any change to the
//!    physics model, the methodology, or the figure builders shows up as a
//!    hash drift with a line-level diff. Regenerate with the
//!    `regen-goldens` bin after an intentional change.
//! 2. **Paper-invariant properties** (`tests/invariants.rs`): the paper's
//!    Observations 1–15 as executable monotonicity/ordering properties
//!    over the `hammervolt-dram` physics model, run under the vendored
//!    `proptest`.
//! 3. **Differential oracle** (`tests/differential.rs`): serial, parallel,
//!    and warm-cache executions of every sweep kind must be
//!    byte-identical.
//! 4. **Fault injection** ([`faults`], `tests/faults.rs`): deterministic
//!    corruption of sweep-cache entries (truncation, bit flips, stale-key
//!    swaps) and of SoftMC command programs; the system must detect and
//!    recompute (or reject), never serve poisoned results.
//!
//! The golden configuration is intentionally tiny — one module per
//! manufacturer, two rows per chunk — so the whole suite stays seconds-fast
//! while still covering all three vendor models end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod golden;

use hammervolt_bench::figures::{
    fig03_series, fig04_series, fig05_series, fig06_series, fig07_series, fig10a_series,
    fig10b_series, guardband_summary, observation_findings, table1_rows, table3_rows,
};
use hammervolt_core::error::StudyError;
use hammervolt_core::exec::{retention_sweeps, rowhammer_sweeps, trcd_sweeps, ExecConfig};
use hammervolt_core::job::JobControl;
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;

use golden::Golden;

/// The conformance study configuration: one module per manufacturer with a
/// minimal row sample. Small enough that the full golden set regenerates in
/// seconds, yet it exercises every vendor model, every sweep kind, and
/// every figure builder.
pub fn golden_config() -> StudyConfig {
    StudyConfig {
        rows_per_chunk: 2,
        ..StudyConfig::quick_subset(&[ModuleId::A0, ModuleId::B3, ModuleId::C5])
    }
}

/// The `t_RCD` ladder cap used for the guardband golden (mirrors the
/// `guardband` bin).
pub const GUARDBAND_LEVELS_CAP: usize = 2;

/// The `t_RCD` ladder cap used for the Fig. 7 golden (mirrors the fast
/// scales of the `fig07_trcd_vs_vpp` bin).
pub const FIG07_LEVELS_CAP: usize = 4;

/// Names of every golden snapshot in regeneration order: one per
/// `hammervolt-bench` bin, plus the observability manifest's deterministic
/// subset.
pub const GOLDEN_NAMES: [&str; 12] = [
    "table1",
    "table3",
    "fig03_ber_vs_vpp",
    "fig04_ber_density",
    "fig05_hcfirst_vs_vpp",
    "fig06_hcfirst_density",
    "fig07_trcd_vs_vpp",
    "fig10a_retention_ber",
    "fig10b_retention_density",
    "guardband",
    "observations",
    "obs_manifest_stable",
];

/// Computes the full golden set from the [`golden_config`] study: one
/// [`Golden`] per bench bin, in [`GOLDEN_NAMES`] order. Sweeps are shared
/// across figures exactly as in the bins (the hammer sweep feeds six
/// payloads), so the set is cheap to regenerate and internally consistent.
///
/// # Errors
///
/// Propagates infrastructure errors from the underlying sweeps.
pub fn compute_goldens(exec: &ExecConfig) -> Result<Vec<Golden>, StudyError> {
    let cfg = golden_config();
    let ctl = JobControl::new();
    let hammer = rowhammer_sweeps(&cfg, exec, &ctl)?;
    let trcd_guard = trcd_sweeps(&cfg, GUARDBAND_LEVELS_CAP, exec, &ctl)?;
    let trcd_fig07 = trcd_sweeps(&cfg, FIG07_LEVELS_CAP, exec, &ctl)?;
    let retention = retention_sweeps(&cfg, exec, &ctl)?;
    Ok(vec![
        Golden::from_items("table1", &table1_rows()),
        Golden::from_items("table3", &table3_rows(&hammer)),
        Golden::from_items("fig03_ber_vs_vpp", &fig03_series(&hammer)),
        Golden::from_items("fig04_ber_density", &fig04_series(&hammer)),
        Golden::from_items("fig05_hcfirst_vs_vpp", &fig05_series(&hammer)),
        Golden::from_items("fig06_hcfirst_density", &fig06_series(&hammer)),
        Golden::from_items("fig07_trcd_vs_vpp", &fig07_series(&trcd_fig07)),
        Golden::from_items("fig10a_retention_ber", &fig10a_series(&retention)),
        Golden::from_items("fig10b_retention_density", &fig10b_series(&retention)),
        Golden::single("guardband", &guardband_summary(&trcd_guard)),
        Golden::single("observations", &observation_findings(&hammer)),
        obs_manifest_golden(&cfg)?,
    ])
}

/// Computes the `obs_manifest_stable` golden: the manifest's deterministic
/// subset — config hash plus every counter — for a serial, uncached hammer
/// sweep of the golden configuration with metrics enabled.
///
/// The sweep is re-run here (rather than reusing the one `compute_goldens`
/// already ran) so the counter values never depend on the caller's
/// scheduling or cache state: serial and uncached is the one shape whose
/// counts are reproducible by construction. Counters hold only
/// deterministic event counts — wall-clock time lives in histograms, which
/// the stable subset excludes — so this golden pins the instrumentation
/// contract the same way the figure goldens pin the physics.
///
/// # Errors
///
/// Propagates infrastructure errors from the underlying sweep.
fn obs_manifest_golden(cfg: &StudyConfig) -> Result<Golden, StudyError> {
    let was_on = hammervolt_obs::metrics_enabled();
    hammervolt_obs::metrics::reset();
    hammervolt_obs::manifest::reset();
    hammervolt_obs::set_metrics(true);
    let run = rowhammer_sweeps(cfg, &ExecConfig::serial(), &JobControl::new());
    let line = hammervolt_obs::manifest::stable_subset_json();
    hammervolt_obs::set_metrics(was_on);
    hammervolt_obs::manifest::reset();
    run?;
    Ok(Golden {
        name: "obs_manifest_stable".to_string(),
        lines: vec![line],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_config_covers_each_manufacturer_once() {
        let cfg = golden_config();
        assert_eq!(cfg.modules.len(), 3);
        let letters: Vec<char> = cfg
            .modules
            .iter()
            .map(|m| m.manufacturer().letter())
            .collect();
        assert_eq!(letters, vec!['A', 'B', 'C']);
        assert_eq!(cfg.rows_per_chunk, 2);
        assert!(cfg.reduced_geometry, "golden runs must stay fast");
    }

    #[test]
    fn golden_names_are_unique_and_complete() {
        let mut names = GOLDEN_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GOLDEN_NAMES.len());
    }
}
