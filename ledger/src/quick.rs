//! `quick_study`: the CLI's quick protocol (30 modules, 8 rows per chunk) —
//! `JobSpec::run` for the Alg. 1 hammer, Alg. 2 `t_RCD` (4 levels) and
//! Alg. 3 retention sweeps at 2 workers — and its traced serial replay of
//! every `(module, chunk)` unit.

use crate::alg::{self, Counts};
use crate::spans::{span, Tracer};
use crate::workload::{Layers, PassOutput, Size, TracedOutput};
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::experiment::vpp_ladder;
use hammervolt_core::job::{JobControl, JobSpec, SweepKind};
use hammervolt_core::records::{
    read_jsonl, write_jsonl, RetentionRecord, RowHammerRecord, TrcdRecord,
};
use hammervolt_core::study::{level_matches, StudyConfig};
use hammervolt_core::StudyError;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_dram::{hash, ModuleBlueprint};
use hammervolt_softmc::SoftMc;
use serde::Serialize;
use std::time::Instant;

/// Specimen seed base for a session seed: seed 0 is the CLI's protocol, so
/// its output is byte-identical to `hammervolt sweep|trcd|retention`; other
/// seeds shift every module to fresh silicon.
pub fn study_seed(seed: u64) -> u64 {
    StudyConfig::quick()
        .seed
        .wrapping_add(seed.wrapping_mul(1000))
}

/// The generated inputs of one run.
pub struct Inputs {
    specs: Vec<JobSpec>,
    exec: ExecConfig,
}

pub fn inputs(seed: u64, size: Size) -> Inputs {
    let base = match size {
        Size::Full => StudyConfig::quick(),
        Size::Tiny => StudyConfig {
            modules: vec![ModuleId::B3],
            rows_per_chunk: 2,
            ..StudyConfig::smoke()
        },
    };
    let config = StudyConfig {
        seed: study_seed(seed),
        ..base
    };
    let specs = [
        SweepKind::Hammer,
        SweepKind::Trcd { levels_cap: 4 },
        SweepKind::Retention,
    ]
    .into_iter()
    .map(|kind| JobSpec {
        kind,
        config: config.clone(),
    })
    .collect();
    Inputs {
        specs,
        exec: ExecConfig::with_jobs(2),
    }
}

/// The engine's output: the three sweeps' JSONL, concatenated in the order
/// the CLI prints them.
fn engine(inputs: &Inputs) -> Result<Vec<u8>, String> {
    let mut payload = Vec::new();
    for spec in &inputs.specs {
        let out = spec
            .run(&inputs.exec, &JobControl::new())
            .map_err(|e| format!("{} sweep failed: {e}", spec.kind.label()))?;
        payload.extend_from_slice(out.records_jsonl.as_bytes());
    }
    Ok(payload)
}

/// Structural checks on a payload: every line parses as its sweep's record,
/// every configured module appears in every sweep, and rates are rates.
fn check(inputs: &Inputs, payload: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let modules = &inputs.specs[0].config.modules;
    let mut sections: [Vec<&str>; 3] = Default::default();
    let mut section = 0;
    for line in text.lines() {
        let kind = if line.contains("\"t_rcd_min_ns\"") {
            1
        } else if line.contains("\"window_s\"") {
            2
        } else {
            0
        };
        if kind < section {
            return Err("sweeps are out of order".to_string());
        }
        section = kind;
        sections[kind].push(line);
    }
    let parse_err = |e: serde_json::Error| format!("malformed record: {e}");
    let hammer: Vec<RowHammerRecord> = read_jsonl(&sections[0].join("\n")).map_err(parse_err)?;
    let trcd: Vec<TrcdRecord> = read_jsonl(&sections[1].join("\n")).map_err(parse_err)?;
    let retention: Vec<RetentionRecord> = read_jsonl(&sections[2].join("\n")).map_err(parse_err)?;
    for id in modules {
        if !hammer.iter().any(|r| r.module == *id)
            || !trcd.iter().any(|r| r.module == *id)
            || !retention.iter().any(|r| r.module == *id)
        {
            return Err(format!("module {} is missing from a sweep", id.label()));
        }
    }
    let rate = |x: f64| (0.0..=1.0).contains(&x);
    if !hammer.iter().all(|r| rate(r.ber)) || !retention.iter().all(|r| rate(r.ber)) {
        return Err("a bit error rate lies outside [0, 1]".to_string());
    }
    Ok(())
}

/// One untraced pass: the three sweeps at 2 workers.
pub fn pass(inputs: &Inputs) -> Result<PassOutput, String> {
    let t0 = Instant::now();
    let payload = engine(inputs)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let failed = u64::from(check(inputs, &payload).is_err());
    Ok(PassOutput {
        wall_s,
        payload,
        attempted: inputs.specs.len() as u64,
        failed,
        extras: Vec::new(),
    })
}

/// A unit's records grouped by ladder level, with the module-wide metadata.
struct UnitOut<R> {
    levels: Vec<f64>,
    per_level: Vec<Vec<R>>,
}

/// `study::thin_levels` (crate-private in the library): at most `cap`
/// levels, both endpoints kept.
fn thin_levels(ladder: &[f64], cap: usize) -> Vec<f64> {
    if ladder.len() <= cap {
        return ladder.to_vec();
    }
    let mut out: Vec<f64> = (0..cap)
        .map(|i| ladder[i * (ladder.len() - 1) / (cap - 1)])
        .collect();
    out.dedup();
    out
}

/// `StudyConfig::blueprint`, split so the device construction and the
/// `V_PPmin` calibration are timed apart.
fn blueprint(
    t: &mut Tracer,
    config: &StudyConfig,
    id: ModuleId,
) -> Result<ModuleBlueprint, StudyError> {
    span(t, "exec.blueprint", |t| {
        let mut bp = span(t, "dram.blueprint_build", |_| {
            ModuleBlueprint::with_geometry(
                registry::spec(id),
                config.module_seed(id),
                config.geometry_for(id),
            )
        })
        .map_err(|e| StudyError::Infrastructure(e.into()))?;
        let module = span(t, "dram.instantiate", |_| bp.instantiate());
        let mut mc = span(t, "softmc.bring_up", |_| SoftMc::new(module));
        let (vpp_min, steps) = span(t, "softmc.calibrate_vppmin", |_| mc.calibrate_vppmin())?;
        bp.set_vppmin_memo(vpp_min, steps);
        Ok(bp)
    })
}

/// The engine's unit bring-up: a pristine session from the blueprint, the
/// memoized `V_PPmin`, then the noise stream rebased onto the chunk seed and
/// the chunk's rows pre-derived. Retention settles at 80 °C first.
fn bring_up(
    t: &mut Tracer,
    config: &StudyConfig,
    bp: &ModuleBlueprint,
    id: ModuleId,
    chunk: u64,
    rows: &[u32],
    hot: bool,
) -> Result<(SoftMc, f64), StudyError> {
    let module = span(t, "dram.instantiate", |_| bp.instantiate());
    let mut mc = span(t, "softmc.bring_up", |_| SoftMc::new(module));
    let vpp_min = match bp.vppmin_memo() {
        Some((vpp_min, _)) => vpp_min,
        None => span(t, "softmc.calibrate_vppmin", |_| mc.calibrate_vppmin())?.0,
    };
    if hot {
        span(t, "softmc.set_temperature", |_| mc.set_temperature(80.0))?;
    }
    span(t, "dram.prepare", |_| {
        mc.module_mut()
            .reseed_noise(hash::chunk_seed(config.module_seed(id), config.bank, chunk));
        mc.module_mut().prepare_rows(config.bank, rows);
    });
    Ok((mc, vpp_min))
}

fn set_vpp(t: &mut Tracer, mc: &mut SoftMc, vpp: f64) -> Result<(), StudyError> {
    span(t, "softmc.set_vpp", |_| mc.set_vpp(vpp))?;
    Ok(())
}

/// The engine's `hammer_unit`: the full ladder with per-row WCDP reuse
/// below nominal.
fn hammer_unit(
    t: &mut Tracer,
    c: &mut Counts,
    config: &StudyConfig,
    bp: &ModuleBlueprint,
    id: ModuleId,
    chunk: u64,
    rows: &[u32],
) -> Result<UnitOut<RowHammerRecord>, StudyError> {
    let (mut mc, vpp_min) = bring_up(t, config, bp, id, chunk, rows, false)?;
    let levels = vpp_ladder(vpp_min);
    let mut per_level: Vec<Vec<RowHammerRecord>> = levels.iter().map(|_| Vec::new()).collect();
    let mut wcdp_by_slot = vec![None; rows.len()];
    for (li, &vpp) in levels.iter().enumerate() {
        set_vpp(t, &mut mc, vpp)?;
        for (slot, &row) in rows.iter().enumerate() {
            // An edge row lacks an aggressor; the engine skips it before
            // issuing any command.
            if hammervolt_core::alg1::aggressors_of(&mc, row).is_err() {
                continue;
            }
            let cfg = hammervolt_core::alg1::Alg1Config {
                wcdp_override: wcdp_by_slot[slot].or(config.alg1.wcdp_override),
                ..config.alg1
            };
            let m = alg::alg1_row(t, c, &mut mc, config.bank, row, &cfg)?;
            wcdp_by_slot[slot].get_or_insert(m.wcdp);
            per_level[li].push(RowHammerRecord {
                module: id,
                vpp,
                bank: config.bank,
                row,
                wcdp: m.wcdp,
                hc_first: m.hc_first,
                ber: m.ber,
            });
        }
    }
    Ok(UnitOut { levels, per_level })
}

/// The engine's `trcd_unit`: the thinned ladder.
#[allow(clippy::too_many_arguments)] // the unit shape plus the Alg. 2 level cap
fn trcd_unit(
    t: &mut Tracer,
    c: &mut Counts,
    config: &StudyConfig,
    bp: &ModuleBlueprint,
    id: ModuleId,
    levels_cap: usize,
    chunk: u64,
    rows: &[u32],
) -> Result<UnitOut<TrcdRecord>, StudyError> {
    let (mut mc, vpp_min) = bring_up(t, config, bp, id, chunk, rows, false)?;
    let levels = thin_levels(&vpp_ladder(vpp_min), levels_cap.max(2));
    let mut per_level: Vec<Vec<TrcdRecord>> = levels.iter().map(|_| Vec::new()).collect();
    for (li, &vpp) in levels.iter().enumerate() {
        set_vpp(t, &mut mc, vpp)?;
        for &row in rows {
            let t_rcd_min_ns = alg::alg2_row(t, c, &mut mc, config.bank, row, &config.alg2)?;
            per_level[li].push(TrcdRecord {
                module: id,
                vpp,
                bank: config.bank,
                row,
                t_rcd_min_ns,
            });
        }
    }
    Ok(UnitOut { levels, per_level })
}

/// The engine's `retention_unit`: the retention levels at 80 °C.
fn retention_unit(
    t: &mut Tracer,
    c: &mut Counts,
    config: &StudyConfig,
    bp: &ModuleBlueprint,
    id: ModuleId,
    chunk: u64,
    rows: &[u32],
) -> Result<UnitOut<RetentionRecord>, StudyError> {
    let (mut mc, vpp_min) = bring_up(t, config, bp, id, chunk, rows, true)?;
    let mut levels: Vec<f64> = config
        .retention_vpp_levels
        .iter()
        .map(|&v| v.max(vpp_min))
        .collect();
    levels.dedup_by(|a, b| level_matches(*a, *b));
    let mut per_level: Vec<Vec<RetentionRecord>> = levels.iter().map(|_| Vec::new()).collect();
    for (li, &vpp) in levels.iter().enumerate() {
        set_vpp(t, &mut mc, vpp)?;
        for &row in rows {
            for (window_s, ber) in alg::alg3_row(t, c, &mut mc, config.bank, row, &config.alg3)? {
                per_level[li].push(RetentionRecord {
                    module: id,
                    vpp,
                    bank: config.bank,
                    row,
                    window_s,
                    ber,
                });
            }
        }
    }
    Ok(UnitOut { levels, per_level })
}

/// Replays one sweep the way the engine shards it: a blueprint per module,
/// then every `(module, chunk)` unit, then level-major reassembly and emit.
fn replay_sweep<R: Serialize>(
    t: &mut Tracer,
    config: &StudyConfig,
    unit_ns: &mut Vec<u64>,
    payload: &mut Vec<u8>,
    mut run_unit: impl FnMut(
        &mut Tracer,
        &ModuleBlueprint,
        ModuleId,
        u64,
        &[u32],
    ) -> Result<UnitOut<R>, StudyError>,
) -> Result<(), StudyError> {
    let blueprints = config
        .modules
        .iter()
        .map(|&id| blueprint(t, config, id))
        .collect::<Result<Vec<_>, _>>()?;
    for (bp, &id) in blueprints.iter().zip(&config.modules) {
        let mut units = Vec::new();
        for (chunk, rows) in config
            .sample(config.geometry_for(id))
            .groups()
            .iter()
            .enumerate()
        {
            t.enter("exec.unit");
            let out = run_unit(t, bp, id, chunk as u64, rows);
            unit_ns.push(t.exit());
            units.push(out?);
        }
        let Some(n_levels) = units.first().map(|u| u.levels.len()) else {
            return Err(StudyError::InvalidConfig {
                reason: format!("module {} has an empty row sample", id.label()),
            });
        };
        let mut records = Vec::new();
        for li in 0..n_levels {
            for unit in &mut units {
                records.append(&mut unit.per_level[li]);
            }
        }
        span(t, "exec.emit", |_| write_jsonl(&records, &mut *payload)).map_err(|e| {
            StudyError::InvalidConfig {
                reason: format!("cannot serialize records: {e}"),
            }
        })?;
    }
    Ok(())
}

/// The serial replay of all three sweeps, in CLI output order.
fn replay(
    t: &mut Tracer,
    c: &mut Counts,
    inputs: &Inputs,
    unit_ns: &mut Vec<u64>,
) -> Result<Vec<u8>, StudyError> {
    let mut payload = Vec::new();
    for spec in &inputs.specs {
        let config = &spec.config;
        match spec.kind {
            SweepKind::Hammer => span(t, "sweep.hammer", |t| {
                replay_sweep(
                    t,
                    config,
                    unit_ns,
                    &mut payload,
                    |t, bp, id, chunk, rows| hammer_unit(t, c, config, bp, id, chunk, rows),
                )
            })?,
            SweepKind::Trcd { levels_cap } => span(t, "sweep.trcd", |t| {
                replay_sweep(
                    t,
                    config,
                    unit_ns,
                    &mut payload,
                    |t, bp, id, chunk, rows| {
                        trcd_unit(t, c, config, bp, id, levels_cap, chunk, rows)
                    },
                )
            })?,
            SweepKind::Retention => span(t, "sweep.retention", |t| {
                replay_sweep(
                    t,
                    config,
                    unit_ns,
                    &mut payload,
                    |t, bp, id, chunk, rows| retention_unit(t, c, config, bp, id, chunk, rows),
                )
            })?,
            SweepKind::Population(_) => unreachable!("quick_study runs registry sweeps only"),
        }
    }
    Ok(payload)
}

/// One engine pass with metrics collection installed the way the CLI
/// installs it for `HAMMERVOLT_METRICS=1`.
fn engine_with_metrics(inputs: &Inputs) -> Result<(f64, Vec<u8>), String> {
    let guard = hammervolt_obs::cli::ObsOptions {
        metrics: true,
        ..Default::default()
    }
    .install("bench-ledger");
    let t0 = Instant::now();
    let payload = engine(inputs);
    let wall_s = t0.elapsed().as_secs_f64();
    drop(guard);
    Ok((wall_s, payload?))
}

/// The traced run: an untraced engine pass (the reference output and wall
/// time), the serial replay under spans, and one pass with metrics on.
pub fn traced(seed: u64, size: Size) -> Result<TracedOutput, String> {
    let inputs = inputs(seed, size);
    let t0 = Instant::now();
    let reference = engine(&inputs)?;
    let wall_s = t0.elapsed().as_secs_f64();

    let mut t = Tracer::new("quick_study");
    let mut c = Counts::default();
    let mut unit_ns = Vec::new();
    let replayed = replay(&mut t, &mut c, &inputs, &mut unit_ns);
    let tree = t.finish();
    let replayed = replayed.map_err(|e| format!("replay failed: {e}"))?;
    let (metrics_wall_s, with_metrics) = engine_with_metrics(&inputs)?;

    let failed = u64::from(replayed != reference)
        + u64::from(with_metrics != reference)
        + u64::from(check(&inputs, &reference).is_err());
    let unit_s: Vec<f64> = unit_ns.iter().map(|&ns| ns as f64 * 1e-9).collect();
    let mut layers = Layers::default();
    layers.set("exec.blueprint_s", tree.total_s("exec.blueprint"));
    layers.set("exec.blueprints", tree.count("exec.blueprint") as f64);
    layers.set("exec.units", unit_s.len() as f64);
    layers.set("exec.unit_s_p50", crate::stats::median(&unit_s));
    layers.set(
        "exec.unit_s_max",
        unit_s.iter().copied().fold(0.0, f64::max),
    );
    layers.set("exec.emit_s", tree.total_s("exec.emit"));
    layers.set(
        "par.efficiency",
        unit_s.iter().sum::<f64>() / (2.0 * wall_s),
    );
    layers.set(
        "obs.metrics_overhead_ratio",
        (metrics_wall_s - wall_s) / wall_s,
    );
    layers.device(&tree, &c, wall_s);
    Ok(TracedOutput {
        layers,
        spans: tree,
        digest: crate::stats::fnv1a64(&reference),
        attempted: 3,
        failed,
    })
}
