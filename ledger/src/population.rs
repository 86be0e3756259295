//! `population_fleet`: a generated 1024-module fleet, every module measured
//! (the stopping rule may not fire before the last batch), at 2 workers —
//! and its traced serial replay of every module.

use crate::alg::{self, Counts};
use crate::spans::{span, Tracer};
use crate::workload::{Layers, PassOutput, Size, TracedOutput};
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobControl, JobSpec};
use hammervolt_core::population::{BatchRecord, PopulationConfig, PopulationSummary};
use hammervolt_core::significance;
use hammervolt_core::StudyError;
use hammervolt_dram::{Geometry, ModuleBlueprint};
use hammervolt_softmc::SoftMc;
use std::time::Instant;

pub struct Inputs {
    config: PopulationConfig,
    exec: ExecConfig,
}

pub fn inputs(seed: u64, size: Size) -> Inputs {
    let modules = match size {
        Size::Full => 1024,
        Size::Tiny => 16,
    };
    let mut config = PopulationConfig::smoke(modules, seed);
    config.stopping.min_batches = config.planned_batches();
    Inputs {
        config,
        exec: ExecConfig::with_jobs(2),
    }
}

fn engine(inputs: &Inputs) -> Result<Vec<u8>, String> {
    JobSpec::population(inputs.config.clone())
        .run(&inputs.exec, &JobControl::new())
        .map(|out| out.records_jsonl.into_bytes())
        .map_err(|e| format!("population run failed: {e}"))
}

/// The payload's batch records and summary.
fn parse(payload: &[u8]) -> Result<(Vec<BatchRecord>, PopulationSummary), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let mut lines: Vec<&str> = text.lines().collect();
    let summary = lines.pop().ok_or("empty population payload")?;
    let summary: PopulationSummary =
        serde_json::from_str(summary).map_err(|e| format!("malformed summary: {e}"))?;
    let batches = lines
        .iter()
        .map(|l| serde_json::from_str(l))
        .collect::<Result<Vec<BatchRecord>, _>>()
        .map_err(|e| format!("malformed batch record: {e}"))?;
    Ok((batches, summary))
}

/// Every module measured, in full batches, and the summary agrees.
fn check(inputs: &Inputs, payload: &[u8]) -> Result<(), String> {
    let (batches, summary) = parse(payload)?;
    let cfg = &inputs.config;
    let measured: u64 = batches.iter().map(|b| b.modules).sum();
    if summary.measured != cfg.population.size
        || measured != summary.measured
        || batches.len() as u64 != cfg.planned_batches()
    {
        return Err(format!(
            "measured {} of {} modules in {} batches",
            summary.measured,
            cfg.population.size,
            batches.len()
        ));
    }
    Ok(())
}

pub fn pass(inputs: &Inputs) -> Result<PassOutput, String> {
    let t0 = Instant::now();
    let payload = engine(inputs)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let failed = u64::from(check(inputs, &payload).is_err());
    Ok(PassOutput {
        wall_s,
        payload,
        attempted: 1,
        failed,
        extras: Vec::new(),
    })
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// One measured module: family index, mean ratios, §4.6 groups.
struct Module {
    family: usize,
    hc_ratio: Option<f64>,
    ber_ratio: Option<f64>,
    groups: Vec<Vec<f64>>,
}

/// `core::population`'s private `measure_module`.
fn measure_module(
    t: &mut Tracer,
    c: &mut Counts,
    sampler: &hammervolt_dram::population::PopulationSampler,
    index: u64,
    config: &PopulationConfig,
) -> Result<Module, StudyError> {
    let spec = span(t, "population.module_spec", |_| sampler.module_spec(index));
    let family = hammervolt_dram::Manufacturer::ALL
        .iter()
        .position(|&m| m == spec.mfr)
        .expect("every family is listed");
    let vpp_min = spec.vpp_min;
    let bp = span(t, "dram.blueprint_build", |_| {
        ModuleBlueprint::with_geometry(spec, sampler.module_seed(index), Geometry::small_test())
    })
    .map_err(|e| StudyError::Infrastructure(e.into()))?;
    let module = span(t, "dram.instantiate", |_| bp.instantiate());
    let mut mc = span(t, "softmc.bring_up", |_| SoftMc::new(module));
    let mapping_rows = mc.module().geometry().rows_per_bank;
    let n = config.rows_per_module;
    let rows: Vec<u32> = (0..n)
        .map(|k| {
            let phys = mapping_rows / 4 + mapping_rows / 2 * (k + 1) / (n + 1);
            mc.module().mapping().physical_to_logical(phys)
        })
        .collect();
    let mut groups = Vec::with_capacity(rows.len());
    let mut hc_ratios = Vec::new();
    let mut ber_ratios = Vec::new();
    for &row in &rows {
        span(t, "softmc.set_vpp", |_| mc.set_vpp(2.5))?;
        let nominal = alg::alg1_row(t, c, &mut mc, 0, row, &config.alg1)?;
        span(t, "softmc.set_vpp", |_| mc.set_vpp(vpp_min))?;
        let reduced = alg::alg1_row(t, c, &mut mc, 0, row, &config.alg1)?;
        if let (Some(hn), Some(hm)) = (nominal.hc_first, reduced.hc_first) {
            hc_ratios.push(hm as f64 / hn as f64);
        }
        if nominal.ber > 0.0 {
            ber_ratios.push(reduced.ber / nominal.ber);
        }
        groups.push(nominal.ber_samples);
    }
    Ok(Module {
        family,
        hc_ratio: mean(&hc_ratios),
        ber_ratio: mean(&ber_ratios),
        groups,
    })
}

/// The serial replay: every batch's modules, then its significance test.
/// Returns the per-batch records' replayable fields and each module's time.
fn replay(
    t: &mut Tracer,
    c: &mut Counts,
    config: &PopulationConfig,
    module_ns: &mut Vec<u64>,
) -> Result<Vec<BatchRecord>, StudyError> {
    let sampler = span(t, "population.sampler", |_| config.population.sampler());
    let mut out = Vec::new();
    for batch in 0..config.planned_batches() {
        let start = batch * config.batch_size;
        let end = (start + config.batch_size).min(config.population.size);
        let record = span(t, "population.batch", |t| {
            let mut families = [0u64; 3];
            let (mut hc, mut ber, mut groups) = (Vec::new(), Vec::new(), Vec::new());
            for index in start..end {
                t.enter("population.module");
                let m = measure_module(t, c, &sampler, index, config);
                module_ns.push(t.exit());
                let m = m?;
                families[m.family] += 1;
                hc.extend(m.hc_ratio);
                ber.extend(m.ber_ratio);
                groups.extend(m.groups);
            }
            let used = span(t, "population.significance", |_| {
                significance::analyze(&groups)
            })
            .map_or(0, |r| r.groups);
            Ok::<_, StudyError>(BatchRecord {
                batch,
                start,
                modules: end - start,
                families: (families[0], families[1], families[2]),
                mean_hc_ratio: mean(&hc),
                mean_ber_ratio: mean(&ber),
                groups: used,
                cv_p90: None,
                cv_p95: None,
                cv_p99: None,
                ci_rel_width: None,
                sampled_fraction: 0.0,
                converged: false,
            })
        })?;
        out.push(record);
    }
    Ok(out)
}

/// Replayed batches equal the engine's: the same modules and families, the
/// same group count, and bit-identical mean ratios.
fn same_batches(replayed: &[BatchRecord], engine: &[BatchRecord]) -> bool {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    replayed.len() == engine.len()
        && replayed.iter().zip(engine).all(|(r, e)| {
            r.batch == e.batch
                && r.start == e.start
                && r.modules == e.modules
                && r.families == e.families
                && r.groups == e.groups
                && bits(r.mean_hc_ratio) == bits(e.mean_hc_ratio)
                && bits(r.mean_ber_ratio) == bits(e.mean_ber_ratio)
        })
}

pub fn traced(seed: u64, size: Size) -> Result<TracedOutput, String> {
    let inputs = inputs(seed, size);
    let t0 = Instant::now();
    let reference = engine(&inputs)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (engine_batches, _) = parse(&reference)?;

    let mut t = Tracer::new("population_fleet");
    let mut c = Counts::default();
    let mut module_ns = Vec::new();
    let replayed = replay(&mut t, &mut c, &inputs.config, &mut module_ns);
    let tree = t.finish();
    let replayed = replayed.map_err(|e| format!("replay failed: {e}"))?;

    let failed = u64::from(!same_batches(&replayed, &engine_batches))
        + u64::from(check(&inputs, &reference).is_err());
    let busy_s = module_ns.iter().sum::<u64>() as f64 * 1e-9;
    let mut layers = Layers::default();
    layers.set(
        "population.generate_s",
        tree.total_s("population.module_spec"),
    );
    layers.set(
        "population.significance_s",
        tree.total_s("population.significance"),
    );
    layers.set("population.modules", module_ns.len() as f64);
    layers.set("par.efficiency", busy_s / (2.0 * wall_s));
    layers.device(&tree, &c, wall_s);
    Ok(TracedOutput {
        layers,
        spans: tree,
        digest: crate::stats::fnv1a64(&reference),
        attempted: 2,
        failed,
    })
}
