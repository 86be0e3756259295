//! Criterion benches for the data-oriented device-model hot path.
//!
//! `hammer_loop` exercises the per-burst overhead of the hammer inner loop:
//! many short double-sided bursts against freshly initialized rows, so the
//! cost is dominated by row-state and row-parameter lookups plus the
//! per-burst materialization bookkeeping rather than the per-cell flip
//! loop. `sweep_unit` times one serial single-module Alg. 1 sweep through
//! the execution engine, covering work-unit bring-up amortization.
//!
//! `blueprint_instantiate` and `find_vppmin` price two bring-up costs: the
//! pristine-module clone every work unit pays, and the live descending
//! V_PPmin ladder a module's blueprint runs once and memoizes.
//!
//! `BENCH_hotpath.json` at the repository root records the median numbers
//! of these benches before and after the arena rewrite; regenerate with
//! `cargo bench -p hammervolt-bench --bench hotpath`.

use criterion::{criterion_group, criterion_main, Criterion};
use hammervolt_core::exec::{self, ExecConfig};
use hammervolt_core::job::JobControl;
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_softmc::SoftMc;
use std::hint::black_box;

fn module() -> DramModule {
    DramModule::with_geometry(registry::spec(ModuleId::B0), 3, Geometry::small_test()).unwrap()
}

/// Many short double-sided bursts: 64 `hammer` calls of 500 activations
/// each per iteration, with the three rows re-initialized first so the
/// accumulated disturbance (and therefore the per-iteration work) stays
/// constant across samples.
fn bench_hammer_loop(c: &mut Criterion) {
    let mut m = module();
    let columns = m.geometry().columns_per_row as usize;
    let data = vec![0xAAAA_AAAA_AAAA_AAAAu64; columns];
    let inv = vec![!0xAAAA_AAAA_AAAA_AAAAu64; columns];
    let victim = 100u32;
    let (below, above) = m.mapping().physical_neighbors(victim);
    let (below, above) = (below.unwrap(), above.unwrap());
    c.bench_function("hammer_loop", |b| {
        b.iter(|| {
            m.write_row(0, victim, &data).unwrap();
            m.write_row(0, below, &inv).unwrap();
            m.write_row(0, above, &inv).unwrap();
            for _ in 0..32 {
                m.hammer(0, black_box(below), 500, 48.5).unwrap();
                m.hammer(0, black_box(above), 500, 48.5).unwrap();
            }
            black_box(m.read_row(0, victim, 13.5).unwrap())
        })
    });
}

/// One serial Alg. 1 work-unit sweep through the execution engine: four
/// two-row chunks, each paying full bring-up (construction, calibration,
/// `V_PPmin` search) before its ladder.
fn bench_sweep_unit(c: &mut Criterion) {
    let cfg = StudyConfig {
        rows_per_chunk: 2,
        ..StudyConfig::quick_subset(&[ModuleId::B3])
    };
    c.bench_function("sweep_unit", |b| {
        b.iter(|| {
            black_box(exec::rowhammer_sweeps(
                &cfg,
                &ExecConfig::serial(),
                &JobControl::new(),
            ))
        })
    });
}

/// The pristine-module clone every unit pays: one calibrated blueprint,
/// `instantiate()` per iteration.
fn bench_blueprint_instantiate(c: &mut Criterion) {
    let cfg = StudyConfig::quick_subset(&[ModuleId::B3]);
    let bp = cfg.blueprint(ModuleId::B3).unwrap();
    c.bench_function("blueprint_instantiate", |b| {
        b.iter(|| black_box(bp.instantiate()))
    });
}

/// A live descending V_PPmin ladder, the search a blueprint runs once per
/// module and memoizes so units skip it.
fn bench_find_vppmin(c: &mut Criterion) {
    let cfg = StudyConfig::quick_subset(&[ModuleId::B3]);
    let bp = cfg.blueprint(ModuleId::B3).unwrap();
    let mut mc = SoftMc::new(bp.instantiate());
    c.bench_function("find_vppmin", |b| {
        b.iter(|| black_box(mc.find_vppmin().unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hammer_loop, bench_sweep_unit, bench_blueprint_instantiate,
        bench_find_vppmin
}
criterion_main!(benches);
