//! Regenerates the §4.6 significance analysis: coefficient of variation of
//! repeated BER measurements at the P90/P95/P99 percentiles.

use hammervolt_bench::{compare_line, paper, Scale};
use hammervolt_core::alg1::{self, Alg1Config};
use hammervolt_core::significance;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("§4.6: statistical significance (coefficient of variation)");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let iterations = match scale {
        Scale::Paper => 10,
        _ => 6,
    };
    let alg1_cfg = Alg1Config {
        iterations,
        ..cfg.alg1
    };
    let mut groups: Vec<Vec<f64>> = Vec::new();
    for &id in &cfg.modules {
        let mut mc = cfg.bring_up(id).expect("bring-up");
        let sample = cfg.sample(mc.module().geometry());
        for &row in sample.rows() {
            match alg1::measure_row(&mut mc, cfg.bank, row, &alg1_cfg) {
                Ok(m) => groups.push(m.ber_samples),
                Err(_) => continue,
            }
        }
    }
    let report = significance::analyze(&groups).expect("significance");
    hammervolt_bench::outln!("measurement groups with nonzero mean: {}\n", report.groups);
    let (p90, p95, p99) = paper::CV_PERCENTILES;
    hammervolt_bench::outln!("{}", compare_line("CV at P90", p90, report.cv_p90));
    hammervolt_bench::outln!("{}", compare_line("CV at P95", p95, report.cv_p95));
    hammervolt_bench::outln!("{}", compare_line("CV at P99", p99, report.cv_p99));
    hammervolt_bench::outln!(
        "\nsmaller CV = higher significance; the paper reports 0.08 / 0.13 / 0.24"
    );
}
