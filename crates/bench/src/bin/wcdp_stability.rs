//! Regenerates footnote 9: WCDP stability under reduced `V_PP`.
//!
//! "To investigate if WCDP changes with reduced V_PP, we repeat WCDP
//! determination experiments for different V_PP values for 16 DRAM chips. We
//! observe that WCDP changes for only ~2.4 % of tested rows, causing less
//! than 9 % deviation in HC_first for 90 % of the affected rows."

use hammervolt_bench::Scale;
use hammervolt_core::alg1::{self, Alg1Config};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Footnote 9: does the worst-case data pattern change with V_PP?");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let alg1_cfg = Alg1Config::fast();
    let mut tested = 0usize;
    let mut changed = 0usize;
    let mut hc_deviation = Vec::new();
    for &id in &cfg.modules {
        let mut mc = cfg.bring_up(id).expect("bring-up");
        let vppmin = mc.find_vppmin().expect("vppmin");
        let sample = cfg.sample(mc.module().geometry());
        for &row in sample.rows() {
            mc.set_vpp(2.5).expect("nominal");
            let Ok(nominal) = alg1::measure_row(&mut mc, cfg.bank, row, &alg1_cfg) else {
                continue;
            };
            mc.set_vpp(vppmin).expect("reduced");
            let Ok(wcdp_low) = alg1::select_wcdp(&mut mc, cfg.bank, row, &alg1_cfg) else {
                continue;
            };
            tested += 1;
            if wcdp_low != nominal.wcdp {
                changed += 1;
                // HC_first deviation between the two pattern choices at V_PPmin
                let with_nominal_wcdp =
                    alg1::search_hc_first(&mut mc, cfg.bank, row, nominal.wcdp, &alg1_cfg)
                        .ok()
                        .flatten();
                let with_new_wcdp =
                    alg1::search_hc_first(&mut mc, cfg.bank, row, wcdp_low, &alg1_cfg)
                        .ok()
                        .flatten();
                if let (Some(a), Some(b)) = (with_nominal_wcdp, with_new_wcdp) {
                    hc_deviation.push((a as f64 / b as f64 - 1.0).abs());
                }
            }
        }
    }
    let frac = changed as f64 / tested.max(1) as f64;
    hammervolt_bench::outln!(
        "WCDP changed for {changed} of {tested} rows ({:.1} %) — paper: ~2.4 %",
        frac * 100.0
    );
    if !hc_deviation.is_empty() {
        hc_deviation.sort_by(hammervolt_stats::order::f64_total);
        let p90 = hc_deviation[(hc_deviation.len() * 9 / 10).min(hc_deviation.len() - 1)];
        hammervolt_bench::outln!(
            "HC_first deviation for affected rows: P90 = {:.1} % — paper: < 9 %",
            p90 * 100.0
        );
    } else {
        hammervolt_bench::outln!("no affected rows had measurable HC_first under both patterns");
    }
}
