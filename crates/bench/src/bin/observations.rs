//! Regenerates the paper's headline findings (Takeaway 1, Obsvs. 1–6):
//! aggregate BER/`HC_first` statistics at `V_PPmin` across all modules.

use hammervolt_bench::figures::observation_findings;
use hammervolt_bench::{compare_line, paper, Scale};
use hammervolt_core::exec::rowhammer_sweeps;
use hammervolt_core::job::JobControl;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Takeaway 1: effect of V_PP on RowHammer — aggregate findings");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let sweeps = rowhammer_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    for sweep in &sweeps {
        let id = sweep.module;
        let (ber, hc) = sweep.row_ratios_at_vppmin();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        hammervolt_bench::outln!(
            "{}: V_PPmin {:.1} V | mean normalized BER {:.3} | mean normalized HC_first {:.3}",
            id.label(),
            sweep.vpp_min,
            mean(&ber),
            mean(&hc),
        );
    }
    let f = observation_findings(&sweeps);
    hammervolt_bench::outln!("\n--- paper vs measured (fractional changes at V_PPmin) ---");
    hammervolt_bench::outln!(
        "{}",
        compare_line("mean BER change", paper::MEAN_BER_CHANGE, f.mean_ber_change)
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "max module BER reduction",
            paper::MAX_BER_REDUCTION,
            f.max_ber_reduction
        )
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "mean HC_first change",
            paper::MEAN_HC_CHANGE,
            f.mean_hc_change
        )
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "max row HC_first increase",
            paper::MAX_HC_INCREASE,
            f.max_hc_increase
        )
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "fraction rows BER decreased",
            paper::FRAC_BER_DECREASED,
            f.frac_rows_ber_decreased
        )
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "fraction rows BER increased",
            paper::FRAC_BER_INCREASED,
            f.frac_rows_ber_increased
        )
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "fraction rows HC_first increased",
            paper::FRAC_HC_INCREASED,
            f.frac_rows_hc_increased
        )
    );
    hammervolt_bench::outln!(
        "{}",
        compare_line(
            "fraction rows HC_first decreased",
            paper::FRAC_HC_DECREASED,
            f.frac_rows_hc_decreased
        )
    );
    hammervolt_bench::outln!("\n{}", serde_json::to_string_pretty(&f).expect("serialize"));
}
