//! Regenerates Table 3: per-module RowHammer characteristics at nominal
//! `V_PP` and at `V_PPmin`, measured through the full Alg. 1 methodology.
//!
//! Scale via `HAMMERVOLT_SCALE` (smoke / default quick / paper).

use hammervolt_bench::figures::table3_rows;
use hammervolt_bench::Scale;
use hammervolt_core::exec::rowhammer_sweeps;
use hammervolt_core::job::JobControl;
use hammervolt_dram::registry::spec;
use hammervolt_stats::table::{fmt_ber, fmt_kilo, AsciiTable};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Table 3: Tested DRAM modules at V_PP = 2.5 V and V_PP = V_PPmin");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let mut t = AsciiTable::new(vec![
        "DIMM".into(),
        "Model".into(),
        "Density".into(),
        "MT/s".into(),
        "Org".into(),
        "HCfirst@2.5V".into(),
        "BER@2.5V".into(),
        "VPPmin".into(),
        "HCfirst@min".into(),
        "BER@min".into(),
        "paper(HCf/BER@2.5)".into(),
    ]);
    let sweeps = rowhammer_sweeps(&cfg, &scale.exec(), &JobControl::new()).expect("sweep");
    let rows = table3_rows(&sweeps);
    // table3_rows preserves sweep order, so rows and sweeps zip cleanly.
    for (row, sweep) in rows.iter().zip(&sweeps) {
        let s = spec(sweep.module);
        t.add_row(vec![
            row.module.clone(),
            s.dimm_model.to_string(),
            s.density.to_string(),
            s.frequency_mts.to_string(),
            s.org.to_string(),
            row.hc_first_nominal
                .map(|h| fmt_kilo(h as f64))
                .unwrap_or_else(|| ">600K".into()),
            fmt_ber(row.ber_nominal),
            format!("{:.1}", row.vpp_min),
            row.hc_first_vppmin
                .map(|h| fmt_kilo(h as f64))
                .unwrap_or_else(|| ">600K".into()),
            fmt_ber(row.ber_vppmin),
            format!(
                "{:.1}K/{}",
                s.hc_first_nominal / 1e3,
                fmt_ber(s.ber_nominal)
            ),
        ]);
    }
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!(
        "\nHC_first is the minimum across tested rows; BER is the mean row BER \
         at HC = 300K. The right-most column shows the paper's Table 3 record \
         at nominal V_PP for comparison."
    );
    hammervolt_bench::outln!("{}", serde_json::to_string(&rows).expect("serialize"));
}
