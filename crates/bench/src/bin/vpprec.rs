//! Regenerates Table 3's `V_PPrec` column: the recommended operating
//! wordline voltage per module under the §8 trade-off policies.

use hammervolt_bench::Scale;
use hammervolt_core::recommend::{recommend, Policy};
use hammervolt_dram::registry::spec;
use hammervolt_stats::table::AsciiTable;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("§8 / Table 3: recommended wordline voltage per module");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    let rows = match scale {
        Scale::Paper => 16,
        Scale::Quick => 6,
        Scale::Smoke => 4,
    };
    let mut t = AsciiTable::new(vec![
        "DIMM".into(),
        "VPPmin".into(),
        "rec (security-first)".into(),
        "rec (no-regression)".into(),
        "paper VPPrec".into(),
    ]);
    for &id in &cfg.modules {
        let s = spec(id);
        let mut mc = cfg.bring_up(id).expect("bring-up");
        let vpp_min = mc.find_vppmin().expect("vppmin");
        let sec = recommend(&mut mc, cfg.bank, vpp_min, rows, Policy::SecurityFirst)
            .expect("security-first");
        let nor = recommend(&mut mc, cfg.bank, vpp_min, rows, Policy::NoRegression)
            .expect("no-regression");
        t.add_row(vec![
            id.label(),
            format!("{vpp_min:.1}"),
            format!("{:.1}", sec.vpp_rec),
            format!("{:.1}", nor.vpp_rec),
            format!("{:.1}", s.vpp_rec),
        ]);
    }
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!(
        "\nThe paper's V_PPrec balances HC_first gain against BER; the two \
         policies here bracket it (security-first ≈ as low as usable, \
         no-regression ≈ as low as strictly free)."
    );
}
