//! Regenerates Table 2: key parameters of the SPICE simulations.

use hammervolt_spice::dram_cell::DramCellParams;
use hammervolt_stats::table::AsciiTable;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("Table 2: Key parameters used in SPICE simulations\n");
    let p = DramCellParams::default();
    let mut t = AsciiTable::new(vec!["Component".into(), "Parameters".into()]);
    t.add_row(vec![
        "DRAM Cell".into(),
        format!("C: {:.1} fF, R: {:.0} Ω", p.c_cell * 1e15, p.r_cell),
    ]);
    t.add_row(vec![
        "Bitline".into(),
        format!("C: {:.1} fF, R: {:.0} Ω", p.c_bitline * 1e15, p.r_bitline),
    ]);
    t.add_row(vec![
        "Cell Access NMOS".into(),
        format!(
            "W: {:.0} nm, L: {:.0} nm",
            p.access.width * 1e9,
            p.access.length * 1e9
        ),
    ]);
    t.add_row(vec![
        "Sense Amp. NMOS".into(),
        format!(
            "W: {:.1} µm, L: {:.1} µm",
            p.sa_nmos_t.width * 1e6,
            p.sa_nmos_t.length * 1e6
        ),
    ]);
    t.add_row(vec![
        "Sense Amp. PMOS".into(),
        format!(
            "W: {:.1} µm, L: {:.1} µm",
            p.sa_pmos_t.width * 1e6,
            p.sa_pmos_t.length * 1e6
        ),
    ]);
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!(
        "\nSimulation protocol: V_PP 1.5 V .. 2.5 V in 0.1 V steps, \
         Monte-Carlo ±5 % component variation, 10 K runs (§4.5)."
    );
}
