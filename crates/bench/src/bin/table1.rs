//! Regenerates Table 1: summary of the tested DDR4 DRAM chips per vendor.

use hammervolt_bench::figures::table1_rows;
use hammervolt_dram::vendor::Manufacturer;
use hammervolt_stats::table::AsciiTable;
use std::collections::BTreeMap;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("Table 1: Summary of the tested DDR4 DRAM chips\n");
    let rows = table1_rows();
    let mut t = AsciiTable::new(vec![
        "Mfr.".into(),
        "#DIMMs".into(),
        "#Chips".into(),
        "Density".into(),
        "Die Rev.".into(),
        "Org.".into(),
        "Date".into(),
    ]);
    let mut totals: BTreeMap<char, (u32, u32)> = BTreeMap::new();
    for row in &rows {
        let name = Manufacturer::ALL
            .iter()
            .find(|m| m.letter() == row.mfr)
            .map(|m| format!("Mfr. {} ({})", m.letter(), m.name()))
            .unwrap_or_default();
        t.add_row(vec![
            name,
            row.dimms.to_string(),
            row.chips.to_string(),
            row.density.clone(),
            row.die_revision.clone(),
            row.org.clone(),
            row.date.clone(),
        ]);
        let e = totals.entry(row.mfr).or_insert((0, 0));
        e.0 += row.dimms;
        e.1 += row.chips;
    }
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!();
    let mut grand = (0, 0);
    for (mfr, (dimms, chips)) in &totals {
        hammervolt_bench::outln!("Mfr. {mfr}: {dimms} DIMMs, {chips} chips");
        grand.0 += dimms;
        grand.1 += chips;
    }
    hammervolt_bench::outln!(
        "total: {} DIMMs, {} chips (paper: 30 DIMMs, 272 chips)",
        grand.0,
        grand.1
    );
    hammervolt_bench::outln!("{}", serde_json::to_string(&rows).expect("serialize"));
}
