//! Regenerates Fig. 11: distribution of rows by the number of erroneous
//! 64-bit words at the 64 ms and 128 ms refresh windows, per manufacturer,
//! operated at `V_PPmin` (80 °C) — plus the Obsv. 14 SECDED verdict.

use hammervolt_bench::Scale;
use hammervolt_core::mitigation::ecc_analysis;
use hammervolt_core::patterns::DataPattern;
use hammervolt_dram::vendor::Manufacturer;
use hammervolt_stats::histogram::integer_counts;
use hammervolt_stats::plot::render_bars;
use std::collections::BTreeMap;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    let scale = Scale::from_env();
    hammervolt_bench::outln!("Fig. 11: Rows by erroneous 64-bit word count at 64/128 ms, V_PPmin");
    hammervolt_bench::outln!("{}\n", scale.banner());
    let cfg = scale.config();
    for window_s in [0.064f64, 0.128] {
        hammervolt_bench::outln!("== t_REFW = {:.0} ms ==", window_s * 1e3);
        // mfr → (erroneous word counts, rows tested, secded ok)
        let mut agg: BTreeMap<char, (Vec<u64>, usize, bool)> = BTreeMap::new();
        for &id in &cfg.modules {
            let mut mc = cfg.bring_up(id).expect("bring-up");
            let vppmin = mc.find_vppmin().expect("vppmin");
            mc.set_vpp(vppmin).expect("set vpp");
            mc.set_temperature(80.0).expect("thermal");
            let sample = cfg.sample(mc.module().geometry());
            let analysis = ecc_analysis(
                &mut mc,
                cfg.bank,
                sample.rows(),
                window_s,
                DataPattern::CheckerboardAa,
            )
            .expect("analysis");
            let e = agg
                .entry(id.manufacturer().letter())
                .or_insert((Vec::new(), 0, true));
            e.0.extend(&analysis.erroneous_word_counts);
            e.1 += analysis.rows_tested;
            e.2 &= analysis.secded_correctable;
        }
        for mfr in Manufacturer::ALL {
            let Some((counts, rows, secded)) = agg.get(&mfr.letter()) else {
                continue;
            };
            let frac = counts.len() as f64 / (*rows).max(1) as f64;
            hammervolt_bench::outln!(
                "{mfr}: {} of {} rows erroneous ({:.2} %), SECDED correctable: {}",
                counts.len(),
                rows,
                frac * 100.0,
                secded,
            );
            if counts.is_empty() {
                continue;
            }
            let bars: Vec<(String, f64)> = integer_counts(counts)
                .into_iter()
                .map(|(words, n)| {
                    (
                        format!("{words} erroneous word(s)"),
                        n as f64 / *rows as f64 * 100.0,
                    )
                })
                .collect();
            hammervolt_bench::out!(
                "{}",
                render_bars(&bars, 40, &format!("  % of rows, Mfr. {}", mfr.letter()))
            );
        }
        hammervolt_bench::outln!();
    }
    hammervolt_bench::outln!(
        "(paper Fig. 11a at 64 ms: Mfr. A none; Mfr. B 15.5 % of rows with four \
         single-bit words + 0.01 % with 116; Mfr. C 0.2 % with one. Fig. 11b at \
         128 ms: 0.1 % / 4.7 % / 0.2 % of rows with 1 / 2 / 1 words. \
         Obsv. 14: every erroneous word carries exactly one flip.)"
    );
}
