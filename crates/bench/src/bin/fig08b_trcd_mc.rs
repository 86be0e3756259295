//! Regenerates Fig. 8b: probability density of `t_RCDmin` across Monte-Carlo
//! trials, per `V_PP` level, with worst-case lines.

use hammervolt_bench::Scale;
use hammervolt_spice::dram_cell::{monte_carlo_activation, DramCellParams};
use hammervolt_spice::montecarlo::MonteCarlo;
use hammervolt_stats::plot::{render, PlotConfig};
use hammervolt_stats::{KernelDensity, Series};

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("Fig. 8b: t_RCDmin distribution across Monte-Carlo trials (SPICE)\n");
    let trials = match Scale::from_env() {
        Scale::Paper => 10_000,
        Scale::Smoke => 60,
        Scale::Quick => 400,
    };
    hammervolt_bench::outln!("trials per V_PP level: {trials} (paper: 10 000)\n");
    let mc = MonteCarlo::quick(trials);
    let params = DramCellParams::default();
    let mut series = Vec::new();
    for vpp in [2.5, 1.9, 1.8, 1.7, 1.6] {
        let stats = monte_carlo_activation(&params, vpp, &mc).expect("mc run");
        let t_ns: Vec<f64> = stats.t_rcd.iter().map(|t| t * 1e9).collect();
        if t_ns.is_empty() {
            hammervolt_bench::outln!("V_PP = {vpp:.1} V: no reliable activation in any trial");
            continue;
        }
        let mean = t_ns.iter().sum::<f64>() / t_ns.len() as f64;
        let worst = stats.worst_t_rcd().unwrap() * 1e9;
        hammervolt_bench::outln!(
            "V_PP = {vpp:.1} V: mean t_RCDmin {mean:.2} ns, worst {worst:.2} ns, \
             failures {}/{} — {}",
            stats.failures,
            stats.trials,
            if stats.reliable() {
                "reliable"
            } else {
                "NOT reliable"
            },
        );
        let kde = KernelDensity::fit(&t_ns).expect("kde");
        // Grid bounds follow the samples (padded by 3 bandwidths) so tails
        // beyond the paper's nominal 10–22 ns axis are plotted, not clipped.
        let (lo, hi) = hammervolt_bench::kde_window("fig08b", &t_ns, kde.bandwidth(), (10.0, 22.0));
        let grid = kde.grid(lo, hi, 80).expect("grid");
        let mut s = Series::new(format!("{vpp:.1} V"));
        for (x, d) in grid {
            s.push(x, d);
        }
        series.push(s);
    }
    hammervolt_bench::outln!(
        "\n(paper: mean 11.6 → 13.6 ns from 2.5 → 1.7 V; worst-case 12.9 → \
         13.3 / 14.2 / 16.9 ns at 1.9 / 1.8 / 1.7 V; no reliable operation ≤ 1.6 V)"
    );
    let plot = render(
        &series,
        &PlotConfig {
            title: "probability density of t_RCDmin".into(),
            x_label: "t_RCDmin (ns)".into(),
            y_label: "density".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
}
