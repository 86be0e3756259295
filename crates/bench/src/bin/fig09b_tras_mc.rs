//! Regenerates Fig. 9b: probability density of `t_RASmin` across Monte-Carlo
//! trials, per `V_PP` level.

use hammervolt_bench::Scale;
use hammervolt_spice::dram_cell::{monte_carlo_activation, DramCellParams};
use hammervolt_spice::montecarlo::MonteCarlo;
use hammervolt_stats::plot::{render, PlotConfig};
use hammervolt_stats::{KernelDensity, Series};

/// DDR4's nominal t_RAS for comparison (ns).
const NOMINAL_T_RAS_NS: f64 = 32.0;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("Fig. 9b: t_RASmin distribution across Monte-Carlo trials (SPICE)\n");
    let trials = match Scale::from_env() {
        Scale::Paper => 10_000,
        Scale::Smoke => 60,
        Scale::Quick => 400,
    };
    hammervolt_bench::outln!("trials per V_PP level: {trials} (paper: 10 000)\n");
    let mc = MonteCarlo::quick(trials);
    let params = DramCellParams::default();
    let mut series = Vec::new();
    for vpp in [2.5, 2.1, 2.0, 1.9, 1.8, 1.7] {
        let stats = monte_carlo_activation(&params, vpp, &mc).expect("mc run");
        let t_ns: Vec<f64> = stats.t_ras.iter().map(|t| t * 1e9).collect();
        if t_ns.is_empty() {
            hammervolt_bench::outln!("V_PP = {vpp:.1} V: no reliable restoration in any trial");
            continue;
        }
        let mean = t_ns.iter().sum::<f64>() / t_ns.len() as f64;
        let worst = stats.worst_t_ras().unwrap() * 1e9;
        hammervolt_bench::outln!(
            "V_PP = {vpp:.1} V: mean t_RASmin {mean:.1} ns, worst {worst:.1} ns{}",
            if worst > NOMINAL_T_RAS_NS {
                " — exceeds nominal t_RAS"
            } else {
                ""
            }
        );
        let kde = KernelDensity::fit(&t_ns).expect("kde");
        // Grid bounds follow the samples (padded by 3 bandwidths) so tails
        // beyond the paper's nominal 18–40 ns axis are plotted, not clipped.
        let (lo, hi) = hammervolt_bench::kde_window("fig09b", &t_ns, kde.bandwidth(), (18.0, 40.0));
        let grid = kde.grid(lo, hi, 80).expect("grid");
        let mut s = Series::new(format!("{vpp:.1} V"));
        for (x, d) in grid {
            s.push(x, d);
        }
        series.push(s);
    }
    hammervolt_bench::outln!(
        "\n(paper Obsv. 11: the t_RAS distribution shifts to larger values and \
         widens as V_PP falls, exceeding the nominal value below 2.0 V; \
         nominal t_RAS = {NOMINAL_T_RAS_NS} ns here)"
    );
    let plot = render(
        &series,
        &PlotConfig {
            title: "probability density of t_RASmin".into(),
            x_label: "t_RASmin (ns)".into(),
            y_label: "density".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
}
