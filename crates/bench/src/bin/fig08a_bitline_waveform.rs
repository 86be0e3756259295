//! Regenerates Fig. 8a: bitline voltage waveform during row activation for
//! several `V_PP` levels (SPICE transient).

use hammervolt_spice::dram_cell::{ActivationSim, DramCellParams};
use hammervolt_stats::plot::{render, PlotConfig};
use hammervolt_stats::Series;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("Fig. 8a: Bitline voltage waveform during row activation (SPICE)\n");
    let params = DramCellParams::default();
    let sim = ActivationSim::new(params);
    let vdd = params.vdd;
    let threshold = params.read_threshold_fraction * vdd;
    let mut series = Vec::new();
    for vpp in [2.5, 2.1, 1.9, 1.7] {
        let res = sim.run(vpp).expect("activation transient");
        let mut s = Series::new(format!("{vpp:.1} V"));
        // thin to ~120 points for the ASCII plot
        let stride = (res.times.len() / 120).max(1);
        for (i, (&t, &v)) in res.times.iter().zip(&res.v_bitline).enumerate() {
            if i % stride == 0 && t <= 25e-9 {
                s.push(t * 1e9, v);
            }
        }
        hammervolt_bench::outln!(
            "V_PP = {vpp:.1} V: t_RCDmin = {} ns, restored cell = {:.3} V",
            res.t_rcd_min
                .map(|t| format!("{:.1}", t * 1e9))
                .unwrap_or_else(|| "∞".into()),
            res.v_cell_final,
        );
        series.push(s);
    }
    hammervolt_bench::outln!(
        "\nV_DD = {vdd:.1} V, read threshold V_TH = {threshold:.2} V \
         (paper: charge sharing completes by ~5 ns; lower V_PP crosses V_TH later)"
    );
    let plot = render(
        &series,
        &PlotConfig {
            title: "bitline voltage during activation".into(),
            x_label: "time (ns)".into(),
            y_label: "V_bitline (V)".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
}
