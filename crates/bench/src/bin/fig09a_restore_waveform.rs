//! Regenerates Fig. 9a: cell-capacitor voltage waveform following a row
//! activation, per `V_PP` level — the charge-restoration saturation of
//! Obsv. 10.

use hammervolt_spice::dram_cell::{ActivationSim, DramCellParams};
use hammervolt_stats::plot::{render, PlotConfig};
use hammervolt_stats::Series;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("Fig. 9a: Cell capacitor voltage during charge restoration (SPICE)\n");
    let params = DramCellParams::default();
    let sim = ActivationSim::new(params);
    let mut series = Vec::new();
    for vpp in [2.5, 2.0, 1.9, 1.8, 1.7] {
        let res = sim.run(vpp).expect("transient");
        let mut s = Series::new(format!("{vpp:.1} V"));
        let stride = (res.times.len() / 120).max(1);
        for (i, (&t, &v)) in res.times.iter().zip(&res.v_cell).enumerate() {
            if i % stride == 0 {
                s.push(t * 1e9, v);
            }
        }
        let sat_frac = res.v_cell_final / params.vdd;
        hammervolt_bench::outln!(
            "V_PP = {vpp:.1} V: restored cell voltage {:.3} V ({:.1} % of V_DD), \
             t_RASmin = {} ns",
            res.v_cell_final,
            sat_frac * 100.0,
            res.t_ras_min
                .map(|t| format!("{:.1}", t * 1e9))
                .unwrap_or_else(|| "∞".into()),
        );
        series.push(s);
    }
    hammervolt_bench::outln!(
        "\n(paper Obsv. 10: saturates at V_DD for V_PP ≥ 2.0 V; lower by \
         4.1 % / 11.0 % / 18.1 % at 1.9 / 1.8 / 1.7 V)"
    );
    let plot = render(
        &series,
        &PlotConfig {
            title: "cell capacitor voltage after activation".into(),
            x_label: "time (ns)".into(),
            y_label: "V_cell (V)".into(),
            ..PlotConfig::default()
        },
    );
    hammervolt_bench::outln!("\n{plot}");
}
