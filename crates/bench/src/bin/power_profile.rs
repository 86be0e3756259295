//! Extension: `I_PP` rail current during hammering across `V_PP` levels.
//!
//! §3 argues V_PP scaling "can be implemented with a fixed hardware cost for
//! a given power budget"; this harness measures the supply current through
//! the interposer meter during a sustained double-sided attack, showing the
//! pump-power side benefit of running the wordline rail lower.

use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_softmc::SoftMc;
use hammervolt_stats::table::AsciiTable;

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("I_PP during a sustained double-sided attack (module B3)\n");
    let mut t = AsciiTable::new(vec![
        "V_PP (V)".into(),
        "I_PP hammering (mA)".into(),
        "I_PP idle (mA)".into(),
        "pump power (mW)".into(),
    ]);
    for vpp10 in [25u32, 21, 19, 17, 16] {
        let vpp = vpp10 as f64 / 10.0;
        let module =
            DramModule::with_geometry(registry::spec(ModuleId::B3), 5, Geometry::small_test())
                .expect("module");
        let mut mc = SoftMc::new(module);
        mc.set_vpp(vpp).expect("set vpp");
        mc.measure_vpp_current(); // arm the meter
        mc.hammer_double_sided(0, 100, 102, 300_000)
            .expect("hammer");
        let hammering = mc.measure_vpp_current();
        mc.wait_ns(10e6).expect("idle");
        let idle = mc.measure_vpp_current();
        t.add_row(vec![
            format!("{vpp:.1}"),
            format!("{:.2}", hammering * 1e3),
            format!("{:.2}", idle * 1e3),
            format!("{:.2}", hammering * vpp * 1e3),
        ]);
    }
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!(
        "\nLower V_PP draws proportionally less wordline-pump charge per \
         activation — the rail both resists hammering better (§5) and costs \
         less power, compounding the paper's case for V_PP scaling."
    );
}
