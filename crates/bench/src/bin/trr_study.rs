//! Extension study: in-DRAM TRR interaction with attack shapes and refresh.
//!
//! The paper disables TRR by never refreshing (§4.1); this harness turns
//! refresh back on and shows (a) refresh+TRR suppressing a double-sided
//! attack and (b) why many-sided attacks exist: they spread activations so
//! samplers lose track — at the cost of per-aggressor intensity.

use hammervolt_core::attacks::{center_victim, mount, Attack};
use hammervolt_core::patterns::DataPattern;
use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_softmc::program::Program;
use hammervolt_softmc::{Instruction, SoftMc};
use hammervolt_stats::table::AsciiTable;

fn attack_with_refresh(id: ModuleId, attack: &Attack, budget: u64, refresh_bursts: u32) -> u64 {
    let module = DramModule::with_geometry(registry::spec(id), 17, Geometry::small_test()).unwrap();
    let mut mc = SoftMc::new(module);
    let victim = center_victim(&mc);
    if refresh_bursts == 0 {
        return mount(
            &mut mc,
            0,
            victim,
            attack,
            DataPattern::CheckerboardAa,
            budget,
        )
        .unwrap()
        .victim_flips;
    }
    // split the budget into bursts with REF between them
    let per_burst = budget / refresh_bursts as u64;
    let mut flips = 0;
    for i in 0..refresh_bursts {
        // mount() re-initializes the victim per burst, so each burst's flip
        // count is the damage done between consecutive refreshes; summing
        // them gives damage over the whole budget, comparable to the no-REF
        // column at equal total activations.
        flips += mount(
            &mut mc,
            0,
            victim,
            attack,
            DataPattern::CheckerboardAa,
            per_burst,
        )
        .unwrap()
        .victim_flips;
        if i + 1 < refresh_bursts {
            let mut p = Program::new();
            p.push(Instruction::Ref);
            mc.run(&p).unwrap();
        }
    }
    flips
}

fn main() {
    let _obs = hammervolt_bench::obs_init(env!("CARGO_BIN_NAME"));
    hammervolt_bench::outln!("TRR extension study: attack shapes × refresh (module B0)\n");
    let budget = 600_000;
    let mut t = AsciiTable::new(vec![
        "attack".into(),
        "flips, no REF".into(),
        "cumulative flips, REF every budget/8".into(),
    ]);
    for attack in [
        Attack::SingleSided,
        Attack::DoubleSided,
        Attack::ManySided { pairs: 2 },
        Attack::ManySided { pairs: 4 },
    ] {
        let without = attack_with_refresh(ModuleId::B0, &attack, budget, 0);
        let with = attack_with_refresh(ModuleId::B0, &attack, budget, 8);
        t.add_row(vec![attack.label(), without.to_string(), with.to_string()]);
    }
    hammervolt_bench::out!("{}", t.render());
    hammervolt_bench::outln!(
        "\nWith refresh disabled (the study's configuration) the double-sided \
         attack dominates; interleaving REF lets the victim restore and the \
         vendor TRR engine refresh sampled aggressors' neighbors, collapsing \
         the flip counts — which is exactly why the methodology never issues \
         REF during its 30 ms test windows (§4.1)."
    );
}
