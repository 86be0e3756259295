//! Property-based tests for the test-infrastructure model.

use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::module::DramModule;
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_dram::timing::TimingParams;
use hammervolt_softmc::power::{Interposer, PowerSupply};
use hammervolt_softmc::program::{Op, Program};
use hammervolt_softmc::{Engine, EngineScratch, Instruction, SoftMc};
use proptest::prelude::*;

fn session() -> SoftMc {
    let module =
        DramModule::with_geometry(registry::spec(ModuleId::A3), 3, Geometry::small_test()).unwrap();
    SoftMc::new(module)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn supply_quantizes_to_millivolts(v in 0.0..6.0f64) {
        let mut s = PowerSupply::new();
        s.set_volts(v).unwrap();
        let q = s.setpoint();
        prop_assert!((q - v).abs() <= 0.0005 + 1e-12);
        prop_assert!((q * 1000.0 - (q * 1000.0).round()).abs() < 1e-9);
    }

    #[test]
    fn shunt_always_blocks_live_supply(v in 0.001..6.0f64) {
        let interposer = Interposer::new();
        let mut supply = PowerSupply::new();
        supply.set_volts(v).unwrap();
        supply.output_on();
        prop_assert!(interposer.rail_volts(2.5, &supply).is_err());
    }

    #[test]
    fn command_counts_match_execution(
        rows in prop::collection::vec(2u32..400, 1..6),
        hc in 0u64..5_000,
        outer in 0u64..4,
        inner in 0u64..4,
    ) {
        // Running a program issues exactly the commands the static counter
        // predicts: no hidden commands, none skipped, and coalesced hammer
        // loops counted per logical command.
        let mut module =
            DramModule::with_geometry(registry::spec(ModuleId::A3), 3, Geometry::small_test())
                .unwrap();
        let columns = module.geometry().columns_per_row;
        let mut programs = Vec::new();
        for &row in &rows {
            programs.push(Program::init_row(0, row, columns, 0xFF));
            programs.push(Program::read_row(0, row, columns));
        }
        programs.push(Program::hammer_double_sided(0, rows[0], rows[0] + 2, hc));
        let mut nested = Program::new();
        nested.push_loop(
            outer,
            vec![
                Op::Loop {
                    count: inner,
                    body: vec![
                        Op::Inst(Instruction::Act { bank: 0, row: rows[0] }),
                        Op::Inst(Instruction::Pre { bank: 0 }),
                    ],
                },
                Op::Inst(Instruction::Wait { ns: 1.0 }),
            ],
        );
        programs.push(nested);
        let mut scratch = EngineScratch::new();
        let mut engine = Engine::new(&mut module, TimingParams::default(), &mut scratch);
        for p in &programs {
            engine.run(p).unwrap();
            let m = engine.command_mix();
            prop_assert_eq!(
                m.act + m.pre + m.rd + m.wr + m.refresh + m.wait,
                p.command_count()
            );
        }
    }

    #[test]
    fn write_read_round_trip_via_programs(row in 2u32..400, word in any::<u64>()) {
        let mut mc = session();
        mc.init_row(0, row, word).unwrap();
        let data = mc.read_row(0, row).unwrap();
        prop_assert!(data.iter().all(|&w| w == word));
    }

    #[test]
    fn hammer_time_scales_linearly(hc in 1_000u64..100_000) {
        let mut mc = session();
        let start = mc.module().now_ns();
        mc.hammer_double_sided(0, 10, 12, hc).unwrap();
        let elapsed = mc.module().now_ns() - start;
        let period = TimingParams::default().act_pre_period_ns();
        prop_assert!((elapsed - 2.0 * hc as f64 * period).abs() < 1e-3);
    }

    #[test]
    fn nested_loops_execute(count_outer in 1u64..4, count_inner in 1u64..4, row in 2u32..200) {
        let mut mc = session();
        let mut p = Program::new();
        p.push_loop(
            count_outer,
            vec![Op::Loop {
                count: count_inner,
                body: vec![
                    Op::Inst(Instruction::Act { bank: 0, row }),
                    Op::Inst(Instruction::Pre { bank: 0 }),
                    Op::Inst(Instruction::Wait { ns: 1.0 }),
                ],
            }],
        );
        mc.run(&p).unwrap();
        // the bank is left precharged: another ACT must succeed
        let mut p2 = Program::new();
        p2.push(Instruction::Act { bank: 0, row });
        p2.push(Instruction::Pre { bank: 0 });
        prop_assert!(mc.run(&p2).is_ok());
    }
}
