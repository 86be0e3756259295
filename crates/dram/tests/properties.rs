//! Property-based tests for the device model's invariants.

use hammervolt_dram::geometry::Geometry;
use hammervolt_dram::hash;
use hammervolt_dram::mapping::{AddressMapping, Scheme};
use hammervolt_dram::module::DramModule;
use hammervolt_dram::ondie_ecc::OnDieEcc;
use hammervolt_dram::physics::{self, dq_relative, hc_multiplier, qcrit_relative, solve_coeffs};
use hammervolt_dram::registry::{self, ModuleId};
use hammervolt_dram::timing::{ColumnSlots, COMMAND_SLOT_NS};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Direct),
        Just(Scheme::PairMirror),
        Just(Scheme::BlockShuffle),
    ]
}

fn any_module() -> impl Strategy<Value = ModuleId> {
    prop::sample::select(ModuleId::ALL.to_vec())
}

/// The memory controller's column-command issue, one command at a time:
/// the engine interpreter's `issue_slot` restated for `columns` column
/// commands after an ACT at `act_at`. Returns each command's slot.
fn literal_column_slots(act_at: f64, rcd_target: f64, columns: u32) -> Vec<f64> {
    let (mut now, mut last) = (act_at, act_at);
    (0..columns)
        .map(|_| {
            let t = (last + COMMAND_SLOT_NS).max(rcd_target);
            if t > now {
                now += (t - now).max(0.0);
            }
            last = now;
            now
        })
        .collect()
}

/// `ColumnSlots` against the literal recurrence, bit for bit, for every
/// column of a 1,024-column row: walked in order as a read burst does, and
/// asked for the last column alone as a write burst does.
fn assert_column_slots_match(act_at: f64, t_rcd_ns: f64) -> Result<(), TestCaseError> {
    let rcd_target = act_at + t_rcd_ns;
    let literal = literal_column_slots(act_at, rcd_target, 1024);
    let mut slots = ColumnSlots::new(act_at, rcd_target);
    for (column, want) in (0u32..).zip(&literal) {
        let got = slots.slot(column);
        prop_assert!(
            got.to_bits() == want.to_bits(),
            "act {act_at:?}, t_RCD {t_rcd_ns:?}: column {column} at {got:?}, recurrence {want:?}"
        );
    }
    let last = ColumnSlots::new(act_at, rcd_target).slot(1023);
    prop_assert!(
        last.to_bits() == literal[1023].to_bits(),
        "act {act_at:?}, t_RCD {t_rcd_ns:?}: last column alone at {last:?}, recurrence {:?}",
        literal[1023]
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mapping_round_trips(scheme in any_scheme(), repairs in 0u32..16, seed in any::<u64>()) {
        let rows = 512;
        let m = AddressMapping::with_repairs(scheme, rows, repairs, seed);
        for logical in 0..rows {
            let phys = m.logical_to_physical(logical);
            prop_assert!(phys < rows);
            prop_assert_eq!(m.physical_to_logical(phys), logical);
        }
    }

    #[test]
    fn neighbors_are_mutual(scheme in any_scheme(), seed in any::<u64>(), row in 1u32..510) {
        let m = AddressMapping::with_repairs(scheme, 512, 8, seed);
        let (below, above) = m.physical_neighbors(row);
        for n in [below, above].into_iter().flatten() {
            let (nb, na) = m.physical_neighbors(n);
            prop_assert!(
                nb == Some(row) || na == Some(row),
                "adjacency must be symmetric: {} vs {}", row, n
            );
        }
    }

    #[test]
    fn solve_coeffs_realizes_any_target(
        target in 0.85..1.9f64,
        vpp_min in 1.4..2.4f64,
        margin in 0.15..0.55f64,
        share in 0.45..0.97f64,
    ) {
        let c = solve_coeffs(target, vpp_min, margin, share);
        let m = hc_multiplier(vpp_min, &c);
        prop_assert!((m - target).abs() < 1e-6, "target {} realized {}", target, m);
        prop_assert!(c.sensitivity >= 0.0);
        // normalization anchor
        prop_assert!((hc_multiplier(physics::VPP_NOMINAL, &c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dq_and_qcrit_monotone_in_vpp(
        target in 0.85..1.9f64,
        vpp_min in 1.4..2.4f64,
        margin in 0.15..0.55f64,
        share in 0.45..0.97f64,
        v1 in 1.4..2.5f64,
        v2 in 1.4..2.5f64,
    ) {
        let c = solve_coeffs(target, vpp_min, margin, share);
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(dq_relative(lo, &c) <= dq_relative(hi, &c) + 1e-12);
        prop_assert!(qcrit_relative(lo, &c) <= qcrit_relative(hi, &c) + 1e-12);
    }

    #[test]
    fn uniform01_always_in_range(seed in any::<u64>()) {
        let u = hash::uniform01(seed);
        prop_assert!((0.0..1.0).contains(&u));
        let z = hash::standard_normal(seed);
        prop_assert!(z.is_finite());
    }

    #[test]
    fn set_vpp_respects_vppmin(id in any_module(), step in 0u32..12) {
        let spec = registry::spec(id);
        let vpp_min = spec.vpp_min;
        let mut m = DramModule::with_geometry(spec, 3, Geometry::small_test()).unwrap();
        let vpp = 2.5 - 0.1 * step as f64;
        let result = m.set_vpp(vpp);
        if vpp + 1e-9 >= vpp_min {
            prop_assert!(result.is_ok(), "{:?} rejected {}", id, vpp);
        } else {
            prop_assert!(result.is_err(), "{:?} accepted {} below V_PPmin {}", id, vpp, vpp_min);
        }
    }

    #[test]
    fn data_round_trips_without_stressors(
        id in any_module(),
        seed in any::<u64>(),
        row in 2u32..500,
        word in any::<u64>(),
    ) {
        let mut m =
            DramModule::with_geometry(registry::spec(id), seed, Geometry::small_test()).unwrap();
        let data = vec![word; m.geometry().columns_per_row as usize];
        m.write_row(0, row, &data).unwrap();
        let back = m.read_row(0, row, 30.0).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn column_slots_match_the_recurrence_on_the_grid(
        act_half in prop_oneof![-4_096i64..4_096, 0i64..1 << 52, (1i64 << 52) - 4_096..1 << 52],
        rcd_half in -40i64..60,
    ) {
        // Multiples of 0.5 ns up to 2^51 ns, with t_RCDs from -20 ns
        // through one slot or less to 29.5 ns. Near 2^51 the t_RCD target
        // can leave the grid, which must not matter either.
        assert_column_slots_match(act_half as f64 * 0.5, rcd_half as f64 * 0.5)?;
    }

    #[test]
    fn column_slots_match_the_recurrence_off_the_grid(
        act_at in prop_oneof![0.0..1e12f64, -1e6..1e6f64, Just(0.0), Just(48.5)],
        t_rcd in prop_oneof![
            -50.0..50.0f64,
            prop::sample::select(vec![13.3, 1.4, 0.1, -0.0, -13.3]),
        ],
    ) {
        assert_column_slots_match(act_at, t_rcd)?;
    }

    #[test]
    fn bulk_row_read_matches_per_column_reads(
        id in any_module(),
        seed in any::<u64>(),
        wait in prop_oneof![0.0..1e6f64, Just(0.0), Just(1_234.5)],
        t_rcd in prop_oneof![
            -5.0..30.0f64,
            prop::sample::select(vec![13.3, 13.5, 1.5, -3.0, f64::NAN, f64::INFINITY]),
        ],
        columns in 0u32..1025,
        state in 0u32..3,
    ) {
        // State 0 reads a never-written row (power-on content), 1 a written
        // row, 2 a written row behind on-die ECC check words.
        let row = 100;
        let fresh = || {
            let mut m = DramModule::with_geometry(registry::spec(id), seed, Geometry::small_test())
                .unwrap();
            if state == 2 {
                m.set_ondie_ecc(OnDieEcc::Secded64);
            }
            if state > 0 {
                let data: Vec<u64> = (0..m.geometry().columns_per_row)
                    .map(|c| seed.rotate_left(c))
                    .collect();
                m.write_row(0, row, &data).unwrap();
            }
            m.advance_ns(wait);
            m.activate(0, row).unwrap();
            m
        };
        let mut bulk = fresh();
        let act_at = bulk.now_ns();
        let mut words = Vec::new();
        bulk.read_open_row_into(0, t_rcd, columns, &mut words).unwrap();

        let mut single = fresh();
        let slots = literal_column_slots(act_at, act_at + t_rcd, columns);
        let expected: Vec<u64> = (0u32..)
            .zip(&slots)
            .map(|(column, &t)| single.read(0, column, t - act_at).unwrap())
            .collect();
        prop_assert_eq!(words, expected);
        let end = slots.last().copied().unwrap_or(act_at);
        prop_assert_eq!(bulk.now_ns().to_bits(), end.to_bits());
        prop_assert_eq!(bulk.ecc_corrections(), single.ecc_corrections());
    }
}

#[test]
fn column_slots_match_the_recurrence_for_non_finite_inputs() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (act_at, t_rcd) in [(x, 13.5), (0.0, x), (1_234.567, x), (x, x)] {
            assert_column_slots_match(act_at, t_rcd).unwrap();
        }
    }
}

#[test]
fn zero_column_burst_reads_nothing_and_keeps_the_clock() {
    let mut m =
        DramModule::with_geometry(registry::spec(ModuleId::B0), 3, Geometry::small_test()).unwrap();
    m.advance_ns(1_234.567);
    m.activate(0, 7).unwrap();
    let act_at = m.now_ns();
    let mut words = vec![42];
    m.read_open_row_into(0, 13.5, 0, &mut words).unwrap();
    assert_eq!(words, [42]);
    assert_eq!(m.now_ns().to_bits(), act_at.to_bits());
}
