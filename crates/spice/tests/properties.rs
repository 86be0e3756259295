//! Property-based tests for the circuit simulator.

use hammervolt_spice::linear::{fixed_lu, Matrix, FIXED_LU_MAX};
use hammervolt_spice::mosfet::{Level1Params, MosfetParams, Polarity};
use hammervolt_spice::netlist::Circuit;
use hammervolt_spice::transient::{Transient, TransientConfig};
use hammervolt_spice::waveform::Waveform;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::mem::discriminant;

/// The system shapes the fixed-size LU kernels are compared on.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every entry uniform in [-10, 10).
    Dense,
    /// An MNA system: a conductance block over the nodes plus MOSFET-like
    /// asymmetric entries, then voltage-source rows and columns of ±1 with
    /// a zero diagonal, so elimination must pivot around them.
    Mna,
    /// Entries from {0, ±1, ±2}: pivot searches meet equal magnitudes.
    Tied,
    /// Entries at and around the pivot threshold 1e-30, on either side.
    NearEps,
    /// A dense system with a repeated row or an all-zero column.
    Singular,
    /// A dense system with ±0.0, ±inf and NaN sprinkled over the matrix and
    /// the right-hand side.
    Special,
}

/// xorshift64*: the systems are drawn from one seed per case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, options: &[f64]) -> f64 {
        options[self.below(options.len())]
    }
}

/// A row-major `n × n` matrix and right-hand side of the given shape.
fn system(shape: Shape, n: usize, rng: &mut Draw) -> (Vec<f64>, Vec<f64>) {
    const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut a = vec![0.0; n * n];
    let mut b: Vec<f64> = (0..n).map(|_| rng.unit() * 4.0 - 2.0).collect();
    match shape {
        Shape::Dense | Shape::Singular | Shape::Special => {
            a.iter_mut().for_each(|x| *x = rng.unit() * 20.0 - 10.0);
        }
        Shape::Mna => {
            let sources = rng.below(n.min(4));
            let nodes = n - sources;
            for i in 0..nodes {
                a[i * n + i] += 1e-12;
                for j in (i + 1)..nodes {
                    if rng.below(3) == 0 {
                        let g = rng.unit() * 1e-3;
                        a[i * n + i] += g;
                        a[j * n + j] += g;
                        a[i * n + j] -= g;
                        a[j * n + i] -= g;
                    }
                }
                if rng.below(4) == 0 {
                    let col = rng.below(nodes);
                    a[i * n + col] += rng.unit() * 2e-4 - 1e-4;
                }
            }
            for k in 0..sources {
                let br = nodes + k;
                let plus = rng.below(nodes);
                a[plus * n + br] += 1.0;
                a[br * n + plus] += 1.0;
                let minus = rng.below(nodes);
                if minus != plus && rng.below(2) == 0 {
                    a[minus * n + br] -= 1.0;
                    a[br * n + minus] -= 1.0;
                }
            }
        }
        Shape::Tied => a
            .iter_mut()
            .for_each(|x| *x = rng.pick(&[0.0, 1.0, -1.0, 2.0, -2.0])),
        Shape::NearEps => {
            let eps = 1e-30f64;
            let near = [
                eps,
                -eps,
                eps.next_up(),
                eps.next_down(),
                -eps.next_down(),
                2.0 * eps,
                0.5 * eps,
                0.0,
            ];
            a.iter_mut().for_each(|x| *x = rng.pick(&near));
        }
    }
    match shape {
        Shape::Singular if n > 1 && rng.below(2) == 0 => {
            let from = rng.below(n);
            let to = (from + 1 + rng.below(n - 1)) % n;
            a.copy_within(from * n..(from + 1) * n, to * n);
        }
        Shape::Singular => {
            let col = rng.below(n);
            for row in 0..n {
                a[row * n + col] = 0.0;
            }
        }
        Shape::Special => {
            for x in a.iter_mut().chain(b.iter_mut()) {
                if rng.below(4) == 0 {
                    *x = rng.pick(&SPECIAL);
                }
            }
        }
        _ => {}
    }
    (a, b)
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves the sign
/// and payload of a NaN produced by arithmetic unspecified.
fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Solves one system with `Matrix::solve_in_place` and with the fixed-size
/// kernel, and requires the same outcome, solution bits and factor bits.
fn kernel_matches_reference(n: usize, a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    let kernel = fixed_lu(n).expect("a kernel for every n up to FIXED_LU_MAX");
    let mut reference = Matrix::zeros(n);
    for (i, &v) in a.iter().enumerate() {
        reference.set(i / n, i % n, v);
    }
    let mut fixed = reference.clone();
    let (mut x_ref, mut x_fixed) = (b.to_vec(), b.to_vec());
    let r_ref = reference.solve_in_place(&mut x_ref);
    let r_fixed = kernel(&mut fixed, &mut x_fixed);
    prop_assert_eq!(
        r_fixed.map_err(|e| discriminant(&e)),
        r_ref.map_err(|e| discriminant(&e))
    );
    for (i, (&f, &r)) in x_fixed.iter().zip(&x_ref).enumerate() {
        prop_assert!(
            same_bits(f, r),
            "n {n}, x[{i}]: kernel {f:e}, reference {r:e}"
        );
    }
    for row in 0..n {
        for col in 0..n {
            let (f, r) = (fixed.get(row, col), reference.get(row, col));
            prop_assert!(
                same_bits(f, r),
                "n {n}, factor ({row}, {col}): {f:e} vs {r:e}"
            );
        }
    }
    Ok(())
}

#[test]
fn fixed_kernels_cover_one_to_fixed_lu_max() {
    assert!(fixed_lu(0).is_none());
    assert!((1..=FIXED_LU_MAX).all(|n| fixed_lu(n).is_some()));
    assert!(fixed_lu(FIXED_LU_MAX + 1).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The fixed-size kernels are `Matrix::solve_in_place` bit for bit, at
    // every instantiated size, on well-posed and adversarial systems alike.
    #[test]
    fn fixed_lu_matches_solve_in_place_bit_for_bit(
        shape in prop::sample::select(vec![
            Shape::Dense,
            Shape::Mna,
            Shape::Tied,
            Shape::NearEps,
            Shape::Singular,
            Shape::Special,
        ]),
        seed in any::<u64>(),
    ) {
        let mut rng = Draw(seed | 1);
        for n in 1..=FIXED_LU_MAX {
            let (a, b) = system(shape, n, &mut rng);
            kernel_matches_reference(n, &a, &b)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solves_diagonally_dominant_systems(
        n in 2usize..8,
        seed in any::<u64>(),
    ) {
        // Build a strictly diagonally dominant matrix (always nonsingular)
        // and a known solution; verify the residual.
        let mut rng = Draw(seed | 1);
        let mut next = move || rng.unit();
        let mut a = Matrix::zeros(n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next() * 2.0 - 1.0;
                    a.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            a.set(i, i, row_sum + 1.0 + next());
        }
        let x_true: Vec<f64> = (0..n).map(|_| next() * 10.0 - 5.0).collect();
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, &xj) in x_true.iter().enumerate() {
                *bi += a.get(i, j) * xj;
            }
        }
        a.solve_in_place(&mut b).unwrap();
        for i in 0..n {
            prop_assert!((b[i] - x_true[i]).abs() < 1e-8, "component {}", i);
        }
    }

    #[test]
    fn mosfet_partials_match_numerics(
        vd in 0.0..2.5f64,
        vg in 0.0..2.5f64,
        vs in 0.0..2.5f64,
        pmos in any::<bool>(),
    ) {
        let d = MosfetParams {
            model: Level1Params {
                vt0: 0.5,
                kp: 3e-4,
                lambda: 0.06,
                gamma: 0.4,
                phi: 0.85,
            },
            polarity: if pmos { Polarity::Pmos } else { Polarity::Nmos },
            width: 1e-6,
            length: 1e-7,
        };
        let bulk = if pmos { 2.5 } else { 0.0 };
        let h = 1e-6;
        let base = d.evaluate(vd, vg, vs, bulk);
        prop_assert!(base.i_ds.is_finite());
        let nd = (d.evaluate(vd + h, vg, vs, bulk).i_ds - base.i_ds) / h;
        let ng = (d.evaluate(vd, vg + h, vs, bulk).i_ds - base.i_ds) / h;
        let ns = (d.evaluate(vd, vg, vs + h, bulk).i_ds - base.i_ds) / h;
        let tol = 1e-4 + 0.03 * base.i_ds.abs().max(1e-5);
        prop_assert!((base.di_dvd - nd).abs() < tol.max(0.03 * nd.abs()), "dvd {} vs {}", base.di_dvd, nd);
        prop_assert!((base.di_dvg - ng).abs() < tol.max(0.03 * ng.abs()), "dvg {} vs {}", base.di_dvg, ng);
        prop_assert!((base.di_dvs - ns).abs() < tol.max(0.03 * ns.abs()), "dvs {} vs {}", base.di_dvs, ns);
    }

    #[test]
    fn rc_settles_to_source_voltage(v in 0.1..3.0f64, r in 100.0..10_000.0f64) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.voltage_source("V1", vin, Circuit::GROUND, Waveform::Dc(v));
        c.resistor("R1", vin, vout, r);
        c.capacitor("C1", vout, Circuit::GROUND, 1e-12, 0.0);
        // run for 20 time constants
        let tau = r * 1e-12;
        let cfg = TransientConfig {
            t_stop: 20.0 * tau,
            dt: tau / 50.0,
            record_stride: 100,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let v_end = *res.trace(vout).unwrap().last().unwrap();
        prop_assert!((v_end - v).abs() < 0.01 * v, "settled to {} expected {}", v_end, v);
    }

    #[test]
    fn charge_is_conserved_in_isolated_capacitor_pair(v0 in 0.2..2.0f64) {
        // Two capacitors joined by a resistor, no sources: final voltage is
        // the charge-weighted average.
        let c1 = 2e-12;
        let c2 = 1e-12;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.capacitor("C1", a, Circuit::GROUND, c1, v0);
        c.capacitor("C2", b, Circuit::GROUND, c2, 0.0);
        c.resistor("R1", a, b, 1_000.0);
        let cfg = TransientConfig {
            t_stop: 200e-9,
            dt: 20e-12,
            record_stride: 100,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let expected = v0 * c1 / (c1 + c2);
        let va = *res.trace(a).unwrap().last().unwrap();
        let vb = *res.trace(b).unwrap().last().unwrap();
        prop_assert!((va - expected).abs() < 0.02 * v0, "va {} expected {}", va, expected);
        prop_assert!((vb - expected).abs() < 0.02 * v0, "vb {} expected {}", vb, expected);
    }

    #[test]
    fn waveform_pwl_stays_within_hull(
        t in 0.0..10.0f64,
        v0 in -2.0..2.0f64,
        v1 in -2.0..2.0f64,
    ) {
        let w = Waveform::Pwl(vec![(1.0, v0), (5.0, v1)]);
        let v = w.value(t);
        let (lo, hi) = if v0 <= v1 { (v0, v1) } else { (v1, v0) };
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}
