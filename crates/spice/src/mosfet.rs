//! Level-1 (Shichman–Hodges) MOSFET model with body effect and
//! channel-length modulation.
//!
//! The paper uses the 22 nm PTM transistor model in LTspice. A full BSIM-class
//! model is neither practical nor necessary here: the behaviours that matter
//! for the study — threshold-limited charge restoration (Obsv. 10), weaker
//! channels at lower gate drive (Obsvs. 8–11), and sense-amp regeneration —
//! are all first-order effects captured by the level-1 equations:
//!
//! ```text
//! V_T   = VT0 + γ(√(φ + V_SB) − √φ)
//! I_D   = 0                                           (V_GS ≤ V_T)
//! I_D   = K'(W/L)[(V_GS−V_T)V_DS − V_DS²/2](1+λV_DS)  (triode)
//! I_D   = K'/2 (W/L)(V_GS−V_T)²(1+λV_DS)              (saturation)
//! ```
//!
//! [`MosfetParams::evaluate`] evaluates one device at one bias, branching on
//! polarity, terminal swap and region; it is the reference engine's model
//! and the oracle. [`LaneMosfet`] evaluates one device slot across `L`
//! lanes of the lane solver at once: it holds the per-run constants
//! (`K'·(W/L)`, `√φ`, the bulk mirrored into the NMOS frame) computed by
//! the scalar code's own expressions, and picks each lane's polarity
//! mirror, swap and region by select, so the lanes compile to vector code
//! and each lane still gets `evaluate`'s bits.

use serde::{Deserialize, Serialize};

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Polarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Level-1 model card. All values refer to the *equivalent NMOS* convention;
/// PMOS devices use the same magnitudes with polarity handled by the
/// evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Level1Params {
    /// Zero-bias threshold voltage (V), positive for both polarities.
    pub vt0: f64,
    /// Process transconductance `K' = µ·C_ox` (A/V²).
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Body-effect coefficient γ (√V).
    pub gamma: f64,
    /// Surface potential 2φ_F (V).
    pub phi: f64,
}

/// A sized transistor instance: model card, polarity, and geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosfetParams {
    /// Model card.
    pub model: Level1Params,
    /// Polarity.
    pub polarity: Polarity,
    /// Channel width (m).
    pub width: f64,
    /// Channel length (m).
    pub length: f64,
}

/// Linearized operating point at a bias, for Newton stamping.
///
/// `i_ds` is the current flowing *into the drain terminal and out of the
/// source terminal* as wired in the netlist (for a conducting PMOS this is
/// negative). The three partials are taken with respect to the absolute
/// terminal voltages, so the Jacobian stamp is polarity- and
/// orientation-agnostic:
///
/// `ΔI ≈ di_dvd·Δv_d + di_dvg·Δv_g + di_dvs·Δv_s`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Drain-terminal current (A).
    pub i_ds: f64,
    /// ∂I/∂V_drain (S).
    pub di_dvd: f64,
    /// ∂I/∂V_gate (S).
    pub di_dvg: f64,
    /// ∂I/∂V_source (S).
    pub di_dvs: f64,
}

impl MosfetParams {
    /// Width-over-length ratio.
    pub fn w_over_l(&self) -> f64 {
        self.width / self.length
    }

    /// The device's transconductance factor `K'·(W/L)`.
    fn beta(&self) -> f64 {
        self.model.kp * self.w_over_l()
    }

    /// Evaluates the device given absolute terminal voltages. The bulk is an
    /// implicit rail at voltage `bulk` (typically 0 V for NMOS, V_DD for
    /// PMOS), not a circuit node.
    pub fn evaluate(&self, vd: f64, vg: f64, vs: f64, bulk: f64) -> OperatingPoint {
        match self.polarity {
            Polarity::Nmos => self.evaluate_nmos(vd, vg, vs, bulk),
            Polarity::Pmos => {
                // Mirror into the NMOS frame: I_p(vd,vg,vs) = -I_n(-vd,-vg,-vs).
                // Chain rule: ∂I_p/∂v_x = -∂I_n/∂u_x · (-1) = ∂I_n/∂u_x.
                let n = self.evaluate_nmos(-vd, -vg, -vs, -bulk);
                OperatingPoint {
                    i_ds: -n.i_ds,
                    di_dvd: n.di_dvd,
                    di_dvg: n.di_dvg,
                    di_dvs: n.di_dvs,
                }
            }
        }
    }

    fn evaluate_nmos(&self, vd: f64, vg: f64, vs: f64, bulk: f64) -> OperatingPoint {
        // Source/drain are physically symmetric; treat the lower-potential
        // terminal as the effective source and map the partials back.
        if vd < vs {
            let sw = self.evaluate_nmos(vs, vg, vd, bulk);
            // I(vd,vg,vs) = -I_sw(vs,vg,vd):
            return OperatingPoint {
                i_ds: -sw.i_ds,
                di_dvd: -sw.di_dvs,
                di_dvg: -sw.di_dvg,
                di_dvs: -sw.di_dvd,
            };
        }
        let m = &self.model;
        // Smooth max(0, vsb): a hard clamp has a derivative kink at vsb = 0
        // that breaks Newton's quadratic convergence and the analytic
        // Jacobian; the softplus-style form keeps C¹ continuity.
        let vsb_raw = vs - bulk;
        const EPS: f64 = 1e-3;
        let vsb = 0.5 * (vsb_raw + (vsb_raw * vsb_raw + EPS * EPS).sqrt());
        let dvsb_dvs = 0.5 * (1.0 + vsb_raw / (vsb_raw * vsb_raw + EPS * EPS).sqrt());
        let vt = m.vt0 + m.gamma * ((m.phi + vsb).sqrt() - m.phi.sqrt());
        let vgs = vg - vs;
        let vds = vd - vs;
        let vov = vgs - vt;
        let beta = self.beta();

        // (i, gm, gds) in the canonical frame where gm = ∂I/∂V_GS, gds = ∂I/∂V_DS.
        let (i, gm, gds) = if vov <= 0.0 {
            // Cutoff: a small ohmic leak keeps the Jacobian non-singular and
            // approximates subthreshold conduction.
            let g_leak = 1e-12;
            (g_leak * vds, 0.0, g_leak)
        } else if vds < vov {
            // Triode
            let clm = 1.0 + m.lambda * vds;
            let i = beta * (vov * vds - 0.5 * vds * vds) * clm;
            let gm = beta * vds * clm;
            let gds = beta * ((vov - vds) * clm + (vov * vds - 0.5 * vds * vds) * m.lambda);
            (i, gm, gds)
        } else {
            // Saturation
            let clm = 1.0 + m.lambda * vds;
            let i = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * m.lambda;
            (i, gm, gds)
        };

        // Absolute-voltage partials. The threshold's V_S dependence (body
        // effect) also feeds ∂I/∂V_S through dVt/dVs.
        let dvt_dvs = 0.5 * m.gamma / (m.phi + vsb).sqrt() * dvsb_dvs;
        OperatingPoint {
            i_ds: i,
            di_dvd: gds,
            di_dvg: gm,
            di_dvs: -(gm + gds) - gm * dvt_dvs,
        }
    }

    /// Effective threshold voltage at a given source-to-bulk bias.
    pub fn threshold(&self, vsb: f64) -> f64 {
        let m = &self.model;
        m.vt0 + m.gamma * ((m.phi + vsb.max(0.0)).sqrt() - m.phi.sqrt())
    }
}

/// The sign bit of an `f64`: XORed into a value's bits, it negates the
/// value exactly as unary `-` does, NaN included.
const SIGN: u64 = 1 << 63;

/// One transistor slot's constants across `L` lanes, built once per run:
/// per lane the polarity mirror, the model card, `K'·(W/L)`, `√φ` and the
/// bulk mirrored into the NMOS frame, each computed as
/// [`MosfetParams::evaluate`] computes it on every call.
#[derive(Debug, Clone, Copy)]
pub struct LaneMosfet<const L: usize> {
    /// [`SIGN`] for a PMOS lane, whose voltages and current the reference
    /// negates into and out of the NMOS frame; `0` for NMOS.
    mirror: [u64; L],
    /// The bulk rail in the NMOS frame.
    bulk: [f64; L],
    vt0: [f64; L],
    gamma: [f64; L],
    phi: [f64; L],
    sqrt_phi: [f64; L],
    lambda: [f64; L],
    beta: [f64; L],
}

/// [`OperatingPoint`]s of `L` lanes, one array per field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneOperatingPoint<const L: usize> {
    /// Drain-terminal current (A).
    pub i_ds: [f64; L],
    /// ∂I/∂V_drain (S).
    pub di_dvd: [f64; L],
    /// ∂I/∂V_gate (S).
    pub di_dvg: [f64; L],
    /// ∂I/∂V_source (S).
    pub di_dvs: [f64; L],
}

impl<const L: usize> LaneMosfet<L> {
    /// The constants of lane `l`'s device `devices[l].0` with its bulk
    /// rail at `devices[l].1` volts.
    pub fn new(devices: [(MosfetParams, f64); L]) -> Self {
        let field = |f: fn(&MosfetParams, f64) -> f64| devices.map(|(p, bulk)| f(&p, bulk));
        LaneMosfet {
            mirror: devices.map(|(p, _)| match p.polarity {
                Polarity::Nmos => 0,
                Polarity::Pmos => SIGN,
            }),
            bulk: field(|p, bulk| match p.polarity {
                Polarity::Nmos => bulk,
                Polarity::Pmos => -bulk,
            }),
            vt0: field(|p, _| p.model.vt0),
            gamma: field(|p, _| p.model.gamma),
            phi: field(|p, _| p.model.phi),
            sqrt_phi: field(|p, _| p.model.phi.sqrt()),
            lambda: field(|p, _| p.model.lambda),
            beta: field(|p, _| p.beta()),
        }
    }

    /// Every lane's [`MosfetParams::evaluate`] at its own absolute terminal
    /// voltages, bit for bit.
    ///
    /// Each lane computes the reference's expressions in the reference's
    /// order, with no branch: a PMOS lane's voltages and current are
    /// negated by a sign-bit XOR, which is exactly unary `-`; the effective
    /// drain and source are selected where `vd < vs` (the reference's
    /// swap), and the partials mapped back by select and negation; all
    /// three regions are computed and the one the reference's tests
    /// (`vov <= 0`, then `vds < vov`) pick is selected. Selecting a value
    /// computed by the same operations on the same operands gives the bits
    /// the branch gives, and NaN inputs fall through the same tests.
    #[inline(always)]
    pub fn evaluate(&self, vd: [f64; L], vg: [f64; L], vs: [f64; L]) -> LaneOperatingPoint<L> {
        const EPS: f64 = 1e-3;
        const G_LEAK: f64 = 1e-12;
        let mut op = LaneOperatingPoint {
            i_ds: [0.0; L],
            di_dvd: [0.0; L],
            di_dvg: [0.0; L],
            di_dvs: [0.0; L],
        };
        for l in 0..L {
            let mirror = |x: f64| f64::from_bits(x.to_bits() ^ self.mirror[l]);
            let (ud, ug, us) = (mirror(vd[l]), mirror(vg[l]), mirror(vs[l]));
            let swap = ud < us;
            let (d, s) = if swap { (us, ud) } else { (ud, us) };
            let vsb_raw = s - self.bulk[l];
            let root = (vsb_raw * vsb_raw + EPS * EPS).sqrt();
            let vsb = 0.5 * (vsb_raw + root);
            let dvsb_dvs = 0.5 * (1.0 + vsb_raw / root);
            let phi_vsb = (self.phi[l] + vsb).sqrt();
            let vt = self.vt0[l] + self.gamma[l] * (phi_vsb - self.sqrt_phi[l]);
            let vgs = ug - s;
            let vds = d - s;
            let vov = vgs - vt;
            let (beta, lambda) = (self.beta[l], self.lambda[l]);
            let clm = 1.0 + lambda * vds;
            let q = vov * vds - 0.5 * vds * vds;
            let triode = (
                beta * q * clm,
                beta * vds * clm,
                beta * ((vov - vds) * clm + q * lambda),
            );
            let saturation = (
                0.5 * beta * vov * vov * clm,
                beta * vov * clm,
                0.5 * beta * vov * vov * lambda,
            );
            let cutoff = (G_LEAK * vds, 0.0, G_LEAK);
            let (i, gm, gds) = if vov <= 0.0 {
                cutoff
            } else if vds < vov {
                triode
            } else {
                saturation
            };
            let dvt_dvs = 0.5 * self.gamma[l] / phi_vsb * dvsb_dvs;
            let dis = -(gm + gds) - gm * dvt_dvs;
            let i = if swap { -i } else { i };
            op.i_ds[l] = mirror(i);
            op.di_dvd[l] = if swap { -dis } else { gds };
            op.di_dvg[l] = if swap { -gm } else { gm };
            op.di_dvs[l] = if swap { -gds } else { dis };
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> MosfetParams {
        MosfetParams {
            model: Level1Params {
                vt0: 0.5,
                kp: 4e-4,
                lambda: 0.05,
                gamma: 0.4,
                phi: 0.8,
            },
            polarity: Polarity::Nmos,
            width: 1e-6,
            length: 1e-7,
        }
    }

    #[test]
    fn cutoff_carries_only_leakage() {
        let op = nmos().evaluate(1.0, 0.2, 0.0, 0.0);
        assert!(op.i_ds.abs() < 1e-9);
        assert_eq!(op.di_dvg, 0.0);
    }

    #[test]
    fn saturation_current_is_quadratic_in_overdrive() {
        let d = nmos();
        let i1 = d.evaluate(2.0, 1.0, 0.0, 0.0).i_ds;
        let i2 = d.evaluate(2.0, 1.5, 0.0, 0.0).i_ds;
        // overdrive 0.5 vs 1.0 → roughly 4x (modulo lambda)
        let ratio = i2 / i1;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio = {ratio}");
    }

    #[test]
    fn triode_current_grows_with_vds() {
        let d = nmos();
        let i1 = d.evaluate(0.1, 1.5, 0.0, 0.0).i_ds;
        let i2 = d.evaluate(0.3, 1.5, 0.0, 0.0).i_ds;
        assert!(i2 > i1 && i1 > 0.0);
    }

    #[test]
    fn current_is_continuous_at_saturation_boundary() {
        let d = nmos();
        let vov = 1.0 - d.model.vt0; // vg = 1.0, vs = 0
        let below = d.evaluate(vov - 1e-6, 1.0, 0.0, 0.0).i_ds;
        let above = d.evaluate(vov + 1e-6, 1.0, 0.0, 0.0).i_ds;
        assert!((below - above).abs() / above < 1e-3);
    }

    #[test]
    fn source_drain_swap_mirrors_current() {
        let d = nmos();
        let fwd = d.evaluate(1.0, 1.5, 0.0, 0.0).i_ds;
        let rev = d.evaluate(0.0, 1.5, 1.0, 0.0).i_ds;
        assert!((fwd + rev).abs() < 1e-9 * fwd.abs().max(1.0));
        assert!(fwd > 0.0 && rev < 0.0);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let d = nmos();
        assert!(d.threshold(1.0) > d.threshold(0.0));
        assert_eq!(d.threshold(0.0), d.model.vt0);
        // negative vsb clamped
        assert_eq!(d.threshold(-0.5), d.model.vt0);
    }

    #[test]
    fn body_effect_reduces_current() {
        let d = nmos();
        // Same vgs/vds but source lifted above bulk → larger vsb → less current.
        let bulk_at_source = d.evaluate(1.5, 1.5, 0.5, 0.5).i_ds;
        let bulk_grounded = d.evaluate(1.5, 1.5, 0.5, 0.0).i_ds;
        assert!(bulk_grounded < bulk_at_source);
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let mut d = nmos();
        d.polarity = Polarity::Pmos;
        // Source at 1.2 V, gate at 0 → V_GS = −1.2 → conducts source→drain,
        // i.e. current flows *out of* the drain terminal.
        let op = d.evaluate(0.0, 0.0, 1.2, 1.2);
        assert!(
            op.i_ds < 0.0,
            "expected negative drain current, got {}",
            op.i_ds
        );
        // Gate at source potential → off.
        let off = d.evaluate(0.0, 1.2, 1.2, 1.2);
        assert!(off.i_ds.abs() < 1e-9);
    }

    fn check_partials(d: &MosfetParams, vd: f64, vg: f64, vs: f64, bulk: f64) {
        let h = 1e-7;
        let base = d.evaluate(vd, vg, vs, bulk);
        let nd = (d.evaluate(vd + h, vg, vs, bulk).i_ds - base.i_ds) / h;
        let ng = (d.evaluate(vd, vg + h, vs, bulk).i_ds - base.i_ds) / h;
        let ns = (d.evaluate(vd, vg, vs + h, bulk).i_ds - base.i_ds) / h;
        let scale = base.i_ds.abs().max(1e-6);
        assert!(
            (base.di_dvd - nd).abs() / scale.max(nd.abs()) < 1e-2,
            "di_dvd {} vs numeric {} at ({vd},{vg},{vs})",
            base.di_dvd,
            nd
        );
        assert!(
            (base.di_dvg - ng).abs() / scale.max(ng.abs()) < 1e-2,
            "di_dvg {} vs numeric {} at ({vd},{vg},{vs})",
            base.di_dvg,
            ng
        );
        assert!(
            (base.di_dvs - ns).abs() / scale.max(ns.abs()) < 1e-2,
            "di_dvs {} vs numeric {} at ({vd},{vg},{vs})",
            base.di_dvs,
            ns
        );
    }

    #[test]
    fn partials_match_numerical_derivatives_in_all_regions() {
        let d = nmos();
        check_partials(&d, 2.0, 1.2, 0.0, 0.0); // saturation
        check_partials(&d, 0.3, 1.5, 0.0, 0.0); // triode
        check_partials(&d, 1.5, 1.5, 0.5, 0.0); // with body effect
        check_partials(&d, 0.0, 1.5, 1.0, 0.0); // swapped source/drain
    }

    #[test]
    fn pmos_partials_match_numerical_derivatives() {
        let mut d = nmos();
        d.polarity = Polarity::Pmos;
        check_partials(&d, 0.0, 0.0, 1.2, 1.2); // conducting
        check_partials(&d, 0.6, 0.2, 1.2, 1.2); // triode-ish
    }
}
