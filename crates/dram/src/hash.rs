//! Deterministic per-cell randomness.
//!
//! Every stochastic property of the device model (cell disturbance
//! thresholds, retention times, activation-latency jitter, orientation) is a
//! pure function of a 64-bit seed derived from the cell's coordinates. This
//! gives the model the two properties the study methodology relies on:
//!
//! - **Reproducibility** — re-testing a row yields the same weak cells, as it
//!   does on real silicon ("consistently predictable bit locations", §1);
//! - **Laziness** — a multi-gigabit module needs no materialized state until
//!   a row is touched.
//!
//! The mixer is `splitmix64`, whose output is well-distributed even for
//! sequential inputs.

#[cfg(target_arch = "x86_64")]
use hammervolt_obs::simd::Kernel;

/// One round of the splitmix64 mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two seeds into one.
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    splitmix64(a ^ b.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Seed for a row: `(module_seed, bank, physical_row)`.
#[inline]
pub fn row_seed(module_seed: u64, bank: u32, row: u32) -> u64 {
    combine(module_seed, ((bank as u64) << 40) | row as u64)
}

/// Seed for a cell: `(row_seed, bit index within the row)`.
#[inline]
pub fn cell_seed(row_seed: u64, bit: u32) -> u64 {
    combine(row_seed, 0x5EED_0000_0000_0000 | bit as u64)
}

/// Seed for one work chunk's measurement-noise stream:
/// `(module_seed, bank, chunk index)`.
///
/// The parallel execution engine shards a module's row sample into chunks
/// and rebases the device's cycle-to-cycle noise stream
/// ([`reseed_noise`](../module/struct.DramModule.html#method.reseed_noise))
/// on each chunk's seed. Because the stream depends only on these
/// coordinates — never on which worker ran the chunk or in what order —
/// sweep results are byte-identical for any worker count.
#[inline]
pub fn chunk_seed(module_seed: u64, bank: u32, chunk: u64) -> u64 {
    combine(
        module_seed,
        0xC4A2_0000_0000_0000 ^ ((bank as u64) << 40) ^ chunk,
    )
}

/// Uniform value in `[0, 1)` from a seed (53-bit precision).
#[inline]
pub fn uniform01(seed: u64) -> f64 {
    unit_of_draw(draw53(seed))
}

/// The 53-bit integer draw behind [`uniform01`]: `uniform01(seed) ==
/// unit_of_draw(draw53(seed))`.
#[inline]
pub(crate) fn draw53(seed: u64) -> u64 {
    splitmix64(seed) >> 11
}

/// [`uniform01`]'s scaling of a 53-bit draw into `[0, 1)`. Exact: every
/// draw below `2^53` is an `f64`, and the scale is a power of two.
#[inline]
pub(crate) fn unit_of_draw(draw: u64) -> f64 {
    draw as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The exact integer limit of a cutoff `p`: `unit_of_draw(d) < p` exactly
/// when `d < draw_limit(p)`, for every 53-bit draw `d`. It is
/// `ceil(p · 2^53)`, clamped to `0..=2^53`: 0 for a cutoff that is not
/// positive (NaN included), `2^53` (every draw) from 1 up.
pub(crate) const fn draw_limit(p: f64) -> u64 {
    if p.is_nan() || p <= 0.0 {
        0
    } else if p >= 1.0 {
        1 << 53
    } else {
        // Scaling by a power of two is exact (subnormals included), so
        // `d < p · 2^53` is the compare `unit_of_draw(d) < p` makes, and
        // for an integer `d` that is `d < ceil(p · 2^53)`.
        let scaled = p * (1u64 << 53) as f64;
        let floor = scaled as u64;
        if (floor as f64) < scaled {
            floor + 1
        } else {
            floor
        }
    }
}

/// A cell's flip draw for `salt` as a 53-bit integer:
/// `unit_of_draw(cell_draw(r, c, s)) == uniform01(combine(cell_seed(r, c), s))`.
/// So `uniform01(…) < p` is exactly `cell_draw(…) < draw_limit(p)`.
#[inline]
pub(crate) fn cell_draw(row_seed: u64, bit: u32, salt: u64) -> u64 {
    draw53(combine(cell_seed(row_seed, bit), salt))
}

/// Cells per block of the wide hash pass.
pub(crate) const DRAW_BLOCK: usize = 64;

/// [`cell_draw`] for the cells `start ..= start + 63`, written to `draws`,
/// and the mask of the cells whose draw is below `limit` (bit `i` for cell
/// `start + i`). The loops carry nothing from lane to lane, so under the
/// AVX-512 features ([`hammervolt_obs::simd::Avx512::run`]) they compile
/// to eight-lane 64-bit multiplies (`vpmullq` needs AVX512DQ; VL allows
/// the narrower vectors) and a vector compare into the mask. All 64 cell seeds are hashed before any draw, so
/// each stage is eight independent vector chains the core can overlap,
/// rather than one long chain per eight cells. `start + 63` must not
/// overflow.
#[cfg(target_arch = "x86_64")]
pub(crate) struct BlockDraws<'a> {
    pub(crate) row_seed: u64,
    pub(crate) salt: u64,
    pub(crate) start: u32,
    pub(crate) limit: u64,
    pub(crate) draws: &'a mut [u64; DRAW_BLOCK],
}

#[cfg(target_arch = "x86_64")]
impl Kernel for BlockDraws<'_> {
    type Output = u64;

    #[inline(always)]
    fn run(self) -> u64 {
        for (i, d) in self.draws.iter_mut().enumerate() {
            *d = cell_seed(self.row_seed, self.start + i as u32);
        }
        for d in self.draws.iter_mut() {
            *d = draw53(combine(*d, self.salt));
        }
        let mut keep = 0u64;
        for (i, &d) in self.draws.iter().enumerate() {
            keep |= u64::from(d < self.limit) << i;
        }
        keep
    }
}

/// Uniform value in `[lo, hi)` from a seed.
#[inline]
pub fn uniform(seed: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * uniform01(seed)
}

/// Standard normal deviate from a seed (inverse-CDF method, Acklam's
/// approximation; |error| < 1.2e-9).
pub fn standard_normal(seed: u64) -> f64 {
    // Map to the open interval (0, 1).
    let mut p = uniform01(seed);
    if p <= 0.0 {
        p = f64::MIN_POSITIVE;
    }
    inverse_normal_cdf(p)
}

/// Inverse standard-normal CDF (quantile function), Acklam's approximation.
///
/// Clamps its argument into the open unit interval rather than erroring —
/// this module's callers always feed it hash-derived probabilities.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    let p = p.clamp(1e-300, 1.0 - 1e-16);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard-normal CDF Φ(x) via the complementary error function
/// (Abramowitz–Stegun 7.1.26; |error| < 1.5e-7).
pub fn normal_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(z))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_changes_everything() {
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(0), 0);
        // avalanche sanity: single-bit input change flips many output bits
        let d = (splitmix64(42) ^ splitmix64(43)).count_ones();
        assert!(d > 16, "only {d} bits differ");
    }

    #[test]
    fn seeds_are_coordinate_sensitive() {
        let r1 = row_seed(1, 0, 100);
        let r2 = row_seed(1, 0, 101);
        let r3 = row_seed(1, 1, 100);
        let r4 = row_seed(2, 0, 100);
        assert_ne!(r1, r2);
        assert_ne!(r1, r3);
        assert_ne!(r1, r4);
        assert_ne!(cell_seed(r1, 0), cell_seed(r1, 1));
        // deterministic
        assert_eq!(row_seed(1, 0, 100), r1);
    }

    #[test]
    fn chunk_seeds_are_coordinate_sensitive() {
        let c = chunk_seed(1, 0, 0);
        assert_ne!(c, chunk_seed(1, 0, 1));
        assert_ne!(c, chunk_seed(1, 1, 0));
        assert_ne!(c, chunk_seed(2, 0, 0));
        // deterministic, and distinct from the row-seed domain
        assert_eq!(chunk_seed(1, 0, 0), c);
        assert_ne!(c, row_seed(1, 0, 0));
    }

    #[test]
    fn uniform01_in_range_and_spread() {
        let mut sum = 0.0;
        for i in 0..10_000u64 {
            let u = uniform01(i);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn uniform_respects_bounds() {
        for i in 0..1000u64 {
            let v = uniform(i, 2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let n = 20_000u64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let z = standard_normal(combine(9, i));
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn inverse_cdf_round_trips_with_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let x = inverse_normal_cdf(p);
            let back = normal_cdf(x);
            assert!((back - p).abs() < 1e-5, "p={p} x={x} back={back}");
        }
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-5);
        assert!((normal_cdf(-1.959_964) - 0.025).abs() < 1e-5);
        assert!(normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn inverse_cdf_clamps_extremes() {
        assert!(inverse_normal_cdf(0.0).is_finite());
        assert!(inverse_normal_cdf(1.0).is_finite());
        assert!(inverse_normal_cdf(0.0) < -30.0);
        assert!(inverse_normal_cdf(1.0) > 5.0);
    }
}
