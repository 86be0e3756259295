//! Confidence intervals.
//!
//! Figs. 3, 5, and 10a of the paper shade "the 90 % confidence interval of the
//! normalized value across all tested DRAM rows". This module provides both a
//! normal-approximation interval for the mean and a non-parametric percentile
//! interval over the population (the latter matches what the paper actually
//! shades: the spread of per-row values).

use crate::descriptive::Summary;
use crate::error::StatsError;
use crate::quantile;
use serde::{Deserialize, Serialize};

/// A two-sided confidence interval `[lo, hi]` at a given confidence level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.9`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `x` lies inside the closed interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Uses Acklam's rational approximation; absolute error below `1.15e-9` over
/// the open interval.
///
/// # Errors
///
/// Fails if `p ∉ (0, 1)`.
pub fn normal_quantile(p: f64) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidProbability { value: p });
    }
    // Coefficients for Acklam's approximation.
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
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    Ok(x)
}

/// Normal-approximation confidence interval for the *mean* of `data`:
/// `mean ± z · s/√n`.
///
/// # Errors
///
/// Fails on empty/non-finite data or `level ∉ (0, 1)`.
///
/// # Example
///
/// ```
/// use hammervolt_stats::ci::mean_ci;
/// let ci = mean_ci(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9).unwrap();
/// assert!(ci.contains(3.0));
/// ```
pub fn mean_ci(data: &[f64], level: f64) -> Result<ConfidenceInterval, StatsError> {
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidProbability { value: level });
    }
    let s = Summary::from_slice(data)?;
    let z = normal_quantile(0.5 + level / 2.0)?;
    let half = z * s.std_error();
    Ok(ConfidenceInterval {
        lo: s.mean - half,
        hi: s.mean + half,
        level,
    })
}

/// Non-parametric *population* interval: the central `level` mass of the
/// observed values, i.e. `[q((1-level)/2), q((1+level)/2)]`.
///
/// This is the band the paper shades around each module curve: the spread of
/// per-row normalized values, not an interval on the mean.
///
/// # Errors
///
/// Fails on empty/non-finite data or `level ∉ (0, 1)`.
pub fn population_interval(data: &[f64], level: f64) -> Result<ConfidenceInterval, StatsError> {
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidProbability { value: level });
    }
    let lo = quantile::quantile(data, (1.0 - level) / 2.0)?;
    let hi = quantile::quantile(data, (1.0 + level) / 2.0)?;
    Ok(ConfidenceInterval { lo, hi, level })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        // z(0.975) ≈ 1.959964
        assert!((normal_quantile(0.975).unwrap() - 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.95).unwrap() - 1.644_854).abs() < 1e-4);
        assert!(normal_quantile(0.5).unwrap().abs() < 1e-9);
        // symmetry
        assert!((normal_quantile(0.1).unwrap() + normal_quantile(0.9).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn normal_quantile_rejects_bounds() {
        assert!(normal_quantile(0.0).is_err());
        assert!(normal_quantile(1.0).is_err());
        assert!(normal_quantile(-0.5).is_err());
    }

    #[test]
    fn mean_ci_contains_mean_and_narrows_with_n() {
        let small: Vec<f64> = (0..10).map(|i| (i % 4) as f64).collect();
        let big: Vec<f64> = (0..1000).map(|i| (i % 4) as f64).collect();
        let ci_small = mean_ci(&small, 0.9).unwrap();
        let ci_big = mean_ci(&big, 0.9).unwrap();
        assert!(ci_big.width() < ci_small.width());
        assert!(ci_big.contains(1.5));
    }

    #[test]
    fn population_interval_covers_central_mass() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ci = population_interval(&data, 0.9).unwrap();
        assert!(ci.lo > 0.0 && ci.lo < 10.0);
        assert!(ci.hi > 90.0 && ci.hi < 99.0);
        assert_eq!(ci.level, 0.9);
    }

    #[test]
    fn interval_helpers() {
        let ci = ConfidenceInterval {
            lo: 1.0,
            hi: 3.0,
            level: 0.9,
        };
        assert_eq!(ci.width(), 2.0);
        assert!(ci.contains(1.0) && ci.contains(3.0));
        assert!(!ci.contains(0.99) && !ci.contains(3.01));
    }

    #[test]
    fn level_validation() {
        assert!(mean_ci(&[1.0, 2.0], 0.0).is_err());
        assert!(population_interval(&[1.0, 2.0], 1.0).is_err());
    }
}
