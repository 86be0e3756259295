//! Percentiles and quantiles with linear interpolation.
//!
//! The paper reports coefficient-of-variation figures "for the 90th, 95th and
//! 99th percentiles of all of our experimental results" (§4.6) and 90 %
//! confidence bands; this module provides the quantile primitive both use.

use crate::error::{ensure_nonempty_finite, StatsError};

/// Returns the `p`-quantile of `data` using linear interpolation between
/// closest ranks (the "R-7" definition used by NumPy's default).
///
/// # Errors
///
/// Fails if `data` is empty, contains non-finite values, or `p ∉ [0, 1]`.
///
/// # Example
///
/// ```
/// use hammervolt_stats::quantile::quantile;
/// let q = quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap();
/// assert_eq!(q, 2.5);
/// ```
pub fn quantile(data: &[f64], p: f64) -> Result<f64, StatsError> {
    ensure_nonempty_finite(data)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidProbability { value: p });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(crate::order::f64_total);
    Ok(quantile_sorted_unchecked(&sorted, p))
}

/// Returns the `p`-quantile of already-sorted data.
///
/// Useful when computing many quantiles of the same sample without repeated
/// sorting. The caller must guarantee `sorted` is non-empty, finite, and
/// ascending.
///
/// # Errors
///
/// Fails if `sorted` is empty or `p ∉ [0, 1]`. (Ordering is *not*
/// re-validated.)
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Result<f64, StatsError> {
    if sorted.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidProbability { value: p });
    }
    Ok(quantile_sorted_unchecked(sorted, p))
}

fn quantile_sorted_unchecked(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Computes several quantiles of the same data, sorting only once.
///
/// # Errors
///
/// Fails under the same conditions as [`quantile`].
pub fn quantiles(data: &[f64], ps: &[f64]) -> Result<Vec<f64>, StatsError> {
    ensure_nonempty_finite(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(crate::order::f64_total);
    ps.iter().map(|&p| quantile_sorted(&sorted, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes_are_min_and_max() {
        let data = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 5.0);
    }

    #[test]
    fn interpolates_between_ranks() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert!((quantile(&data, 0.25).unwrap() - 17.5).abs() < 1e-12);
        assert!((quantile(&data, 0.75).unwrap() - 32.5).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.3).unwrap(), 42.0);
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(quantile(&[1.0], -0.1).is_err());
        assert!(quantile(&[1.0], 1.1).is_err());
    }

    #[test]
    fn quantiles_batch_matches_individual() {
        let data: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let batch = quantiles(&data, &[0.1, 0.5, 0.9]).unwrap();
        assert_eq!(batch[0], quantile(&data, 0.1).unwrap());
        assert_eq!(batch[1], quantile(&data, 0.5).unwrap());
        assert_eq!(batch[2], quantile(&data, 0.9).unwrap());
    }

    #[test]
    fn quantile_sorted_requires_nonempty() {
        assert!(quantile_sorted(&[], 0.5).is_err());
    }
}
