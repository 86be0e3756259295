//! Descriptive summary statistics.
//!
//! The paper's §4.6 evaluates the statistical significance of its measurements
//! with the *coefficient of variation* (CV), "the ratio of standard deviation
//! over the mean value"; [`Summary::coefficient_of_variation`] implements
//! exactly that definition.

use crate::error::{ensure_nonempty_finite, StatsError};
use serde::{Deserialize, Serialize};

/// A one-pass numeric summary of a set of observations.
///
/// Variance is the *sample* variance (`n - 1` denominator) when two or more
/// observations are present, and zero for a single observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample variance (unbiased, `n - 1` denominator).
    pub variance: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty slice and
    /// [`StatsError::NonFinite`] if any value is NaN or infinite.
    ///
    /// # Example
    ///
    /// ```
    /// use hammervolt_stats::descriptive::Summary;
    /// let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
    /// assert_eq!(s.mean, 5.0);
    /// assert_eq!(s.min, 2.0);
    /// assert_eq!(s.max, 9.0);
    /// ```
    pub fn from_slice(data: &[f64]) -> Result<Self, StatsError> {
        ensure_nonempty_finite(data)?;
        let n = data.len();
        let mean = data.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Ok(Summary {
            n,
            mean,
            variance,
            min,
            max,
        })
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Coefficient of variation: `std_dev / mean` (§4.6 of the paper).
    ///
    /// Returns `0.0` when the mean is zero and the standard deviation is also
    /// zero (a constant all-zero sample has no variability); returns infinity
    /// when the mean is zero but the data varies.
    pub fn coefficient_of_variation(&self) -> f64 {
        let sd = self.std_dev();
        if self.mean == 0.0 {
            if sd == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            sd / self.mean.abs()
        }
    }

    /// Standard error of the mean, `std_dev / sqrt(n)`.
    pub fn std_error(&self) -> f64 {
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// Range of the observations, `max - min`.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Arithmetic mean of `data`.
///
/// # Errors
///
/// Fails on empty or non-finite input.
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    ensure_nonempty_finite(data)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Median of `data` (linear-interpolated 50th percentile).
///
/// # Errors
///
/// Fails on empty or non-finite input.
pub fn median(data: &[f64]) -> Result<f64, StatsError> {
    crate::quantile::quantile(data, 0.5)
}

/// Fraction of observations for which `predicate` holds.
///
/// The paper reports many population fractions ("BER decreases in 81.2 % of
/// tested rows"); this helper computes them.
///
/// # Errors
///
/// Fails on an empty slice.
pub fn fraction_where<F: Fn(f64) -> bool>(data: &[f64], predicate: F) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let count = data.iter().filter(|&&v| predicate(v)).count();
    Ok(count as f64 / data.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_data() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.variance - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.range() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn summary_single_observation_has_zero_variance() {
        let s = Summary::from_slice(&[7.5]).unwrap();
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert_eq!(Summary::from_slice(&[]), Err(StatsError::EmptyInput));
        assert!(matches!(
            Summary::from_slice(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite { index: 1 })
        ));
    }

    #[test]
    fn cv_matches_definition() {
        let s = Summary::from_slice(&[10.0, 12.0, 8.0, 10.0]).unwrap();
        let expected = s.std_dev() / s.mean;
        assert!((s.coefficient_of_variation() - expected).abs() < 1e-15);
    }

    #[test]
    fn cv_zero_mean_constant_sample() {
        let s = Summary::from_slice(&[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn cv_zero_mean_varying_sample_is_infinite() {
        let s = Summary::from_slice(&[-1.0, 1.0]).unwrap();
        assert!(s.coefficient_of_variation().is_infinite());
    }

    #[test]
    fn median_even_and_odd() {
        assert!((median(&[3.0, 1.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_where_counts_predicate() {
        let f = fraction_where(&[0.9, 1.1, 0.8, 1.0], |v| v < 1.0).unwrap();
        assert!((f - 0.5).abs() < 1e-12);
        assert!(fraction_where(&[], |_| true).is_err());
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let small = Summary::from_slice(&[1.0, 2.0, 3.0]).unwrap();
        let big_data: Vec<f64> = (0..300).map(|i| (i % 3) as f64 + 1.0).collect();
        let big = Summary::from_slice(&big_data).unwrap();
        assert!(big.std_error() < small.std_error());
    }
}
