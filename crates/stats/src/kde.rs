//! Gaussian kernel density estimation.
//!
//! Figs. 4, 6, 8b, 9b, and 10b of the paper are "population density
//! distribution" plots; [`KernelDensity`] reproduces them with a Gaussian
//! kernel and Silverman's rule-of-thumb bandwidth.

use crate::descriptive::Summary;
use crate::error::{ensure_nonempty_finite, StatsError};
use crate::quantile;

/// A Gaussian kernel density estimator over a fixed sample.
#[derive(Debug, Clone)]
pub struct KernelDensity {
    sample: Vec<f64>,
    bandwidth: f64,
}

impl KernelDensity {
    /// Fits a KDE to `data` using Silverman's rule-of-thumb bandwidth:
    /// `0.9 · min(σ, IQR/1.34) · n^(−1/5)`.
    ///
    /// For degenerate samples (zero spread), a small positive bandwidth
    /// proportional to the magnitude of the data is substituted so evaluation
    /// remains well-defined.
    ///
    /// # Errors
    ///
    /// Fails on empty or non-finite input.
    pub fn fit(data: &[f64]) -> Result<Self, StatsError> {
        ensure_nonempty_finite(data)?;
        let s = Summary::from_slice(data)?;
        let iqr = quantile::quantile(data, 0.75)? - quantile::quantile(data, 0.25)?;
        let spread = if iqr > 0.0 {
            s.std_dev().min(iqr / 1.34)
        } else {
            s.std_dev()
        };
        let n = data.len() as f64;
        let mut bandwidth = 0.9 * spread * n.powf(-0.2);
        if bandwidth <= 0.0 {
            bandwidth = (s.mean.abs() * 1e-3).max(1e-9);
        }
        Ok(KernelDensity {
            sample: data.to_vec(),
            bandwidth,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of observations in the fitted sample.
    pub fn len(&self) -> usize {
        self.sample.len()
    }

    /// Whether the fitted sample is empty (never true for a constructed KDE).
    pub fn is_empty(&self) -> bool {
        self.sample.is_empty()
    }

    /// Evaluates the estimated density at `x`.
    pub fn density(&self, x: f64) -> f64 {
        const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
        let h = self.bandwidth;
        let sum: f64 = self
            .sample
            .iter()
            .map(|&xi| {
                let u = (x - xi) / h;
                (-0.5 * u * u).exp()
            })
            .sum();
        sum * INV_SQRT_2PI / (self.sample.len() as f64 * h)
    }

    /// Evaluates the density on a uniform grid of `points` values spanning
    /// `[lo, hi]`, returning `(x, density)` pairs.
    ///
    /// # Errors
    ///
    /// Fails if `points < 2` or `lo >= hi`.
    pub fn grid(&self, lo: f64, hi: f64, points: usize) -> Result<Vec<(f64, f64)>, StatsError> {
        if points < 2 {
            return Err(StatsError::InvalidParameter {
                reason: "grid needs at least 2 points".to_string(),
            });
        }
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return Err(StatsError::InvalidParameter {
                reason: format!("grid range [{lo}, {hi}] is empty"),
            });
        }
        let step = (hi - lo) / (points - 1) as f64;
        Ok((0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.density(x))
            })
            .collect())
    }

    /// Evaluates the density on a grid spanning the sample range padded by
    /// three bandwidths on each side — a sensible default view of the whole
    /// distribution.
    ///
    /// # Errors
    ///
    /// Fails if `points < 2`.
    pub fn auto_grid(&self, points: usize) -> Result<Vec<(f64, f64)>, StatsError> {
        let min = self.sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = self
            .sample
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let pad = 3.0 * self.bandwidth;
        self.grid(min - pad, max + pad, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_peaks_near_data_mass() {
        let data = [0.0, 0.1, -0.1, 0.05, -0.05];
        let kde = KernelDensity::fit(&data).unwrap();
        assert!(kde.density(0.0) > kde.density(2.0));
    }

    #[test]
    fn density_is_nonnegative_everywhere() {
        let data = [1.0, 5.0, 9.0];
        let kde = KernelDensity::fit(&data).unwrap();
        for i in -20..40 {
            assert!(kde.density(i as f64 * 0.5) >= 0.0);
        }
    }

    #[test]
    fn integrates_to_approximately_one() {
        let data: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
        let kde = KernelDensity::fit(&data).unwrap();
        let grid = kde.auto_grid(2001).unwrap();
        let step = grid[1].0 - grid[0].0;
        let integral: f64 = grid.iter().map(|&(_, d)| d * step).sum();
        assert!((integral - 1.0).abs() < 0.02, "integral = {integral}");
    }

    #[test]
    fn constant_sample_still_evaluates() {
        let kde = KernelDensity::fit(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(kde.len(), 3);
        assert!(!kde.is_empty());
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.density(3.0).is_finite());
        assert!(kde.density(3.0) > kde.density(4.0));
    }

    #[test]
    fn grid_validates_parameters() {
        let kde = KernelDensity::fit(&[1.0, 2.0]).unwrap();
        assert!(kde.grid(0.0, 1.0, 1).is_err());
        assert!(kde.grid(1.0, 1.0, 10).is_err());
        let g = kde.grid(0.0, 3.0, 4).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g[0].0, 0.0);
        assert_eq!(g[3].0, 3.0);
    }
}
