//! Histogram binning (uniform and logarithmic).
//!
//! The figure harnesses use histograms both directly (Fig. 11's
//! rows-by-erroneous-word-count bars) and as a cross-check on the kernel
//! density estimates of the population-density figures.

use crate::error::{ensure_nonempty_finite, StatsError};
use serde::{Deserialize, Serialize};

/// A histogram over a fixed, contiguous set of bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram of `data` with `bins` uniform bins spanning
    /// `[min, max]` of the data.
    ///
    /// Values equal to the upper edge are counted in the last bin. If all
    /// values are identical, a single degenerate bin of width 1 centred on the
    /// value is used.
    ///
    /// # Errors
    ///
    /// Fails if `data` is empty/non-finite or `bins == 0`.
    pub fn uniform(data: &[f64], bins: usize) -> Result<Self, StatsError> {
        ensure_nonempty_finite(data)?;
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                reason: "bin count must be at least 1".to_string(),
            });
        }
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if min == max {
            (min - 0.5, max + 0.5)
        } else {
            (min, max)
        };
        Self::with_range(data, bins, lo, hi)
    }

    /// Builds a histogram with `bins` uniform bins spanning `[lo, hi]`.
    ///
    /// Out-of-range values are clamped into the first/last bin so that every
    /// observation is counted (the figure harnesses must not silently drop
    /// rows).
    ///
    /// # Errors
    ///
    /// Fails if `data` is empty/non-finite, `bins == 0`, or `lo >= hi`.
    pub fn with_range(data: &[f64], bins: usize, lo: f64, hi: f64) -> Result<Self, StatsError> {
        ensure_nonempty_finite(data)?;
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                reason: "bin count must be at least 1".to_string(),
            });
        }
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
            return Err(StatsError::InvalidParameter {
                reason: format!("range [{lo}, {hi}] is empty"),
            });
        }
        let width = (hi - lo) / bins as f64;
        let edges: Vec<f64> = (0..=bins).map(|i| lo + width * i as f64).collect();
        let mut counts = vec![0u64; bins];
        for &v in data {
            let idx = (((v - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        let total = data.len() as u64;
        Ok(Histogram {
            edges,
            counts,
            total,
        })
    }

    /// Bin edges, one more than there are bins.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Counts occurrences of integer-valued observations, returning
/// `(value, count)` pairs in ascending order of value.
///
/// This is the exact form of Fig. 11: "number of 64-bit data words with one
/// bit flip in a DRAM row" on the x-axis against row counts.
pub fn integer_counts(values: &[u64]) -> Vec<(u64, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for &v in values {
        *map.entry(v).or_insert(0u64) += 1;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bins_cover_all_data() {
        let data = [0.0, 1.0, 2.0, 3.0, 4.0];
        let h = Histogram::uniform(&data, 4).unwrap();
        assert_eq!(h.counts().len(), 4);
        assert_eq!(h.edges().len(), 5);
        assert_eq!(h.counts().iter().sum::<u64>(), 5);
        // max value lands in the last bin
        assert_eq!(h.counts()[3], 2); // 3.0 and 4.0
    }

    #[test]
    fn degenerate_constant_data() {
        let h = Histogram::uniform(&[2.0, 2.0, 2.0], 3).unwrap();
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn out_of_range_values_clamped() {
        // -10 clamps into the first bin, 10 into the last; 0.5 sits exactly on
        // the shared edge and belongs to the upper bin per [lo, hi) convention.
        let h = Histogram::with_range(&[-10.0, 0.5, 10.0], 2, 0.0, 1.0).unwrap();
        assert_eq!(h.counts(), &[1, 2]);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Histogram::uniform(&[], 4).is_err());
        assert!(Histogram::uniform(&[1.0], 0).is_err());
        assert!(Histogram::with_range(&[1.0], 2, 3.0, 3.0).is_err());
    }

    #[test]
    fn integer_counts_orders_and_counts() {
        let counts = integer_counts(&[4, 1, 4, 116, 1, 1]);
        assert_eq!(counts, vec![(1, 3), (4, 2), (116, 1)]);
        assert!(integer_counts(&[]).is_empty());
    }
}
