//! Labeled x/y series with optional confidence bands.
//!
//! A [`Series`] is the data backing one curve in one of the paper's figures —
//! e.g. one module's normalized BER across `V_PP` levels in Fig. 3, together
//! with the 90 % confidence band shaded around it.

use crate::ci::ConfidenceInterval;
use crate::error::StatsError;
use serde::{Deserialize, Serialize};

/// One point of a series: an x position, a central y value, and an optional
/// confidence band around y.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Independent variable (e.g. `V_PP` in volts).
    pub x: f64,
    /// Central value (e.g. mean normalized BER).
    pub y: f64,
    /// Optional confidence band around `y`.
    pub band: Option<ConfidenceInterval>,
}

/// A labeled sequence of [`Point`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Display label (e.g. the module name `"B3"`).
    pub label: String,
    /// Points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Creates a series from parallel `x`/`y` slices without bands.
    ///
    /// # Errors
    ///
    /// Fails if the slices differ in length.
    pub fn from_xy(label: impl Into<String>, xs: &[f64], ys: &[f64]) -> Result<Self, StatsError> {
        if xs.len() != ys.len() {
            return Err(StatsError::InvalidParameter {
                reason: format!("length mismatch: {} xs vs {} ys", xs.len(), ys.len()),
            });
        }
        Ok(Series {
            label: label.into(),
            points: xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| Point { x, y, band: None })
                .collect(),
        })
    }

    /// Appends a point without a band.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y, band: None });
    }

    /// Appends a point with a confidence band.
    pub fn push_with_band(&mut self, x: f64, y: f64, band: ConfidenceInterval) {
        self.points.push(Point {
            x,
            y,
            band: Some(band),
        });
    }

    /// X values in order.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }

    /// Y values in order.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.y).collect()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Minimum and maximum y value, including band extents when present.
    ///
    /// Returns `None` for an empty series.
    pub fn y_extent(&self) -> Option<(f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in &self.points {
            lo = lo.min(p.y);
            hi = hi.max(p.y);
            if let Some(b) = p.band {
                lo = lo.min(b.lo);
                hi = hi.max(b.hi);
            }
        }
        Some((lo, hi))
    }

    /// Minimum and maximum x value. Returns `None` for an empty series.
    pub fn x_extent(&self) -> Option<(f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in &self.points {
            lo = lo.min(p.x);
            hi = hi.max(p.x);
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_xy_builds_points() {
        let s = Series::from_xy("m", &[1.0, 2.0], &[10.0, 20.0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.xs(), vec![1.0, 2.0]);
        assert_eq!(s.ys(), vec![10.0, 20.0]);
        assert!(Series::from_xy("m", &[1.0], &[]).is_err());
    }

    #[test]
    fn extents_include_bands() {
        let mut s = Series::new("m");
        s.push(1.0, 5.0);
        s.push_with_band(
            2.0,
            6.0,
            ConfidenceInterval {
                lo: 4.0,
                hi: 9.0,
                level: 0.9,
            },
        );
        assert_eq!(s.y_extent(), Some((4.0, 9.0)));
        assert_eq!(s.x_extent(), Some((1.0, 2.0)));
    }

    #[test]
    fn empty_series_extents_none() {
        let s = Series::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.y_extent(), None);
        assert_eq!(s.x_extent(), None);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = Series::new("B3");
        s.push_with_band(
            2.5,
            1.0,
            ConfidenceInterval {
                lo: 0.9,
                hi: 1.1,
                level: 0.9,
            },
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: Series = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
