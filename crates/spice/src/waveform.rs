//! Independent-source waveforms.

use serde::{Deserialize, Serialize};

/// Time-dependent value of an independent voltage source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Piecewise-linear: `(time, value)` breakpoints in ascending time order.
    /// Before the first breakpoint the first value holds; after the last, the
    /// last value holds.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// A linear ramp from `v0` at `t0` to `v1` at `t1`, holding outside.
    pub fn ramp(t0: f64, v0: f64, t1: f64, v1: f64) -> Self {
        Waveform::Pwl(vec![(t0, v0), (t1, v1)])
    }

    /// Evaluates the waveform at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t >= t0 && t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        let frac = (t - t0) / (t1 - t0);
                        return v0 + (v1 - v0) * frac;
                    }
                }
                points[points.len() - 1].1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(2.5);
        assert_eq!(w.value(0.0), 2.5);
        assert_eq!(w.value(1e-3), 2.5);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(1.0, 0.0), (2.0, 10.0)]);
        assert_eq!(w.value(0.0), 0.0); // before first point
        assert_eq!(w.value(1.5), 5.0); // interpolated
        assert_eq!(w.value(3.0), 10.0); // after last point
    }

    #[test]
    fn pwl_handles_vertical_segments() {
        let w = Waveform::Pwl(vec![(1.0, 0.0), (1.0, 5.0), (2.0, 5.0)]);
        assert_eq!(w.value(1.0), 0.0); // first matching segment wins at the breakpoint
        assert_eq!(w.value(1.5), 5.0);
    }

    #[test]
    fn empty_pwl_is_zero() {
        assert_eq!(Waveform::Pwl(vec![]).value(1.0), 0.0);
    }

    #[test]
    fn ramp_constructor() {
        let w = Waveform::ramp(0.0, 0.0, 1e-9, 2.5);
        assert_eq!(w.value(0.5e-9), 1.25);
        assert_eq!(w.value(2e-9), 2.5);
    }
}
