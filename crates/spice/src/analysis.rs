//! Trace measurements: threshold crossings and settling times.
//!
//! These are the "`.meas`" equivalents used to extract `t_RCDmin` (time for
//! the bitline to cross the read threshold, Fig. 8) and `t_RASmin` (time for
//! the cell to complete charge restoration, Fig. 9) from transient traces.
//! A threshold crossing ([`Crossing`]) is found in a recorded trace or
//! sample by sample, without keeping the trace: one rule serves both.

/// The first crossing of a threshold by a trace, linearly interpolated
/// between samples: fed one sample at a time ([`Crossing::push`]), so no
/// trace need be kept, or run over a recorded trace ([`Crossing::first_in`]).
/// A first sample already past the threshold is the crossing (the condition
/// holds from the start). A falling crossing is the rising crossing of the
/// negated trace past the negated threshold.
#[derive(Debug, Clone, Copy)]
pub struct Crossing {
    falling: bool,
    /// The threshold, negated for a falling crossing.
    threshold: f64,
    last: Option<(f64, f64)>,
    at: Option<f64>,
}

impl Crossing {
    /// Watches for the first rise to at-or-above `threshold`.
    pub fn rising(threshold: f64) -> Self {
        Crossing {
            falling: false,
            threshold,
            last: None,
            at: None,
        }
    }

    /// Watches for the first fall to at-or-below `threshold`.
    pub fn falling(threshold: f64) -> Self {
        Crossing {
            falling: true,
            threshold: -threshold,
            ..Crossing::rising(threshold)
        }
    }

    /// Feeds the next sample. A first sample already past the threshold is
    /// the crossing; after that, the first sample past it whose predecessor
    /// was short of it, linearly interpolated between the two.
    pub fn push(&mut self, t: f64, v: f64) {
        if self.at.is_some() {
            return;
        }
        let v = if self.falling { -v } else { v };
        self.at = match self.last {
            None if v >= self.threshold => Some(t),
            Some((t0, v0)) if v0 < self.threshold && v >= self.threshold => Some(if v == v0 {
                t
            } else {
                let frac = (self.threshold - v0) / (v - v0);
                t0 + (t - t0) * frac
            }),
            _ => None,
        };
        self.last = Some((t, v));
    }

    /// The crossing time, once a sample has crossed.
    pub fn time(&self) -> Option<f64> {
        self.at
    }

    /// The first crossing in a recorded trace; `None` if there is none, or
    /// if `times`/`trace` lengths mismatch or are empty.
    pub fn first_in(mut self, times: &[f64], trace: &[f64]) -> Option<f64> {
        if times.len() != trace.len() {
            return None;
        }
        for (&t, &v) in times.iter().zip(trace) {
            self.push(t, v);
            if self.at.is_some() {
                break;
            }
        }
        self.at
    }
}

/// Time at which the trace *last enters and stays within* `tolerance` of its
/// final value — the settling time.
///
/// Returns `None` for empty/mismatched inputs.
pub fn settling_time(times: &[f64], trace: &[f64], tolerance: f64) -> Option<f64> {
    if times.len() != trace.len() || times.is_empty() {
        return None;
    }
    let &target = trace.last()?;
    // Walk backwards to the last sample outside the band.
    let mut settle_idx = 0;
    for i in (0..trace.len()).rev() {
        if (trace[i] - target).abs() > tolerance {
            settle_idx = i + 1;
            break;
        }
    }
    times
        .get(settle_idx)
        .copied()
        .or_else(|| times.last().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rising_crossing_interpolates() {
        let times = [0.0, 1.0, 2.0];
        let trace = [0.0, 0.5, 1.0];
        let t = Crossing::rising(0.75).first_in(&times, &trace).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rising_crossing_at_start() {
        let t = Crossing::rising(1.0)
            .first_in(&[0.0, 1.0], &[2.0, 3.0])
            .unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn rising_crossing_none_when_never_crossing() {
        assert_eq!(
            Crossing::rising(0.9).first_in(&[0.0, 1.0], &[0.0, 0.5]),
            None
        );
    }

    #[test]
    fn rising_requires_rise_not_fall() {
        // Trace starts below the threshold and only falls: no rising crossing.
        assert_eq!(
            Crossing::rising(0.7).first_in(&[0.0, 1.0], &[0.5, 0.0]),
            None
        );
        // Already above at t0 counts as satisfied from the start.
        assert_eq!(
            Crossing::rising(0.99).first_in(&[0.0, 1.0], &[1.0, 0.0]),
            Some(0.0)
        );
    }

    #[test]
    fn falling_crossing() {
        let times = [0.0, 1.0, 2.0];
        let trace = [1.0, 0.5, 0.0];
        let t = Crossing::falling(0.25).first_in(&times, &trace).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
        // Starts above the threshold and never falls to it: no crossing.
        assert_eq!(
            Crossing::falling(0.5).first_in(&times, &[1.0, 0.9, 0.8]),
            None
        );
        // Already below at t0 counts as satisfied from the start.
        assert_eq!(
            Crossing::falling(0.5).first_in(&times, &[0.0, 0.1, 0.2]),
            Some(0.0)
        );
    }

    #[test]
    fn crossing_fed_sample_by_sample_matches_the_recorded_trace() {
        // A rise past 0.6 after a NaN (no crossing: NaN is not "below"),
        // then a real crossing; and the same trace falling past 0.2.
        let times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let trace = [0.3, f64::NAN, 0.7, 0.5, 0.9, 0.1];
        for (crossing, expected) in [
            (Crossing::rising(0.6), 3.25),
            (Crossing::falling(0.2), 4.875),
        ] {
            let mut fed = crossing;
            for (&t, &v) in times.iter().zip(&trace) {
                fed.push(t, v);
            }
            let found = crossing.first_in(&times, &trace).unwrap();
            assert_eq!(found.to_bits(), fed.time().unwrap().to_bits());
            assert!((found - expected).abs() < 1e-12, "{found}");
        }
    }

    #[test]
    fn mismatched_inputs_yield_none() {
        assert_eq!(Crossing::rising(0.5).first_in(&[0.0], &[0.0, 1.0]), None);
        assert_eq!(Crossing::rising(0.5).first_in(&[], &[]), None);
        assert_eq!(settling_time(&[0.0], &[], 0.1), None);
    }

    #[test]
    fn settling_time_finds_band_entry() {
        let times = [0.0, 1.0, 2.0, 3.0, 4.0];
        let trace = [0.0, 0.5, 0.9, 0.99, 1.0];
        let t = settling_time(&times, &trace, 0.05).unwrap();
        assert_eq!(t, 3.0); // sample at 2.0 is 0.1 away, first inside is index 3
    }

    #[test]
    fn settling_time_immediate_for_flat_trace() {
        let t = settling_time(&[0.0, 1.0, 2.0], &[1.0, 1.0, 1.0], 0.01).unwrap();
        assert_eq!(t, 0.0);
    }
}
