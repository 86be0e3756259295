//! Error type for statistical computations.

use std::fmt;

/// Errors produced by statistical computations in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input slice was empty but the computation requires at least one
    /// observation.
    EmptyInput,
    /// The input contained a non-finite value (NaN or ±∞).
    NonFinite {
        /// Index of the first offending element.
        index: usize,
    },
    /// A probability/quantile argument was outside `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A bin count, bandwidth, or other structural parameter was invalid.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input is empty"),
            StatsError::NonFinite { index } => {
                write!(f, "input contains a non-finite value at index {index}")
            }
            StatsError::InvalidProbability { value } => {
                write!(f, "probability {value} is outside [0, 1]")
            }
            StatsError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Validates that every element of `data` is finite.
///
/// Returns the first offending index wrapped in [`StatsError::NonFinite`].
pub(crate) fn ensure_finite(data: &[f64]) -> Result<(), StatsError> {
    match data.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(StatsError::NonFinite { index }),
        None => Ok(()),
    }
}

/// Validates that `data` is non-empty and all-finite.
pub(crate) fn ensure_nonempty_finite(data: &[f64]) -> Result<(), StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    ensure_finite(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(StatsError::EmptyInput.to_string(), "input is empty");
        assert!(StatsError::NonFinite { index: 3 }
            .to_string()
            .contains("index 3"));
        assert!(StatsError::InvalidProbability { value: 1.5 }
            .to_string()
            .contains("1.5"));
    }

    #[test]
    fn ensure_finite_finds_first_nan() {
        let data = [1.0, f64::NAN, f64::NAN];
        assert_eq!(
            ensure_finite(&data),
            Err(StatsError::NonFinite { index: 1 })
        );
        assert_eq!(ensure_finite(&[1.0, 2.0]), Ok(()));
    }

    #[test]
    fn ensure_nonempty_finite_rejects_empty() {
        assert_eq!(ensure_nonempty_finite(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn error_implements_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(StatsError::EmptyInput);
        assert!(err.to_string().contains("empty"));
    }
}
