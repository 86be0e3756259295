//! Statistics toolkit for the hammervolt characterization study.
//!
//! This crate implements the statistical machinery that the DSN 2022 paper
//! *"Understanding RowHammer Under Reduced Wordline Voltage"* uses to present
//! its results:
//!
//! - [`descriptive`] — summary statistics, including the *coefficient of
//!   variation* used in the paper's §4.6 significance analysis,
//! - [`quantile`] — percentiles/quantiles with linear interpolation,
//! - [`histogram`] — counts of integer-valued observations (Fig. 11),
//! - [`kde`] — Gaussian kernel density estimation for the population-density
//!   distributions of Figs. 4, 6, 8b, 9b, and 10b,
//! - [`ci`] — normal-approximation confidence intervals for the mean and
//!   the central-mass population interval behind the 90 % CI bands of
//!   Figs. 3, 5, and 10a,
//! - [`order`] — NaN-safe total-order comparators for float sorts,
//! - [`series`] — labeled x/y series with optional confidence bands,
//! - [`table`] — ASCII table rendering for the table-regeneration harnesses,
//! - [`plot`] — ASCII line/density plots for the figure-regeneration harnesses.
//!
//! Everything in this crate is deterministic: no estimator draws random
//! numbers, so repeated study runs produce identical reports.
//!
//! # Example
//!
//! ```
//! use hammervolt_stats::descriptive::Summary;
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
//! assert_eq!(s.mean, 2.5);
//! assert!(s.coefficient_of_variation() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod descriptive;
pub mod error;
pub mod histogram;
pub mod kde;
pub mod order;
pub mod plot;
pub mod quantile;
pub mod series;
pub mod table;

pub use ci::ConfidenceInterval;
pub use descriptive::Summary;
pub use error::StatsError;
pub use kde::KernelDensity;
pub use series::Series;
pub use table::AsciiTable;
