//! Property-based tests for the statistics toolkit.

use hammervolt_stats::ci::{mean_ci, normal_quantile, population_interval};
use hammervolt_stats::descriptive::Summary;
use hammervolt_stats::kde::KernelDensity;
use hammervolt_stats::quantile::{quantile, quantiles};
use proptest::prelude::*;

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    #[test]
    fn summary_bounds_mean(data in finite_vec()) {
        let s = Summary::from_slice(&data).unwrap();
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
        prop_assert_eq!(s.n, data.len());
    }

    #[test]
    fn quantile_is_monotone_in_p(data in finite_vec(), p1 in 0.0..1.0f64, p2 in 0.0..1.0f64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let q_lo = quantile(&data, lo).unwrap();
        let q_hi = quantile(&data, hi).unwrap();
        prop_assert!(q_lo <= q_hi + 1e-9);
    }

    #[test]
    fn quantile_within_data_range(data in finite_vec(), p in 0.0..1.0f64) {
        let s = Summary::from_slice(&data).unwrap();
        let q = quantile(&data, p).unwrap();
        prop_assert!(q >= s.min - 1e-9 && q <= s.max + 1e-9);
    }

    #[test]
    fn quantiles_batch_matches_single(data in finite_vec()) {
        let ps = [0.1, 0.5, 0.9];
        let batch = quantiles(&data, &ps).unwrap();
        for (i, &p) in ps.iter().enumerate() {
            prop_assert_eq!(batch[i], quantile(&data, p).unwrap());
        }
    }

    #[test]
    fn kde_density_nonnegative(data in finite_vec(), x in -1e6..1e6f64) {
        let kde = KernelDensity::fit(&data).unwrap();
        prop_assert!(kde.density(x) >= 0.0);
        prop_assert!(kde.bandwidth() > 0.0);
    }

    #[test]
    fn population_interval_nested(data in prop::collection::vec(-1e3..1e3f64, 10..100)) {
        let narrow = population_interval(&data, 0.5).unwrap();
        let wide = population_interval(&data, 0.95).unwrap();
        prop_assert!(wide.lo <= narrow.lo + 1e-9);
        prop_assert!(narrow.hi <= wide.hi + 1e-9);
    }

    #[test]
    fn mean_ci_contains_sample_mean(data in prop::collection::vec(-1e3..1e3f64, 2..100)) {
        let s = Summary::from_slice(&data).unwrap();
        let ci = mean_ci(&data, 0.99).unwrap();
        prop_assert!(ci.contains(s.mean));
    }

    #[test]
    fn normal_quantile_is_monotone(p1 in 0.001..0.999f64, p2 in 0.001..0.999f64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(normal_quantile(lo).unwrap() <= normal_quantile(hi).unwrap() + 1e-12);
    }
}
