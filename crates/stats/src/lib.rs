//! # vcabench-stats
//!
//! Measurement statistics matching the paper's analysis: summary statistics
//! with 90 % confidence intervals, box-plot five-number summaries, the §4
//! time-to-recovery metric (five-second rolling median vs. nominal bitrate),
//! and the §5 link-share metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod share;
pub mod summary;
pub mod ttr;

pub use share::share;
pub use summary::{ci90, mean, median, percentile, std_dev, ConfidenceInterval};
pub use ttr::{rolling_median, time_to_recovery, Ttr};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Median is always within [min, max] and percentiles are monotone.
        #[test]
        fn percentiles_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let p10 = percentile(&xs, 10.0);
            let p50 = percentile(&xs, 50.0);
            let p90 = percentile(&xs, 90.0);
            prop_assert!(p10 <= p50 && p50 <= p90);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p50 >= min && p50 <= max);
        }

        /// The 90% CI's upper bound never falls below the mean, and its
        /// half-width is the normal approximation's.
        #[test]
        fn ci_contains_mean(xs in proptest::collection::vec(-1e3f64..1e3, 2..100)) {
            let ci = ci90(&xs);
            prop_assert!(ci.mean <= ci.hi + 1e-9);
            let half = 1.645 * std_dev(&xs) / (xs.len() as f64).sqrt();
            prop_assert!(((ci.hi - ci.mean) - half).abs() < 1e-9);
        }

        /// Rolling median output is bounded by the window's min/max.
        #[test]
        fn rolling_median_bounded(
            xs in proptest::collection::vec(0f64..100.0, 1..100),
            w in 1usize..20,
        ) {
            let r = rolling_median(&xs, w);
            prop_assert_eq!(r.len(), xs.len());
            for (i, &v) in r.iter().enumerate() {
                let lo = (i + 1).saturating_sub(w);
                let win = &xs[lo..=i];
                let min = win.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = win.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            }
        }

        /// Shares always sum to 1 when traffic exists.
        #[test]
        fn shares_sum_to_one(a in 1e-3f64..1e3, b in 1e-3f64..1e3) {
            let s = share(a, b) + share(b, a);
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
