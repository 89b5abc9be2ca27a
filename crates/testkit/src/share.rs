//! Fairness across flows that share a link, for tests of competing senders
//! (the paper's own competition metric is the link share,
//! `vcabench_stats::share`).

/// Jain's fairness index over per-flow throughputs (1.0 = perfectly fair).
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
    if sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (rates.len() as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jain_extremes() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[1.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    proptest! {
        /// Jain's index is in (0, 1].
        #[test]
        fn jain_in_range(rates in proptest::collection::vec(0f64..1e3, 1..20)) {
            let j = jain_index(&rates);
            prop_assert!(j > 0.0 && j <= 1.0 + 1e-12);
        }
    }
}
