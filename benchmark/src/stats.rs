//! Order statistics used by every metric: nearest-rank percentiles and the
//! tail-percentile selection rule.

/// Percentiles a tail metric may use, lowest first.
pub const TAIL_CANDIDATES: [u32; 4] = [75, 90, 95, 99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sort ascending with a total order (NaN-safe, deterministic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    ((n * p as usize).div_ceil(100)).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`None` when empty).
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median as the mean of the two middle samples (`None` when empty).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of samples in any order.
pub fn median_of(samples: &[f64]) -> Option<f64> {
    median(&sorted(samples.to_vec()))
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p75 has too few.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 39 samples: p75 sits at rank 30, nine beyond -> nothing qualifies.
        assert_eq!(tail_percentile(39), None);
        // 40 samples: rank 30, ten beyond.
        assert_eq!(tail_percentile(40), Some(75));
        // 99 samples: p90 at rank 90 leaves nine; 100 leaves ten.
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(114), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(0), None);
        for n in 1..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[1.0, 2.0, 10.0]), Some(2.0));
    }
}
