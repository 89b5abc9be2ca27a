//! Summary statistics used throughout the paper's plots: medians, means,
//! percentiles and 90 % confidence intervals (the shaded bands of Figs 1–3,
//! 15).

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1 denominator). Returns 0.0 for n < 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Linear-interpolated percentile, `p` in `[0, 100]`. Returns 0.0 for empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in data"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// The percentile a median is.
/// engineering: the definition of a median.
const MEDIAN_PERCENTILE: f64 = 50.0;
/// The standard normal quantile of a two-sided 90 % interval.
/// engineering: the definition of a 90 % confidence interval.
const Z_90: f64 = 1.645;

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, MEDIAN_PERCENTILE)
}

/// Mean with a 90 % confidence interval (normal approximation,
/// z = 1.645), matching the paper's shaded bands across repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (mean).
    pub mean: f64,
    /// Upper bound of the 90 % CI, which is symmetric: its half-width is
    /// `hi - mean`.
    pub hi: f64,
}

/// 90 % confidence interval on the mean of `xs`.
pub fn ci90(xs: &[f64]) -> ConfidenceInterval {
    let m = mean(xs);
    if xs.len() < 2 {
        return ConfidenceInterval { mean: m, hi: m };
    }
    let half = Z_90 * std_dev(xs) / (xs.len() as f64).sqrt();
    ConfidenceInterval {
        mean: m,
        hi: m + half,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138).abs() < 0.01);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_odd_is_exact() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn ci90_contains_mean_and_shrinks_with_n() {
        let few = [1.0, 2.0, 3.0];
        let many: Vec<f64> = (0..300).map(|i| (i % 3) as f64 + 1.0).collect();
        let a = ci90(&few);
        let b = ci90(&many);
        assert!(a.mean <= a.hi);
        assert!((a.mean - 2.0).abs() < 1e-12);
        assert!((b.hi - b.mean) < (a.hi - a.mean), "CI must shrink with n");
    }

    #[test]
    fn ci90_degenerate() {
        let one = ci90(&[7.0]);
        assert_eq!((one.mean, one.hi), (7.0, 7.0));
    }
}
