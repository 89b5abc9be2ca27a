//! Link-share metrics for the competition experiments (§5).
//!
//! With two applications on one bottleneck the paper uses the proportion of
//! the link used by each as the fairness metric, calling an application
//! "aggressive" if it takes more than half under competition.

/// `a`'s share of what `a` and `b` carried together, `a / (a + b)`; 0 when
/// both are idle.
pub fn share(a: f64, b: f64) -> f64 {
    if a + b == 0.0 {
        0.0
    } else {
        a / (a + b)
    }
}

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

    #[test]
    fn share_basics() {
        assert_eq!(share(0.75, 0.25), 0.75);
        assert_eq!(share(0.0, 0.0), 0.0);
        assert_eq!(share(10.0, 0.0), 1.0);
        assert_eq!(share(0.0, 10.0), 0.0);
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[1.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }
}
