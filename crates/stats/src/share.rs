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
}
