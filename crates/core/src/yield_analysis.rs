//! Delay-yield utilities.
//!
//! SSTA's selling point (Section I of the paper): instead of one corner
//! number, the analysis yields a delay *distribution*, from which
//! designers read timing yield at a target period or the period needed
//! for a target yield.

use crate::canonical::CanonicalForm;

/// Timing yield at a clock period: `P{delay ≤ period}`.
pub fn timing_yield(delay: &CanonicalForm, period: f64) -> f64 {
    delay.cdf(period)
}

/// The clock period achieving a target yield.
pub fn period_for_yield(delay: &CanonicalForm, yield_target: f64) -> f64 {
    delay.quantile(yield_target)
}

/// The pessimism of a corner STA number relative to a statistical quantile:
/// `corner_delay − quantile(yield_target)`, positive when the corner
/// over-constrains the design.
pub fn corner_pessimism(delay: &CanonicalForm, corner_delay: f64, yield_target: f64) -> f64 {
    corner_delay - period_for_yield(delay, yield_target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn form() -> CanonicalForm {
        CanonicalForm::from_parts(100.0, vec![3.0], vec![4.0], 0.0).unwrap() // σ = 5
    }

    #[test]
    fn yield_at_mean_is_half() {
        assert!((timing_yield(&form(), 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn period_and_yield_are_inverse() {
        let f = form();
        for y in [0.1, 0.5, 0.9, 0.9973] {
            let p = period_for_yield(&f, y);
            assert!((timing_yield(&f, p) - y).abs() < 1e-10);
        }
    }

    #[test]
    fn corner_pessimism_positive_for_conservative_corner() {
        let f = form();
        // A 3-sigma-per-parameter worst corner is far beyond the 99.73%
        // quantile of the distribution when parameters are independent.
        let corner = 100.0 + 3.0 * (3.0 + 4.0); // naive sum of 3σ moves
        assert!(corner_pessimism(&f, corner, 0.9973) > 0.0);
    }
}
