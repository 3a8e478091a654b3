use std::fmt::Debug;

/// The algebra a delay type must provide for longest-path propagation.
///
/// Static timing analysis instantiates this with `f64`; statistical timing
/// analysis instantiates it with the canonical first-order Gaussian form
/// (`ssta_core::CanonicalForm`), where `sum` adds coefficient vectors and
/// `maximum` is Clark's moment-matched approximation. Keeping the graph
/// and propagation code generic guarantees STA and SSTA run *identical*
/// traversals — any accuracy difference is attributable to the delay
/// algebra alone.
pub trait DelayAlgebra: Clone + Debug {
    /// The delay of two arcs in series (path concatenation).
    fn sum(&self, other: &Self) -> Self;

    /// The dominant of two parallel path delays.
    fn maximum(&self, other: &Self) -> Self;

    /// A scalar representative (the nominal/mean value) used for reporting
    /// and tie-breaking; must be finite.
    fn nominal(&self) -> f64;

    /// One pull step of a propagation pass: `acc ← max(acc, a + d)`, or
    /// `a + d` when `acc` is empty. Every pass in this crate reduces
    /// through it, so an implementation may override it with a fused
    /// kernel; an override must give exactly the bits of this default.
    /// Backward passes call it as `(required, delay)`, so `sum` must be
    /// commutative.
    fn max_plus_into(acc: &mut Option<Self>, a: &Self, d: &Self) {
        let cand = a.sum(d);
        *acc = Some(match acc.take() {
            Some(prev) => prev.maximum(&cand),
            None => cand,
        });
    }
}

impl DelayAlgebra for f64 {
    fn sum(&self, other: &Self) -> Self {
        self + other
    }

    fn maximum(&self, other: &Self) -> Self {
        f64::max(*self, *other)
    }

    fn nominal(&self) -> f64 {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_algebra() {
        assert_eq!(2.0.sum(&3.0), 5.0);
        assert_eq!(2.0.maximum(&3.0), 3.0);
        assert_eq!(7.5.nominal(), 7.5);
    }

    #[test]
    fn algebra_is_object_safe_enough_for_generics() {
        fn propagate<D: DelayAlgebra>(a: D, b: D, c: D) -> D {
            a.sum(&b).maximum(&c)
        }
        assert_eq!(propagate(1.0, 2.0, 10.0), 10.0);
        assert_eq!(propagate(5.0, 6.0, 10.0), 11.0);
    }

    #[test]
    fn max_plus_into_seeds_then_folds() {
        let mut acc = None;
        f64::max_plus_into(&mut acc, &1.0, &2.0);
        assert_eq!(acc, Some(3.0));
        f64::max_plus_into(&mut acc, &0.5, &1.0);
        assert_eq!(acc, Some(3.0));
        f64::max_plus_into(&mut acc, &4.0, &1.0);
        assert_eq!(acc, Some(5.0));
    }
}
