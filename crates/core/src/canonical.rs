//! The canonical first-order delay form (Section II of the paper).
//!
//! Every delay and arrival time is
//!
//! `D = a₀ + Σ_p a_g,p · x_g,p + Σ_i a_i · x_i + a_r · x_r`
//!
//! where `x_g,p` is the global variation of process parameter `p` (the
//! paper folds all parameters into a single `x_g`; we keep one per
//! parameter, which is strictly more faithful when several parameters vary
//! independently), `x_i` are the unit-variance PCA components of the
//! spatially correlated local variation, and `x_r` is a purely random
//! variable private to this delay. All `x` are independent N(0, 1).
//!
//! * [`CanonicalForm::sum`] is exact: coefficients add, and the two private
//!   random terms collapse into one by variance matching
//!   (`c_r = √(a_r² + b_r²)`), as in the paper.
//! * [`CanonicalForm::maximum`] is Clark's moment matching: mean/variance
//!   from equations (7)–(8), shared coefficients by tightness-probability
//!   blending (`m_i = TP·a_i + (1−TP)·b_i`), and the random coefficient
//!   re-fitted so the total variance matches equation (8).

use crate::CoreError;
use serde::Serialize;
use ssta_math::{clark_max, normal_cdf, normal_quantile};
use ssta_timing::DelayAlgebra;

/// A first-order Gaussian delay form. See the module-level documentation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CanonicalForm {
    nominal: f64,
    globals: Vec<f64>,
    locals: Vec<f64>,
    random: f64,
}

impl CanonicalForm {
    /// A deterministic constant (no variation) with the given variable
    /// space dimensions.
    pub fn constant(nominal: f64, n_globals: usize, n_locals: usize) -> Self {
        CanonicalForm {
            nominal,
            globals: vec![0.0; n_globals],
            locals: vec![0.0; n_locals],
            random: 0.0,
        }
    }

    /// Builds a form from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if `random` is negative or any
    /// coefficient is non-finite.
    pub fn from_parts(
        nominal: f64,
        globals: Vec<f64>,
        locals: Vec<f64>,
        random: f64,
    ) -> Result<Self, CoreError> {
        if random < 0.0 {
            return Err(CoreError::Config {
                reason: format!("random coefficient must be non-negative, got {random}"),
            });
        }
        let all_finite = nominal.is_finite()
            && random.is_finite()
            && globals.iter().all(|c| c.is_finite())
            && locals.iter().all(|c| c.is_finite());
        if !all_finite {
            return Err(CoreError::Config {
                reason: "canonical form coefficients must be finite".into(),
            });
        }
        Ok(CanonicalForm {
            nominal,
            globals,
            locals,
            random,
        })
    }

    /// The mean `a₀`.
    pub fn mean(&self) -> f64 {
        self.nominal
    }

    /// Global coefficients, one per process parameter.
    pub fn globals(&self) -> &[f64] {
        &self.globals
    }

    /// Local (PCA component) coefficients.
    pub fn locals(&self) -> &[f64] {
        &self.locals
    }

    /// The private random coefficient `a_r ≥ 0`.
    pub fn random(&self) -> f64 {
        self.random
    }

    /// The variance `Σ a_g² + Σ a_i² + a_r²` (all variables are N(0, 1)).
    pub fn variance(&self) -> f64 {
        sq_sum(&self.globals) + sq_sum(&self.locals) + self.random * self.random
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Covariance with another form: shared variables only (the private
    /// random parts are independent by definition).
    ///
    /// # Panics
    ///
    /// Panics if the variable-space dimensions differ.
    pub fn covariance(&self, other: &CanonicalForm) -> f64 {
        assert_dims(self, other);
        dot(&self.globals, &other.globals) + dot(&self.locals, &other.locals)
    }

    /// Correlation coefficient with another form; 0 when either is
    /// deterministic.
    pub fn correlation(&self, other: &CanonicalForm) -> f64 {
        let denom = self.std_dev() * other.std_dev();
        if denom <= 0.0 {
            0.0
        } else {
            (self.covariance(other) / denom).clamp(-1.0, 1.0)
        }
    }

    /// `P{D ≤ t}` under the Gaussian model.
    pub fn cdf(&self, t: f64) -> f64 {
        let sd = self.std_dev();
        if sd <= 0.0 {
            return if t >= self.nominal { 1.0 } else { 0.0 };
        }
        normal_cdf((t - self.nominal) / sd)
    }

    /// The delay at a given yield (quantile), e.g. `quantile(0.9973)` for
    /// the 3σ point.
    pub fn quantile(&self, p: f64) -> f64 {
        self.nominal + self.std_dev() * normal_quantile(p)
    }

    /// Evaluates the form for a concrete assignment of the variables.
    ///
    /// `random_value` is the realisation of this form's private variable.
    ///
    /// # Panics
    ///
    /// Panics if the assignment dimensions differ from the form's.
    pub fn evaluate(&self, globals: &[f64], locals: &[f64], random_value: f64) -> f64 {
        assert_eq!(globals.len(), self.globals.len(), "global dim mismatch");
        assert_eq!(locals.len(), self.locals.len(), "local dim mismatch");
        self.nominal
            + dot(&self.globals, globals)
            + dot(&self.locals, locals)
            + self.random * random_value
    }

    /// The exact sum `A + B`.
    ///
    /// # Panics
    ///
    /// Panics if the variable-space dimensions differ.
    pub fn sum(&self, other: &CanonicalForm) -> CanonicalForm {
        assert_dims(self, other);
        CanonicalForm {
            nominal: self.nominal + other.nominal,
            globals: add_vec(&self.globals, &other.globals),
            locals: add_vec(&self.locals, &other.locals),
            random: (self.random * self.random + other.random * other.random).sqrt(),
        }
    }

    /// Clark's moment-matched `max{A, B}` (equations (6)–(9) of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the variable-space dimensions differ.
    pub fn maximum(&self, other: &CanonicalForm) -> CanonicalForm {
        assert_dims(self, other);
        let moments = clark_max(
            self.nominal,
            self.variance(),
            other.nominal,
            other.variance(),
            self.covariance(other),
        );
        let tp = moments.tightness;
        if tp >= 1.0 {
            return self.clone();
        }
        if tp <= 0.0 {
            return other.clone();
        }
        let globals = blend(&self.globals, &other.globals, tp);
        let locals = blend(&self.locals, &other.locals, tp);
        // Re-fit the private random part so the form's total variance
        // matches Clark's variance (equation (8)); clamp at zero when the
        // blended shared part already over-explains it.
        let shared = sq_sum(&globals) + sq_sum(&locals);
        let random = (moments.variance - shared).max(0.0).sqrt();
        CanonicalForm {
            nominal: moments.mean,
            globals,
            locals,
            random,
        }
    }

    /// The moment-matched `min{A, B}` via `−max{−A, −B}`.
    ///
    /// # Panics
    ///
    /// Panics if the variable-space dimensions differ.
    pub fn minimum(&self, other: &CanonicalForm) -> CanonicalForm {
        self.negated().maximum(&other.negated()).negated()
    }

    /// The negated form `−D` (the random coefficient stays non-negative;
    /// `x_r` is symmetric).
    pub fn negated(&self) -> CanonicalForm {
        let mut negated = self.clone();
        negated.negate();
        negated
    }

    /// Negates this form in place, with the bits of
    /// [`negated`](Self::negated).
    pub(crate) fn negate(&mut self) {
        self.parts_mut().negate();
    }

    /// Scales the form by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `k < 0` (use [`negated`](Self::negated) for sign flips).
    pub fn scaled(&self, k: f64) -> CanonicalForm {
        assert!(k >= 0.0, "scale factor must be non-negative");
        CanonicalForm {
            nominal: self.nominal * k,
            globals: self.globals.iter().map(|c| c * k).collect(),
            locals: self.locals.iter().map(|c| c * k).collect(),
            random: self.random * k,
        }
    }

    /// Replaces the local coefficient vector (used by the hierarchical
    /// variable-replacement step); globals and random are preserved.
    pub fn with_locals(&self, locals: Vec<f64>) -> CanonicalForm {
        CanonicalForm {
            nominal: self.nominal,
            globals: self.globals.clone(),
            locals,
            random: self.random,
        }
    }

    /// This form's parts, borrowed: an operand of the fused step.
    pub(crate) fn parts(&self) -> Parts<'_> {
        Parts {
            nominal: self.nominal,
            random: self.random,
            globals: &self.globals,
            locals: &self.locals,
        }
    }

    /// This form's parts, mutably borrowed: an accumulator of the fused
    /// step.
    pub(crate) fn parts_mut(&mut self) -> PartsMut<'_> {
        PartsMut {
            nominal: &mut self.nominal,
            random: &mut self.random,
            globals: &mut self.globals,
            locals: &mut self.locals,
        }
    }

    /// Number of global coefficients.
    pub fn n_globals(&self) -> usize {
        self.globals.len()
    }

    /// Number of local coefficients.
    pub fn n_locals(&self) -> usize {
        self.locals.len()
    }
}

impl DelayAlgebra for CanonicalForm {
    fn sum(&self, other: &Self) -> Self {
        CanonicalForm::sum(self, other)
    }

    fn maximum(&self, other: &Self) -> Self {
        CanonicalForm::maximum(self, other)
    }

    fn nominal(&self) -> f64 {
        self.nominal
    }

    /// The fused step: bit for bit `acc.maximum(&a.sum(d))`, computed in
    /// place by [`max_plus_parts`] without building `a + d`.
    fn max_plus_into(acc: &mut Option<Self>, a: &Self, d: &Self) {
        match acc {
            Some(p) => max_plus_parts(p.parts_mut(), a.parts(), d.parts()),
            None => *acc = Some(a.sum(d)),
        }
    }
}

fn assert_dims(a: &CanonicalForm, b: &CanonicalForm) {
    assert_eq!(
        a.globals.len(),
        b.globals.len(),
        "canonical forms live in different global spaces"
    );
    assert_eq!(
        a.locals.len(),
        b.locals.len(),
        "canonical forms live in different local spaces"
    );
}

fn sq_sum(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn add_vec(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

fn blend(a: &[f64], b: &[f64], tp: f64) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(x, y)| tp * x + (1.0 - tp) * y)
        .collect()
}

/// A form's parts, borrowed: an operand of the fused step. An operand
/// without variation can borrow a block of one signed zero for its
/// coefficients, with a `0.0` random part; the step then runs the
/// arithmetic of a form that stores those zeros.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parts<'a> {
    pub(crate) nominal: f64,
    pub(crate) random: f64,
    pub(crate) globals: &'a [f64],
    pub(crate) locals: &'a [f64],
}

impl Parts<'_> {
    /// An owned form with these parts.
    pub(crate) fn to_form(self) -> CanonicalForm {
        CanonicalForm {
            nominal: self.nominal,
            globals: self.globals.to_vec(),
            locals: self.locals.to_vec(),
            random: self.random,
        }
    }
}

/// A form's parts, mutably borrowed: the accumulator of the fused step.
#[derive(Debug)]
pub(crate) struct PartsMut<'a> {
    pub(crate) nominal: &'a mut f64,
    pub(crate) random: &'a mut f64,
    pub(crate) globals: &'a mut [f64],
    pub(crate) locals: &'a mut [f64],
}

impl PartsMut<'_> {
    /// Negates the mean and every coefficient; the random part stays.
    pub(crate) fn negate(self) {
        *self.nominal = -*self.nominal;
        for c in self.globals.iter_mut().chain(self.locals) {
            *c = -*c;
        }
    }
}

/// `p ← a + d`, the first step into an empty accumulator, with the bits
/// of [`CanonicalForm::sum`].
///
/// # Panics
///
/// Panics if the variable-space dimensions differ.
pub(crate) fn sum_parts(p: PartsMut<'_>, a: Parts<'_>, d: Parts<'_>) {
    assert_part_dims(&p, a, d);
    *p.nominal = a.nominal + d.nominal;
    write_sum(p.globals, a.globals, d.globals);
    write_sum(p.locals, a.locals, d.locals);
    *p.random = (a.random * a.random + d.random * d.random).sqrt();
}

/// `p ← max(p, a + d)` in place, with the bits of
/// `p.maximum(&a.sum(d))` and no allocation: the one fused step that
/// [`CanonicalForm`]'s pull passes and the design analysis's slab share.
///
/// Pass 1 forms `c = a + d` on the fly and accumulates Σp², Σc² and
/// Σp·c per block in index order, exactly as `variance` and
/// `covariance` sum. Clark's tightness then either keeps `p`, writes
/// `c`, or — pass 2 — blends `c` into `p` while summing the blended
/// squares for the random refit.
///
/// # Panics
///
/// Panics if the variable-space dimensions differ.
pub(crate) fn max_plus_parts(p: PartsMut<'_>, a: Parts<'_>, d: Parts<'_>) {
    assert_part_dims(&p, a, d);
    let c_nominal = a.nominal + d.nominal;
    let c_random = (a.random * a.random + d.random * d.random).sqrt();
    let g = fused_moments(p.globals, a.globals, d.globals);
    let l = fused_moments(p.locals, a.locals, d.locals);
    let moments = clark_max(
        *p.nominal,
        g.pp + l.pp + *p.random * *p.random,
        c_nominal,
        g.cc + l.cc + c_random * c_random,
        g.pc + l.pc,
    );
    let tp = moments.tightness;
    if tp >= 1.0 {
        return;
    }
    if tp <= 0.0 {
        *p.nominal = c_nominal;
        write_sum(p.globals, a.globals, d.globals);
        write_sum(p.locals, a.locals, d.locals);
        *p.random = c_random;
        return;
    }
    let shared = blend_into(p.globals, a.globals, d.globals, tp)
        + blend_into(p.locals, a.locals, d.locals, tp);
    *p.nominal = moments.mean;
    *p.random = (moments.variance - shared).max(0.0).sqrt();
}

fn assert_part_dims(p: &PartsMut<'_>, a: Parts<'_>, d: Parts<'_>) {
    let globals = [p.globals.len(), a.globals.len(), d.globals.len()];
    let locals = [p.locals.len(), a.locals.len(), d.locals.len()];
    assert!(
        globals.iter().all(|&n| n == globals[0]),
        "canonical forms live in different global spaces"
    );
    assert!(
        locals.iter().all(|&n| n == locals[0]),
        "canonical forms live in different local spaces"
    );
}

/// The sums pass 1 of the fused step needs over one coefficient block.
struct BlockMoments {
    pp: f64,
    cc: f64,
    pc: f64,
}

/// Σp², Σc² and Σp·c with `c = a + d` formed on the fly. Each sum starts
/// at `-0.0` and runs in index order, as `Iterator::sum` does for `f64`,
/// so the results carry the bits of `sq_sum`/`dot`.
fn fused_moments(p: &[f64], a: &[f64], d: &[f64]) -> BlockMoments {
    let mut m = BlockMoments {
        pp: -0.0,
        cc: -0.0,
        pc: -0.0,
    };
    for ((&x, &y), &z) in p.iter().zip(a).zip(d) {
        let c = y + z;
        m.pp += x * x;
        m.cc += c * c;
        m.pc += x * c;
    }
    m
}

/// Writes `a + d` into `p`.
fn write_sum(p: &mut [f64], a: &[f64], d: &[f64]) {
    for ((x, &y), &z) in p.iter_mut().zip(a).zip(d) {
        *x = y + z;
    }
}

/// Writes `tp·p + (1−tp)·(a + d)` into `p` and returns the blended
/// block's Σm², summed as [`fused_moments`] sums.
fn blend_into(p: &mut [f64], a: &[f64], d: &[f64], tp: f64) -> f64 {
    let mut mm = -0.0;
    for ((x, &y), &z) in p.iter_mut().zip(a).zip(d) {
        let m = tp * *x + (1.0 - tp) * (y + z);
        *x = m;
        mm += m * m;
    }
    mm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn form(nominal: f64, g: &[f64], l: &[f64], r: f64) -> CanonicalForm {
        CanonicalForm::from_parts(nominal, g.to_vec(), l.to_vec(), r).unwrap()
    }

    #[test]
    fn constant_has_zero_variance() {
        let c = CanonicalForm::constant(5.0, 2, 3);
        assert_eq!(c.mean(), 5.0);
        assert_eq!(c.variance(), 0.0);
        assert_eq!(c.cdf(5.0), 1.0);
        assert_eq!(c.cdf(4.999), 0.0);
    }

    #[test]
    fn from_parts_rejects_negative_random() {
        assert!(CanonicalForm::from_parts(1.0, vec![], vec![], -0.1).is_err());
    }

    #[test]
    fn from_parts_rejects_nan() {
        assert!(CanonicalForm::from_parts(f64::NAN, vec![], vec![], 0.0).is_err());
        assert!(CanonicalForm::from_parts(0.0, vec![f64::INFINITY], vec![], 0.0).is_err());
    }

    #[test]
    fn sum_is_exact() {
        let a = form(10.0, &[1.0, 0.0], &[2.0], 3.0);
        let b = form(20.0, &[0.5, 1.0], &[-1.0], 4.0);
        let s = a.sum(&b);
        assert_eq!(s.mean(), 30.0);
        assert_eq!(s.globals(), &[1.5, 1.0]);
        assert_eq!(s.locals(), &[1.0]);
        assert_eq!(s.random(), 5.0); // sqrt(9 + 16)
                                     // Exact: Var(A+B) = Var(A) + Var(B) + 2 Cov(A,B).
        let want = a.variance() + b.variance() + 2.0 * a.covariance(&b);
        assert!((s.variance() - want).abs() < 1e-12);
    }

    #[test]
    fn covariance_uses_shared_variables_only() {
        let a = form(0.0, &[1.0], &[2.0, 0.0], 10.0);
        let b = form(0.0, &[3.0], &[0.5, 1.0], 20.0);
        assert_eq!(a.covariance(&b), 3.0 + 1.0);
    }

    #[test]
    fn maximum_of_identical_forms_is_identity() {
        let a = form(10.0, &[1.0], &[0.5], 0.0);
        let m = a.maximum(&a.clone());
        assert!((m.mean() - a.mean()).abs() < 1e-12);
        assert!((m.variance() - a.variance()).abs() < 1e-12);
    }

    #[test]
    fn maximum_with_dominant_operand_returns_it() {
        let a = form(100.0, &[1.0], &[], 1.0);
        let b = form(0.0, &[1.0], &[], 1.0);
        let m = a.maximum(&b);
        assert_eq!(m, a);
        let m2 = b.maximum(&a);
        assert_eq!(m2, a);
    }

    #[test]
    fn maximum_mean_exceeds_both_operands() {
        let a = form(10.0, &[2.0], &[1.0], 1.0);
        let b = form(10.5, &[1.0], &[2.0], 0.5);
        let m = a.maximum(&b);
        assert!(m.mean() >= a.mean().max(b.mean()) - 1e-12);
    }

    #[test]
    fn maximum_matches_clark_moments() {
        let a = form(10.0, &[2.0], &[1.0], 1.0);
        let b = form(11.0, &[1.0], &[2.0], 2.0);
        let clark = clark_max(
            a.mean(),
            a.variance(),
            b.mean(),
            b.variance(),
            a.covariance(&b),
        );
        let m = a.maximum(&b);
        assert!((m.mean() - clark.mean).abs() < 1e-12);
        // Variance matches unless the clamp kicked in (it doesn't here).
        assert!((m.variance() - clark.variance).abs() < 1e-9);
    }

    #[test]
    fn maximum_against_monte_carlo() {
        use rand::Rng;
        let a = form(10.0, &[1.5], &[1.0], 0.5);
        let b = form(10.8, &[0.5], &[1.8], 1.0);
        let m = a.maximum(&b);

        let mut rng = ssta_math::rng::seeded_rng(42);
        let mut normal = ssta_math::rng::NormalSampler::new();
        let n = 200_000;
        let mut s = ssta_math::Summary::new();
        for _ in 0..n {
            let g = [normal.sample(&mut rng)];
            let l = [normal.sample(&mut rng)];
            let ra: f64 = normal.sample(&mut rng);
            let rb: f64 = normal.sample(&mut rng);
            let va = a.evaluate(&g, &l, ra);
            let vb = b.evaluate(&g, &l, rb);
            s.push(va.max(vb));
            let _ = rng.gen::<f64>(); // decorrelate streams a little
        }
        assert!(
            (m.mean() - s.mean()).abs() < 0.02,
            "mean {} vs MC {}",
            m.mean(),
            s.mean()
        );
        assert!(
            (m.std_dev() - s.std_dev()).abs() < 0.03,
            "std {} vs MC {}",
            m.std_dev(),
            s.std_dev()
        );
    }

    #[test]
    fn minimum_is_dual_of_maximum() {
        let a = form(10.0, &[1.0], &[2.0], 1.0);
        let b = form(12.0, &[2.0], &[1.0], 1.0);
        let mn = a.minimum(&b);
        assert!(mn.mean() <= a.mean().min(b.mean()) + 1e-12);
    }

    #[test]
    fn negation_round_trips() {
        let a = form(10.0, &[1.0, -2.0], &[0.5], 3.0);
        let back = a.negated().negated();
        assert_eq!(a, back);
        assert_eq!(a.negated().mean(), -10.0);
        assert_eq!(a.negated().variance(), a.variance());
    }

    #[test]
    fn scaling_scales_mean_and_std() {
        let a = form(10.0, &[1.0], &[2.0], 2.0);
        let s = a.scaled(2.0);
        assert_eq!(s.mean(), 20.0);
        assert!((s.std_dev() - 2.0 * a.std_dev()).abs() < 1e-12);
    }

    #[test]
    fn quantile_cdf_round_trip() {
        let a = form(100.0, &[5.0], &[3.0], 2.0);
        for p in [0.01, 0.3, 0.5, 0.9, 0.9973] {
            let t = a.quantile(p);
            assert!((a.cdf(t) - p).abs() < 1e-10, "p = {p}");
        }
    }

    #[test]
    fn evaluate_matches_moments_statistically() {
        let a = form(50.0, &[2.0, 1.0], &[3.0], 4.0);
        let mut rng = ssta_math::rng::seeded_rng(7);
        let mut normal = ssta_math::rng::NormalSampler::new();
        let s: ssta_math::Summary = (0..100_000)
            .map(|_| {
                let g = [normal.sample(&mut rng), normal.sample(&mut rng)];
                let l = [normal.sample(&mut rng)];
                a.evaluate(&g, &l, normal.sample(&mut rng))
            })
            .collect();
        assert!((s.mean() - 50.0).abs() < 0.1);
        assert!((s.std_dev() - a.std_dev()).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "different local spaces")]
    fn dimension_mismatch_panics() {
        let a = CanonicalForm::constant(0.0, 1, 2);
        let b = CanonicalForm::constant(0.0, 1, 3);
        let _ = a.sum(&b);
    }

    #[test]
    fn delay_algebra_impl_is_consistent() {
        use ssta_timing::DelayAlgebra as DA;
        let a = form(1.0, &[1.0], &[], 0.0);
        let b = form(2.0, &[0.0], &[], 1.0);
        assert_eq!(DA::sum(&a, &b).mean(), 3.0);
        assert_eq!(DA::nominal(&a), 1.0);
        let m1 = DA::maximum(&a, &b);
        let m2 = CanonicalForm::maximum(&a, &b);
        assert_eq!(m1, m2);
    }

    /// Every coefficient of a form as raw bits, so `-0.0` and `0.0` differ.
    fn bits(f: &CanonicalForm) -> Vec<u64> {
        let mut out = vec![f.nominal.to_bits(), f.random.to_bits()];
        out.extend(f.globals.iter().chain(&f.locals).map(|x| x.to_bits()));
        out
    }

    /// A random coefficient: mostly uniform, sometimes `±0.0`.
    fn coefficient(rng: &mut impl rand::Rng) -> f64 {
        match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        }
    }

    /// A random form; `private` = false pins the random part at 0.
    fn random_form(
        rng: &mut impl rand::Rng,
        (n_g, n_l): (usize, usize),
        nominal: f64,
        private: bool,
    ) -> CanonicalForm {
        if rng.gen_range(0u32..10) == 0 {
            // Zero variance, signed zeros included.
            let z = if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
            return form(nominal, &vec![z; n_g], &vec![z; n_l], 0.0);
        }
        let g: Vec<f64> = (0..n_g).map(|_| coefficient(rng)).collect();
        let l: Vec<f64> = (0..n_l).map(|_| coefficient(rng)).collect();
        let r = if private && rng.gen_bool(0.8) {
            rng.gen_range(0.0..2.0)
        } else {
            0.0
        };
        form(nominal, &g, &l, r)
    }

    #[test]
    fn fused_step_is_bit_identical_to_sum_then_maximum() {
        use rand::Rng;
        use ssta_timing::DelayAlgebra as DA;
        let mut rng = ssta_math::rng::seeded_rng(19);
        // [keep p, take c, blend, degenerate θ] cases seen.
        let mut branches = [0usize; 4];
        for case in 0..4000 {
            let dims = (rng.gen_range(0usize..4), rng.gen_range(0usize..24));
            let (mean_a, mean_d) = (rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
            // The accumulator sits far above, far below or near `a + d`,
            // or is a deterministic `a + d` up to a mean shift (θ = 0).
            let private = case % 4 != 3;
            let a = random_form(&mut rng, dims, mean_a, private);
            let d = random_form(&mut rng, dims, mean_d, private);
            let c = a.sum(&d);
            let shift = rng.gen_range(-1.0..1.0);
            let p = match case % 4 {
                0 => random_form(&mut rng, dims, c.mean() + 1e3, true),
                1 => random_form(&mut rng, dims, c.mean() - 1e3, true),
                2 => random_form(&mut rng, dims, c.mean() + shift, true),
                _ => CanonicalForm {
                    nominal: c.mean() + shift,
                    ..c.clone()
                },
            };
            let moments = clark_max(
                p.mean(),
                p.variance(),
                c.mean(),
                c.variance(),
                p.covariance(&c),
            );
            let theta_sq = p.variance() + c.variance() - 2.0 * p.covariance(&c);
            let degenerate = theta_sq <= 1e-12 * p.variance().max(c.variance()).max(1e-300);
            branches[match moments.tightness {
                _ if degenerate => 3,
                tp if tp >= 1.0 => 0,
                tp if tp <= 0.0 => 1,
                _ => 2,
            }] += 1;

            // Forward orientation, `acc ← max(acc, a + d)`.
            let want = p.maximum(&a.sum(&d));
            let mut acc = Some(p.clone());
            DA::max_plus_into(&mut acc, &a, &d);
            assert_eq!(bits(acc.as_ref().unwrap()), bits(&want), "case {case}");

            // Backward orientation: a pass calls `(required, delay)` for
            // `delay.sum(required)`.
            let want = p.maximum(&d.sum(&a));
            let mut acc = Some(p.clone());
            DA::max_plus_into(&mut acc, &a, &d);
            assert_eq!(bits(acc.as_ref().unwrap()), bits(&want), "case {case}");

            // An empty accumulator takes the plain sum, and so does a
            // stale one written through the kernel.
            let mut acc = None;
            DA::max_plus_into(&mut acc, &a, &d);
            assert_eq!(bits(acc.as_ref().unwrap()), bits(&a.sum(&d)), "case {case}");
            let mut stale = p.clone();
            sum_parts(stale.parts_mut(), a.parts(), d.parts());
            assert_eq!(bits(&stale), bits(&a.sum(&d)), "case {case}");
        }
        assert!(branches.iter().all(|&n| n >= 100), "branches {branches:?}");
    }

    #[test]
    fn correlation_is_bounded() {
        let a = form(0.0, &[1.0], &[1.0], 0.0);
        let b = form(0.0, &[1.0], &[1.0], 0.0);
        assert!((a.correlation(&b) - 1.0).abs() < 1e-12);
        let c = form(0.0, &[1.0], &[-1.0], 0.0);
        assert!(a.correlation(&c).abs() < 1e-12);
        let constant = CanonicalForm::constant(1.0, 1, 1);
        assert_eq!(a.correlation(&constant), 0.0);
    }
}
