//! Empirical statistics: streaming summaries, histograms, empirical
//! distributions and Kolmogorov–Smirnov distances.
//!
//! These are the tools used to validate analytical SSTA results against
//! Monte Carlo ground truth — every accuracy number in the reproduced
//! Table I and Fig. 7 flows through this module.

use serde::Serialize;

/// Streaming mean/variance/extrema via Welford's algorithm.
///
/// # Example
///
/// ```
/// use ssta_math::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel-friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`0.0` with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// A fixed-range histogram with uniform bins plus underflow/overflow.
///
/// Used to reproduce Fig. 6 (edge-criticality histogram).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n_bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(n_bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation. Values exactly equal to `hi` land in the last
    /// bin (closed upper edge), which keeps criticality 1.0 visible.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x > self.hi {
            self.overflow += 1;
            return;
        }
        let n = self.bins.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64) as usize).min(n - 1);
        self.bins[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The `(low_edge, high_edge)` of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Fraction of in-range observations in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.bins[i] as f64 / total as f64
        }
    }
}

/// An empirical distribution over a sorted sample vector.
///
/// # Example
///
/// ```
/// use ssta_math::EmpiricalDist;
///
/// let d = EmpiricalDist::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
/// assert_eq!(d.cdf(2.5), 0.5);
/// assert_eq!(d.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
    summary: Summary,
}

impl EmpiricalDist {
    /// Builds the distribution, sorting the samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        let summary = samples.iter().copied().collect();
        EmpiricalDist {
            sorted: samples,
            summary,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.summary.std_dev()
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.summary.min()
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.summary.max()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Empirical CDF: fraction of samples `≤ x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile (inverse CDF) for `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile probability {p} out of [0,1]"
        );
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Two-sample Kolmogorov–Smirnov distance `sup |F₁ − F₂|`.
    pub fn ks_distance(&self, other: &EmpiricalDist) -> f64 {
        let mut d: f64 = 0.0;
        for &x in &self.sorted {
            d = d.max((self.cdf(x) - other.cdf(x)).abs());
        }
        for &x in &other.sorted {
            d = d.max((self.cdf(x) - other.cdf(x)).abs());
        }
        d
    }

    /// KS distance against an analytical CDF.
    pub fn ks_against(&self, cdf: impl Fn(f64) -> f64) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = cdf(x);
            d = d.max((f - i as f64 / n).abs());
            d = d.max((f - (i + 1) as f64 / n).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        // Unbiased variance of that classic data set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let full: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..37].iter().copied().collect();
        let right: Summary = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), full.count());
        assert!((left.mean() - full.mean()).abs() < 1e-12);
        assert!((left.variance() - full.variance()).abs() < 1e-10);
    }

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s2 = Summary::new();
        s2.merge(&s);
        assert_eq!(s2.count(), 0);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for &x in &[0.1, 0.3, 0.3, 0.6, 0.99, 1.0, -0.5, 1.5] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[1, 2, 1, 2]); // 1.0 lands in the last bin
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 6);
        assert_eq!(h.bin_edges(1), (0.25, 0.5));
        assert!((h.fraction(1) - 2.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn empirical_cdf_and_quantile() {
        let d = EmpiricalDist::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.cdf(5.0), 0.0);
        assert_eq!(d.cdf(10.0), 0.25);
        assert_eq!(d.cdf(25.0), 0.5);
        assert_eq!(d.cdf(100.0), 1.0);
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(0.25), 10.0);
        assert_eq!(d.quantile(0.26), 20.0);
        assert_eq!(d.quantile(1.0), 40.0);
    }

    #[test]
    fn ks_distance_of_identical_is_zero() {
        let a = EmpiricalDist::from_samples(vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_of_disjoint_is_one() {
        let a = EmpiricalDist::from_samples(vec![1.0, 2.0]);
        let b = EmpiricalDist::from_samples(vec![10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
    }

    #[test]
    fn ks_against_own_gaussian_is_small() {
        // Deterministic quasi-sample: inverse-cdf of a uniform lattice.
        let n = 2000;
        let samples: Vec<f64> = (0..n)
            .map(|i| crate::normal_quantile((i as f64 + 0.5) / n as f64))
            .collect();
        let d = EmpiricalDist::from_samples(samples);
        let ks = d.ks_against(crate::normal_cdf);
        assert!(ks < 1.0 / n as f64 + 1e-9, "ks = {ks}");
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empirical_rejects_empty() {
        let _ = EmpiricalDist::from_samples(vec![]);
    }
}
