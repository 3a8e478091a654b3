//! Principal component analysis of covariance matrices.
//!
//! The grid-based spatial-correlation model assigns one Gaussian random
//! variable per grid with covariance matrix `C`. PCA decomposes the vector
//! of correlated variables as `p = T·z` with `z ~ N(0, I)` and
//! `T = U·Λ^½` (`C = U·Λ·Uᵀ`), so that block-based SSTA can propagate
//! independent components. The **whitening** direction `z = Λ^{-½}·Uᵀ·p`
//! is what the hierarchical variable-replacement step of the DATE'09 paper
//! needs: it maps correlated grid variables back onto unit-variance
//! components.
//!
//! Note on conventions: the paper writes `p_l = A·x` with `A` the raw
//! eigenvector matrix, so its `x_i` carry variance `λ_i`. We fold `Λ^½`
//! into the transform so components are unit-variance; this keeps canonical
//! form coefficients directly comparable and makes variance computations a
//! plain dot product. The replacement algebra is equivalent (see
//! `ssta-core::hier::replace`).

use crate::eigen::symmetric_eigen;
use crate::{MathError, Matrix};
use serde::Serialize;

/// Options controlling component retention in [`PcaBasis::from_covariance`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PcaOptions {
    /// Keep the smallest set of leading components whose eigenvalue sum
    /// reaches this fraction of the total variance. `1.0` keeps everything.
    pub variance_fraction: f64,
    /// Drop components whose eigenvalue falls below this absolute floor.
    /// Protects against numerically negative eigenvalues of
    /// nearly-singular covariance matrices.
    pub min_eigenvalue: f64,
}

impl Default for PcaOptions {
    /// Keeps all components above the numerical noise floor.
    fn default() -> Self {
        PcaOptions {
            variance_fraction: 1.0,
            min_eigenvalue: 1e-10,
        }
    }
}

/// A PCA basis for a covariance matrix `C ≈ T·Tᵀ`.
///
/// * `transform` (`n × k`): `correlated = T · z`, `z ~ N(0, I_k)`;
/// * `whiten` (`k × n`): `z = W · correlated`, the pseudo-inverse
///   `Λ^{-½}·Uᵀ` restricted to the kept components.
#[derive(Debug, Clone, Serialize)]
pub struct PcaBasis {
    transform: Matrix,
    whiten: Matrix,
    eigenvalues: Vec<f64>,
    total_variance: f64,
}

impl PcaBasis {
    /// Decomposes a symmetric positive-semidefinite covariance matrix.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver errors ([`MathError::NotSymmetric`],
    /// [`MathError::EigenNoConvergence`]) and returns
    /// [`MathError::EmptyInput`] if no component survives the retention
    /// policy (e.g. an all-zero covariance).
    ///
    /// # Example
    ///
    /// ```
    /// use ssta_math::{Matrix, PcaBasis, PcaOptions};
    ///
    /// # fn main() -> Result<(), ssta_math::MathError> {
    /// let c = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
    /// let pca = PcaBasis::from_covariance(&c, PcaOptions::default())?;
    /// assert_eq!(pca.n_components(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_covariance(cov: &Matrix, options: PcaOptions) -> Result<Self, MathError> {
        let eig = symmetric_eigen(cov)?;
        let n = cov.rows();
        let total: f64 = eig.eigenvalues.iter().map(|&l| l.max(0.0)).sum();

        // Select leading components.
        let mut kept = Vec::new();
        let mut acc = 0.0;
        for (idx, &lam) in eig.eigenvalues.iter().enumerate() {
            if lam < options.min_eigenvalue {
                break; // eigenvalues are sorted descending
            }
            kept.push(idx);
            acc += lam;
            if total > 0.0 && acc / total >= options.variance_fraction {
                break;
            }
        }
        if kept.is_empty() {
            return Err(MathError::EmptyInput {
                context: "PcaBasis::from_covariance (no components retained)",
            });
        }

        let k = kept.len();
        let mut transform = Matrix::zeros(n, k);
        let mut whiten = Matrix::zeros(k, n);
        let mut eigenvalues = Vec::with_capacity(k);
        for (col, &idx) in kept.iter().enumerate() {
            let lam = eig.eigenvalues[idx];
            eigenvalues.push(lam);
            let s = lam.sqrt();
            for row in 0..n {
                let u = eig.eigenvectors[(row, idx)];
                transform[(row, col)] = u * s;
                whiten[(col, row)] = u / s;
            }
        }

        Ok(PcaBasis {
            transform,
            whiten,
            eigenvalues,
            total_variance: total,
        })
    }

    /// Reassembles a basis from its stored parts (the inverse of reading
    /// [`transform`](Self::transform)/[`whiten`](Self::whiten)/
    /// [`eigenvalues`](Self::eigenvalues)/
    /// [`total_variance`](Self::total_variance)) — the constructor binary
    /// codecs use to reproduce a decomposed basis bit-exactly without
    /// re-running the eigensolver.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless `transform` is
    /// `n × k`, `whiten` is `k × n` and `eigenvalues` has length `k`,
    /// and [`MathError::EmptyInput`] for an empty basis.
    pub fn from_raw_parts(
        transform: Matrix,
        whiten: Matrix,
        eigenvalues: Vec<f64>,
        total_variance: f64,
    ) -> Result<Self, MathError> {
        let (n, k) = (transform.rows(), transform.cols());
        if k == 0 || n == 0 {
            return Err(MathError::EmptyInput {
                context: "PcaBasis::from_raw_parts (empty basis)",
            });
        }
        if whiten.rows() != k || whiten.cols() != n || eigenvalues.len() != k {
            return Err(MathError::DimensionMismatch {
                context: "PcaBasis::from_raw_parts",
                expected: (k, n),
                found: (whiten.rows(), whiten.cols()),
            });
        }
        Ok(PcaBasis {
            transform,
            whiten,
            eigenvalues,
            total_variance,
        })
    }

    /// The `n × k` transform `T` with `correlated = T·z`.
    pub fn transform(&self) -> &Matrix {
        &self.transform
    }

    /// The total variance (eigenvalue sum before truncation) of the
    /// decomposed covariance matrix.
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// The `k × n` whitening matrix `W = Λ^{-½}·Uᵀ` with `z = W·correlated`.
    pub fn whiten(&self) -> &Matrix {
        &self.whiten
    }

    /// Retained eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Number of retained components `k`.
    pub fn n_components(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Number of original correlated variables `n`.
    pub fn n_variables(&self) -> usize {
        self.transform.rows()
    }

    /// Fraction of the total variance captured by the retained components.
    pub fn captured_variance_fraction(&self) -> f64 {
        if self.total_variance <= 0.0 {
            1.0
        } else {
            self.eigenvalues.iter().sum::<f64>() / self.total_variance
        }
    }

    /// Maps independent components `z` to correlated variables `T·z`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless
    /// `z.len() == n_components()`.
    pub fn correlate(&self, z: &[f64]) -> Result<Vec<f64>, MathError> {
        self.transform.mat_vec(z)
    }

    /// Maps correlated variables to independent components `W·p`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless
    /// `p.len() == n_variables()`.
    pub fn decorrelate(&self, p: &[f64]) -> Result<Vec<f64>, MathError> {
        self.whiten.mat_vec(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_covariance(n_side: usize, decay: f64) -> Matrix {
        let n = n_side * n_side;
        let pt = |k: usize| ((k % n_side) as f64, (k / n_side) as f64);
        Matrix::from_fn(n, n, |i, j| {
            let (xi, yi) = pt(i);
            let (xj, yj) = pt(j);
            let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
            (-d / decay).exp()
        })
    }

    #[test]
    fn full_pca_reconstructs_covariance() {
        let c = grid_covariance(3, 2.0);
        let pca = PcaBasis::from_covariance(&c, PcaOptions::default()).unwrap();
        let back = pca
            .transform()
            .matmul(&pca.transform().transposed())
            .unwrap();
        assert!(back.max_abs_diff(&c).unwrap() < 1e-8);
    }

    #[test]
    fn whiten_is_left_inverse_of_transform() {
        let c = grid_covariance(3, 1.5);
        let pca = PcaBasis::from_covariance(&c, PcaOptions::default()).unwrap();
        let wt = pca.whiten().matmul(pca.transform()).unwrap();
        assert!(
            wt.max_abs_diff(&Matrix::identity(pca.n_components()))
                .unwrap()
                < 1e-8
        );
    }

    #[test]
    fn truncation_reduces_components_but_keeps_variance() {
        let c = grid_covariance(4, 3.0); // strong correlation -> fast decay
        let pca = PcaBasis::from_covariance(
            &c,
            PcaOptions {
                variance_fraction: 0.95,
                min_eigenvalue: 1e-10,
            },
        )
        .unwrap();
        assert!(pca.n_components() < 16);
        assert!(pca.captured_variance_fraction() >= 0.95);
    }

    #[test]
    fn correlate_then_decorrelate_round_trips() {
        let c = grid_covariance(3, 2.0);
        let pca = PcaBasis::from_covariance(&c, PcaOptions::default()).unwrap();
        let z: Vec<f64> = (0..pca.n_components())
            .map(|i| (i as f64) / 3.0 - 1.0)
            .collect();
        let p = pca.correlate(&z).unwrap();
        let z_back = pca.decorrelate(&p).unwrap();
        for (a, b) in z.iter().zip(&z_back) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_covariance_yields_empty_error() {
        let c = Matrix::zeros(3, 3);
        assert!(matches!(
            PcaBasis::from_covariance(&c, PcaOptions::default()),
            Err(MathError::EmptyInput { .. })
        ));
    }

    #[test]
    fn eigenvalues_are_descending() {
        let c = grid_covariance(3, 1.0);
        let pca = PcaBasis::from_covariance(&c, PcaOptions::default()).unwrap();
        for w in pca.eigenvalues().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn diagonal_covariance_has_axis_components() {
        let c = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 1.0]]).unwrap();
        let pca = PcaBasis::from_covariance(&c, PcaOptions::default()).unwrap();
        assert!((pca.eigenvalues()[0] - 4.0).abs() < 1e-12);
        assert!((pca.eigenvalues()[1] - 1.0).abs() < 1e-12);
        // First transform column is (±2, 0).
        assert!((pca.transform()[(0, 0)].abs() - 2.0).abs() < 1e-10);
        assert!(pca.transform()[(1, 0)].abs() < 1e-10);
    }
}
