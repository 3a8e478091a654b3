//! Symmetric eigendecomposition.
//!
//! [`symmetric_eigen`] runs Householder tridiagonalization followed by
//! the implicit-shift QL iteration. The solver is loop-order
//! deterministic: the same input always yields the bit-identical
//! decomposition.

use crate::{MathError, Matrix};

/// The result of a symmetric eigendecomposition `A = V·diag(λ)·Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, sorted in descending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as matrix *columns*, in the same order as
    /// [`eigenvalues`](Self::eigenvalues).
    pub eigenvectors: Matrix,
}

/// Computes all eigenvalues and eigenvectors of a symmetric matrix via
/// Householder tridiagonalization and implicit-shift QL.
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] for non-square input.
/// * [`MathError::NotSymmetric`] if `a` deviates from symmetry by more than
///   `1e-8` relative to its largest diagonal entry.
/// * [`MathError::EigenNoConvergence`] if an eigenvalue exhausts the
///   iteration budget (practically unreachable for symmetric input).
///
/// # Example
///
/// ```
/// use ssta_math::{eigen, Matrix};
///
/// # fn main() -> Result<(), ssta_math::MathError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let decomp = eigen::symmetric_eigen(&a)?;
/// assert!((decomp.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((decomp.eigenvalues[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen, MathError> {
    crate::tridiag::symmetric_eigen_ql(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two_known_eigenvalues() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 8;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = symmetric_eigen(&a).unwrap();
        let vtv = e.eigenvectors.transposed().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(n)).unwrap() < 1e-10);
    }

    #[test]
    fn positive_semidefinite_covariance_has_nonnegative_spectrum() {
        // Exponential-decay correlation on a 4x4 grid of points (16 vars).
        let pts: Vec<(f64, f64)> = (0..16).map(|k| ((k % 4) as f64, (k / 4) as f64)).collect();
        let a = Matrix::from_fn(16, 16, |i, j| {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            (-(dx * dx + dy * dy).sqrt() / 3.0).exp()
        });
        let e = symmetric_eigen(&a).unwrap();
        for &lam in &e.eigenvalues {
            assert!(lam > -1e-10, "negative eigenvalue {lam}");
        }
    }

    #[test]
    fn rejects_asymmetric_input() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&a),
            Err(MathError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_rows(&[&[7.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![7.0]);
        assert_eq!(e.eigenvectors[(0, 0)].abs(), 1.0);
    }
}
