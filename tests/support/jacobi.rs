//! The cyclic Jacobi eigensolver: the test oracle the Householder + QL
//! solver behind `ssta_math::eigen::symmetric_eigen` is cross-checked
//! against. It never loses symmetry and its rotations are easy to audit,
//! and it shares no code with the solver under test.
//!
//! Include it with `#[path = "support/jacobi.rs"] mod jacobi;`.

use hier_ssta::math::eigen::SymmetricEigen;
use hier_ssta::math::{MathError, Matrix};

/// Maximum number of Jacobi sweeps before giving up. Convergence is
/// typically reached in 6–12 sweeps even for n in the hundreds.
const MAX_SWEEPS: usize = 64;

/// Computes all eigenvalues and eigenvectors of a symmetric matrix with
/// the cyclic Jacobi method, eigenvalues sorted in descending order.
///
/// # Errors
///
/// Returns [`MathError::EigenNoConvergence`] if the sweep budget is
/// exhausted.
///
/// # Panics
///
/// Panics unless `a` is square and symmetric to `1e-8` relative to its
/// largest diagonal entry.
pub fn symmetric_eigen_jacobi(a: &Matrix) -> Result<SymmetricEigen, MathError> {
    let n = a.rows();
    let scale = (0..n).map(|i| a[(i, i)].abs()).fold(1.0, f64::max);
    assert!(
        a.is_square() && a.max_asymmetry() <= 1e-8 * scale,
        "the Jacobi oracle takes symmetric input"
    );
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * scale.max(f64::MIN_POSITIVE);

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&m);
        if off <= tol * n as f64 {
            return Ok(collect_diagonal(&m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic Jacobi rotation: choose t = tan(θ) so that the
                // rotated (p, q) entry vanishes.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                rotate(&mut m, p, q, c, s);
                rotate_columns(&mut v, p, q, c, s);
            }
        }
    }

    let off = off_diagonal_norm(&m);
    if off <= 1e-9 * scale * n as f64 {
        // Converged well enough for covariance work even if the strict
        // tolerance was not met.
        return Ok(collect_diagonal(&m, v));
    }
    Err(MathError::EigenNoConvergence {
        off_diagonal_norm: off,
    })
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut sum = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += 2.0 * m[(i, j)] * m[(i, j)];
        }
    }
    sum.sqrt()
}

/// Applies the two-sided Jacobi rotation `Jᵀ M J` in place, where `J` is the
/// Givens rotation in the (p, q) plane.
fn rotate(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    let app = m[(p, p)];
    let aqq = m[(q, q)];
    let apq = m[(p, q)];

    m[(p, p)] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    m[(q, q)] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    m[(p, q)] = 0.0;
    m[(q, p)] = 0.0;

    for k in 0..n {
        if k == p || k == q {
            continue;
        }
        let akp = m[(k, p)];
        let akq = m[(k, q)];
        m[(k, p)] = c * akp - s * akq;
        m[(p, k)] = m[(k, p)];
        m[(k, q)] = s * akp + c * akq;
        m[(q, k)] = m[(k, q)];
    }
}

/// Applies the rotation to the eigenvector accumulator columns p and q.
fn rotate_columns(v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = v.rows();
    for k in 0..n {
        let vkp = v[(k, p)];
        let vkq = v[(k, q)];
        v[(k, p)] = c * vkp - s * vkq;
        v[(k, q)] = s * vkp + c * vkq;
    }
}

/// Reads the eigenvalues off a (numerically) diagonalized matrix and
/// sorts them, with their eigenvector columns of `v`, in descending order.
fn collect_diagonal(m: &Matrix, v: Matrix) -> SymmetricEigen {
    let n = m.rows();
    let d: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("NaN eigenvalue"));
    SymmetricEigen {
        eigenvalues: order.iter().map(|&i| d[i]).collect(),
        eigenvectors: Matrix::from_fn(n, n, |r, c| v[(r, order[c])]),
    }
}
