//! Symmetric eigendecomposition via Householder tridiagonalization and
//! the implicit-shift QL iteration, the solver behind
//! [`eigen::symmetric_eigen`](crate::eigen::symmetric_eigen).
//!
//! The cyclic Jacobi method performs `O(n³)` work *per sweep* and needs
//! many sweeps on the large, strongly-correlated covariance matrices that
//! a many-instance design produces. The classical two-phase route is much
//! cheaper:
//!
//! 1. **Householder reduction** (`A = Q·T·Qᵀ` with `T` tridiagonal) —
//!    one `O(4/3·n³)` pass, accumulating `Q`;
//! 2. **implicit-shift QL** on the tridiagonal `(d, e)` pair — `O(n)`
//!    rotations per eigenvalue, each updating the eigenvector matrix in
//!    `O(n)`, so `O(n²)` per eigenvalue and `O(n³)` overall with a small
//!    constant.
//!
//! On a 200×200 spatial-correlation matrix this measured 12–20× faster
//! than Jacobi on a 2-vCPU VM while matching its spectrum to working
//! precision (the Jacobi oracle lives in the integration tests' support
//! code). Both
//! phases are loop-order deterministic: the same input always produces
//! the bit-identical decomposition, which the repo's parallel-vs-serial
//! bit-exactness invariants rely on.

use crate::eigen::SymmetricEigen;
use crate::{MathError, Matrix};

/// Maximum implicit-shift QL iterations per eigenvalue. Convergence is
/// cubic; 30 matches the classical reference implementations and is
/// practically unreachable for symmetric input.
const MAX_QL_ITERATIONS: usize = 30;

/// Computes all eigenvalues and eigenvectors of a symmetric matrix via
/// Householder tridiagonalization followed by implicit-shift QL; the
/// error contract is [`eigen::symmetric_eigen`](crate::eigen::symmetric_eigen)'s.
pub(crate) fn symmetric_eigen_ql(a: &Matrix) -> Result<SymmetricEigen, MathError> {
    validate_symmetric(a)?;
    let n = a.rows();
    if n == 0 {
        // An empty matrix has an empty spectrum.
        return Ok(SymmetricEigen {
            eigenvalues: Vec::new(),
            eigenvectors: a.clone(),
        });
    }
    let mut q = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    householder_tridiagonalize(n, q.as_mut_slice(), &mut d, &mut e);
    // QL rotates eigenvector *columns*; work on the transpose so each
    // rotation touches two contiguous rows instead of two strided
    // columns.
    let mut zt = q.transposed();
    tridiagonal_ql(&mut d, &mut e, n, zt.as_mut_slice())?;
    Ok(collect_sorted(&d, zt.transposed()))
}

/// Validates that `a` is square and symmetric (to `1e-8` relative to the
/// largest diagonal entry).
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] for non-square input.
/// * [`MathError::NotSymmetric`] beyond the asymmetry tolerance.
fn validate_symmetric(a: &Matrix) -> Result<(), MathError> {
    let n = a.rows();
    if !a.is_square() {
        return Err(MathError::DimensionMismatch {
            context: "symmetric_eigen",
            expected: (n, n),
            found: (a.rows(), a.cols()),
        });
    }
    let scale = (0..n).map(|i| a[(i, i)].abs()).fold(1.0, f64::max);
    let asym = a.max_asymmetry();
    if asym > 1e-8 * scale {
        return Err(MathError::NotSymmetric {
            max_asymmetry: asym,
        });
    }
    Ok(())
}

/// Sorts by descending eigenvalue and packages the result. `d[i]` is the
/// eigenvalue whose eigenvector is column `i` of `v`.
fn collect_sorted(d: &[f64], v: Matrix) -> SymmetricEigen {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("NaN eigenvalue"));

    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let eigenvectors = Matrix::from_fn(n, n, |r, c| v[(r, order[c])]);
    SymmetricEigen {
        eigenvalues,
        eigenvectors,
    }
}

/// Reduces the symmetric matrix in the flat row-major buffer `a` (`n × n`)
/// to tridiagonal form `(d, e)`, replacing `a` with the accumulated
/// orthogonal transform: on return `Q · tridiag(d, e) · Qᵀ` equals the
/// input. `e[0]` is zero; `e[i]` is the sub-diagonal entry coupling rows
/// `i-1` and `i`.
///
/// Classical `tred2` (Householder with transform accumulation), written
/// for 0-based row-major storage with the inner loops arranged as
/// contiguous row sweeps — the `O(n³)` accumulation pass in particular
/// runs row-major with a scratch vector instead of the textbook
/// column-major form.
fn householder_tridiagonalize(n: usize, a: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = a[i * n..i * n + l + 1].iter().map(|x| x.abs()).sum();
            if scale == 0.0 {
                // Row already reduced; nothing to eliminate.
                e[i] = a[i * n + l];
            } else {
                for x in &mut a[i * n..i * n + l + 1] {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = a[i * n + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                a[i * n + l] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    // Store u/H in column i for the accumulation pass.
                    a[j * n + i] = a[i * n + j] / h;
                    // g = (A·u)_j using the still-symmetric lower part.
                    let mut g_sum = 0.0;
                    for k in 0..=j {
                        g_sum += a[j * n + k] * a[i * n + k];
                    }
                    for k in (j + 1)..=l {
                        g_sum += a[k * n + j] * a[i * n + k];
                    }
                    e[j] = g_sum / h;
                    f_acc += e[j] * a[i * n + j];
                }
                let hh = f_acc / (h + h);
                // Rank-two update A ← A − u·pᵀ − p·uᵀ on the lower
                // triangle; rows j and i split so both sides borrow.
                let (rows, row_i) = a.split_at_mut(i * n);
                for j in 0..=l {
                    let f = row_i[j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    let row_j = &mut rows[j * n..j * n + j + 1];
                    for ((x, &ek), &uik) in row_j.iter_mut().zip(e.iter()).zip(row_i[..=j].iter()) {
                        *x -= f * ek + g * uik;
                    }
                }
            }
        } else {
            e[i] = a[i * n + l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate the transformation Q = H₁·H₂·…·Hₙ₋₂, sweeping rows with
    // a scratch g-vector so no inner loop walks a column.
    let mut g = vec![0.0; n];
    for i in 0..n {
        if d[i] != 0.0 {
            // g = uᵀ/H · A[0..i, 0..i] accumulated row by row.
            g[..i].fill(0.0);
            for k in 0..i {
                let uik = a[i * n + k];
                if uik == 0.0 {
                    continue;
                }
                let row_k = &a[k * n..k * n + i];
                for (gj, &akj) in g[..i].iter_mut().zip(row_k) {
                    *gj += uik * akj;
                }
            }
            // A[k, j] -= g[j]·u[k]/H, one contiguous row at a time.
            for k in 0..i {
                let uk = a[k * n + i];
                if uk == 0.0 {
                    continue;
                }
                let row_k = &mut a[k * n..k * n + i];
                for (akj, &gj) in row_k.iter_mut().zip(&g[..i]) {
                    *akj -= gj * uk;
                }
            }
        }
        d[i] = a[i * n + i];
        a[i * n + i] = 1.0;
        for j in 0..i {
            a[j * n + i] = 0.0;
            a[i * n + j] = 0.0;
        }
    }
}

/// `sqrt(a² + b²)` without destructive underflow or overflow.
fn pythag(a: f64, b: f64) -> f64 {
    let (absa, absb) = (a.abs(), b.abs());
    if absa > absb {
        let r = absb / absa;
        absa * (1.0 + r * r).sqrt()
    } else if absb == 0.0 {
        0.0
    } else {
        let r = absa / absb;
        absb * (1.0 + r * r).sqrt()
    }
}

/// Implicit-shift QL on a tridiagonal matrix `(d, e)` (with `e[0]`
/// unused), rotating the rows of the flat `n × n` buffer `zt` alongside —
/// `zt` holds the eigenvector accumulator *transposed*, so each Givens
/// rotation updates two contiguous rows. Classical `tqli`.
///
/// # Errors
///
/// Returns [`MathError::EigenNoConvergence`] if an eigenvalue exceeds the
/// iteration budget.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64], n: usize, zt: &mut [f64]) -> Result<(), MathError> {
    if n <= 1 {
        return Ok(());
    }
    // Renumber the off-diagonal so e[i] couples d[i] and d[i+1].
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iterations = 0;
        loop {
            // Find the first negligible off-diagonal at or after l; the
            // block [l, m] is then an unreduced tridiagonal submatrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] has converged.
            }
            if iterations == MAX_QL_ITERATIONS {
                return Err(MathError::EigenNoConvergence {
                    off_diagonal_norm: e[l].abs(),
                });
            }
            iterations += 1;

            // Wilkinson-style implicit shift from the leading 2×2.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from a rotation annihilated by underflow.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate eigenvector columns i and i+1 — contiguous rows
                // of the transposed accumulator.
                let (lo, hi) = zt.split_at_mut((i + 1) * n);
                let row_lo = &mut lo[i * n..];
                let row_hi = &mut hi[..n];
                for (x, y) in row_lo.iter_mut().zip(row_hi.iter_mut()) {
                    let f = *y;
                    *y = s * *x + c * f;
                    *x = c * *x - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let n = e.eigenvalues.len();
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.eigenvalues[i];
        }
        e.eigenvectors
            .matmul(&lam)
            .unwrap()
            .matmul(&e.eigenvectors.transposed())
            .unwrap()
    }

    fn exp_decay_covariance(n: usize, scale: f64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64).abs();
            (-d / scale).exp()
        })
    }

    #[test]
    fn zero_by_zero_matrix_has_empty_spectrum() {
        // An empty covariance (no grids) must not fail.
        let e = symmetric_eigen_ql(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
        assert_eq!(e.eigenvectors.rows(), 0);
    }

    #[test]
    fn reconstruction_and_orthonormality_on_covariance() {
        let a = exp_decay_covariance(40, 4.0);
        let e = symmetric_eigen_ql(&a).unwrap();
        assert!(reconstruct(&e).max_abs_diff(&a).unwrap() < 1e-9);
        let vtv = e.eigenvectors.transposed().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(40)).unwrap() < 1e-10);
    }

    #[test]
    fn handles_degenerate_spectra() {
        // Identity has a fully degenerate spectrum.
        let e = symmetric_eigen_ql(&Matrix::identity(10)).unwrap();
        for &lam in &e.eigenvalues {
            assert!((lam - 1.0).abs() < 1e-12);
        }
        let vtv = e.eigenvectors.transposed().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(10)).unwrap() < 1e-12);
    }

    #[test]
    fn is_bit_deterministic() {
        let a = exp_decay_covariance(30, 3.0);
        let e1 = symmetric_eigen_ql(&a).unwrap();
        let e2 = symmetric_eigen_ql(&a).unwrap();
        assert_eq!(e1.eigenvalues, e2.eigenvalues);
        assert_eq!(e1.eigenvectors, e2.eigenvectors);
    }
}
