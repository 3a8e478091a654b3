use crate::MathError;
use serde::Serialize;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// SSTA covariance matrices have one row/column per spatial grid — at most a
/// few hundred — so a straightforward dense representation is both simple and
/// fast enough. The API is deliberately small: exactly the operations the
/// timing engine needs.
///
/// # Example
///
/// ```
/// use ssta_math::Matrix;
///
/// # fn main() -> Result<(), ssta_math::MathError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c[(1, 0)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::EmptyInput`] for zero rows and
    /// [`MathError::DimensionMismatch`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MathError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(MathError::EmptyInput {
                context: "Matrix::from_rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(MathError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    expected: (1, cols),
                    found: (i, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MathError> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::from_vec",
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a square matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major storage, mutably. Kernels that sweep the
    /// whole matrix (eigensolvers, transposes) use this to work on flat
    /// slices instead of paying per-entry index checks.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the transposed matrix.
    ///
    /// Copies in square blocks so both the source reads and the
    /// destination writes stay within a few cache lines at a time — a
    /// naive row sweep writes the destination column-major, which thrashes
    /// the cache once the matrix outgrows L1 (design-level PCA transforms
    /// are `n_grids × n_grids`-ish, in the hundreds for many-instance
    /// designs).
    pub fn transposed(&self) -> Matrix {
        const BLOCK: usize = 32;
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(self.rows);
            for j0 in (0..self.cols).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(self.cols);
                for i in i0..i1 {
                    let src = &self.row(i)[j0..j1];
                    for (dj, &v) in src.iter().enumerate() {
                        t.data[(j0 + dj) * self.rows + i] = v;
                    }
                }
            }
        }
        t
    }

    /// Matrix product `self · other`, cache-blocked.
    ///
    /// Uses the same 32×32 tiling as [`transposed`](Self::transposed):
    /// the `(k, j)` panel of `other` touched by one tile fits in L1, so
    /// sweeping many rows of `self` over a wide right-hand side (the
    /// per-instance replacement build multiplies a small whitening
    /// matrix by a `grids × design-components` transform slice) does not
    /// re-stream the whole right operand from L2/L3 once per row.
    ///
    /// Every output entry `(i, j)` still accumulates its contributions
    /// in ascending-`k` order (the `k`-tile loop is outside the `j`-tile
    /// loop) and skips exact-zero left entries, so the result is
    /// bit-identical to the plain `i-k-j` triple loop.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::matmul",
                expected: (self.cols, self.cols),
                found: (other.rows, other.cols),
            });
        }
        const BLOCK: usize = 32;
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i0 in (0..self.rows).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(self.rows);
            for k0 in (0..self.cols).step_by(BLOCK) {
                let k1 = (k0 + BLOCK).min(self.cols);
                for j0 in (0..other.cols).step_by(BLOCK) {
                    let j1 = (j0 + BLOCK).min(other.cols);
                    for i in i0..i1 {
                        let lhs_row = &self.row(i)[k0..k1];
                        for (dk, &lhs) in lhs_row.iter().enumerate() {
                            if lhs == 0.0 {
                                continue;
                            }
                            let rhs_row = &other.row(k0 + dk)[j0..j1];
                            let out_row = &mut out.row_mut(i)[j0..j1];
                            for (o, &rhs) in out_row.iter_mut().zip(rhs_row) {
                                *o += lhs * rhs;
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless `v.len() == cols`.
    pub fn mat_vec(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::mat_vec",
                expected: (self.cols, 1),
                found: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = dot(self.row(i), v);
        }
        Ok(out)
    }

    /// Adds the transposed matrix–vector product `selfᵀ · v` to `out`, in
    /// place: rows ascend, rows whose `vᵢ` is zero are skipped, and each
    /// row adds `vᵢ · self[i][j]` to `out[j]`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless `v.len() == rows`
    /// and `out.len() == cols`.
    pub fn add_mat_vec_transposed(&self, v: &[f64], out: &mut [f64]) -> Result<(), MathError> {
        if (v.len(), out.len()) != (self.rows, self.cols) {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::add_mat_vec_transposed",
                expected: (self.rows, self.cols),
                found: (v.len(), out.len()),
            });
        }
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
        Ok(())
    }

    /// Extracts the sub-matrix given by a list of row indices and a list of
    /// column indices (in the given order; duplicates are allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        Matrix::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }

    /// Largest absolute asymmetry `max |a_ij - a_ji|`; `0.0` for non-square.
    pub fn max_asymmetry(&self) -> f64 {
        if !self.is_square() {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Largest absolute entry-wise difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64, MathError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::max_abs_diff",
                expected: (self.rows, self.cols),
                found: (other.rows, other.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

/// Dot product of two equally long slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ; in release builds the
/// shorter length wins (standard `zip` semantics).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, MathError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty_input() {
        let err = Matrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, MathError::EmptyInput { .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn blocked_transpose_matches_reference_beyond_one_block() {
        // Shapes straddling the 32-wide block boundary, rectangular both
        // ways.
        for (r, c) in [(33, 70), (70, 33), (64, 64), (1, 100), (100, 1)] {
            let a = Matrix::from_fn(r, c, |i, j| (i * 1000 + j) as f64);
            let t = a.transposed();
            assert_eq!(t.rows(), c);
            assert_eq!(t.cols(), r);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[(j, i)], a[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_unblocked() {
        // The plain i-k-j triple loop, skipping exact-zero left entries.
        fn reference(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for (k, &lhs) in a.row(i).iter().enumerate() {
                    if lhs == 0.0 {
                        continue;
                    }
                    for (o, &rhs) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                        *o += lhs * rhs;
                    }
                }
            }
            out
        }
        // Shapes straddling the 32-wide tile boundary, rectangular both
        // ways, a replacement-shaped product (a few whitening rows times
        // hundreds of design components), plus a scattering of exact
        // zeros so the zero-skip path is exercised identically in both
        // kernels. Entries are scaled irrationally so any
        // accumulation-order difference would show up in the low
        // mantissa bits.
        for (m, k, n) in [
            (1, 1, 1),
            (7, 5, 3),
            (33, 70, 41),
            (70, 33, 64),
            (64, 64, 64),
            (1, 100, 33),
            (40, 1, 40),
            (4, 9, 756),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| {
                if (i + j) % 7 == 0 {
                    0.0
                } else {
                    ((i * 31 + j * 17) as f64).sin() / 3.0
                }
            });
            let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 29) as f64).cos() * 1.7);
            assert_eq!(
                a.matmul(&b).unwrap().as_slice(),
                reference(&a, &b).as_slice(),
                "blocked matmul diverged for {m}x{k}·{k}x{n}"
            );
        }
    }

    #[test]
    fn mat_vec_and_transposed_agree_with_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let v = vec![10.0, 20.0];
        let got = a.mat_vec(&v).unwrap();
        assert_eq!(got, vec![50.0, 110.0, 170.0]);

        let w = vec![1.0, 1.0, 1.0];
        let mut got_t = vec![0.5, 0.0];
        a.add_mat_vec_transposed(&w, &mut got_t).unwrap();
        assert_eq!(got_t, vec![9.5, 12.0]);
        assert!(a.add_mat_vec_transposed(&v, &mut got_t).is_err());
        assert!(a.add_mat_vec_transposed(&w, &mut [0.0; 3]).is_err());
    }

    #[test]
    fn select_extracts_submatrix() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 10 + j) as f64);
        let s = a.select(&[1, 3], &[0, 2]);
        assert_eq!(s[(0, 0)], 10.0);
        assert_eq!(s[(0, 1)], 12.0);
        assert_eq!(s[(1, 0)], 30.0);
        assert_eq!(s[(1, 1)], 32.0);
    }

    #[test]
    fn asymmetry_detects_non_symmetric() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = 0.5;
        assert!((a.max_asymmetry() - 0.5).abs() < 1e-15);
        a[(1, 0)] = 0.5;
        assert_eq!(a.max_asymmetry(), 0.0);
    }

    #[test]
    fn display_contains_dimensions() {
        let text = format!("{}", Matrix::zeros(2, 2));
        assert!(text.contains("2x2"));
    }
}
