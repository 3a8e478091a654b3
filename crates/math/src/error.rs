use std::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MathError {
    /// Two operands (or a matrix and a vector) have incompatible shapes.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// The shape that was expected, e.g. `(3, 3)`.
        expected: (usize, usize),
        /// The shape that was found.
        found: (usize, usize),
    },
    /// A matrix that must be symmetric is not (within tolerance).
    NotSymmetric {
        /// Largest `|a_ij - a_ji|` encountered.
        max_asymmetry: f64,
    },
    /// Cholesky factorization failed: the matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the pivot where factorization broke down.
        pivot: usize,
    },
    /// The eigensolver did not converge within its iteration budget.
    EigenNoConvergence {
        /// Remaining off-diagonal magnitude when iteration stopped.
        off_diagonal_norm: f64,
    },
    /// An operation received an empty input where data was required.
    EmptyInput {
        /// Human-readable description of the operation that failed.
        context: &'static str,
    },
    /// A scalar argument was out of its mathematical domain.
    DomainError {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::DimensionMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            MathError::NotSymmetric { max_asymmetry } => {
                write!(
                    f,
                    "matrix is not symmetric (max |a_ij - a_ji| = {max_asymmetry:e})"
                )
            }
            MathError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            MathError::EigenNoConvergence { off_diagonal_norm } => write!(
                f,
                "eigensolver did not converge (off-diagonal norm {off_diagonal_norm:e})"
            ),
            MathError::EmptyInput { context } => {
                write!(f, "empty input in {context}")
            }
            MathError::DomainError { context, value } => {
                write!(f, "domain error in {context}: value {value}")
            }
        }
    }
}

impl std::error::Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = MathError::DimensionMismatch {
            context: "matmul",
            expected: (2, 3),
            found: (4, 5),
        };
        let text = err.to_string();
        assert!(text.contains("matmul"));
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<MathError>();
    }
}
