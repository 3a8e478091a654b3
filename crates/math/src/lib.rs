//! Linear-algebra and Gaussian-statistics substrate for hierarchical SSTA.
//!
//! This crate provides the numerical foundation used by the statistical
//! static timing analysis engine in `ssta-core`:
//!
//! * [`Matrix`] — a small dense row-major matrix with the operations needed
//!   for covariance handling (products, transposes, sub-matrices).
//! * [`cholesky`] — Cholesky factorization, used to validate covariance
//!   matrices and to sample correlated Gaussians in tests.
//! * [`eigen`] — the symmetric eigensolver, Householder
//!   tridiagonalization + implicit-shift QL
//!   ([`eigen::symmetric_eigen`]); design-level covariance matrices grow
//!   with instance count, so the eigensolve is the top-level assembly's
//!   hottest kernel.
//! * [`pca`] — principal component analysis built on the eigensolver,
//!   producing the `correlated = T·z` transform (with unit-variance `z`)
//!   and its whitening inverse that the variable-replacement step of
//!   hierarchical SSTA needs.
//! * [`gaussian`] — the standard normal pdf/cdf/quantile and Clark's
//!   moment-matching formulas for `max` of two jointly Gaussian variables
//!   (Clark, Operations Research 1961), the computational kernel of
//!   block-based SSTA.
//! * [`stats`] — streaming summaries, histograms, empirical distributions
//!   and Kolmogorov–Smirnov distances used to compare analytical SSTA
//!   results against Monte Carlo ground truth.
//! * [`parallel`] — deterministic fork-join helpers (index-ordered
//!   results, bit-identical for every worker count) shared by the
//!   all-pairs and criticality passes, the design-level assembly and the
//!   engine pipeline.
//! * [`rng`] — seedable standard-normal sampling helpers.
//! * [`codec`] — varint/byte-stream primitives for the deterministic
//!   binary model codec (`ssta-core` builds the model layout on top;
//!   the engine's store wraps it in the versioned SSTM envelope).
//!
//! # Example
//!
//! ```
//! use ssta_math::{Matrix, PcaBasis, PcaOptions};
//!
//! # fn main() -> Result<(), ssta_math::MathError> {
//! // A 2x2 covariance matrix with correlation 0.8.
//! let cov = Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]])?;
//! let pca = PcaBasis::from_covariance(&cov, PcaOptions::default())?;
//! // The PCA transform reconstructs the covariance: T Tᵀ = C.
//! let reconstructed = pca.transform().matmul(&pca.transform().transposed())?;
//! assert!(reconstructed.max_abs_diff(&cov)? < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
mod tridiag;

pub mod cholesky;
pub mod codec;
pub mod digest;
pub mod eigen;
pub mod gaussian;
pub mod parallel;
pub mod pca;
pub mod rng;
pub mod stats;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use digest::{sha256, Sha256};
pub use error::MathError;
pub use gaussian::{clark_max, normal_cdf, normal_pdf, normal_quantile, MaxMoments};
pub use matrix::Matrix;
pub use pca::{PcaBasis, PcaOptions};
pub use stats::{EmpiricalDist, Histogram, Summary};
