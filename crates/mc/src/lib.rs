//! Monte Carlo ground truth for hierarchical SSTA.
//!
//! The paper validates everything against Monte Carlo with 10 000
//! iterations: timing-model accuracy (Table I) against per-pair MC of the
//! original module netlists, and hierarchical analysis (Fig. 7) against MC
//! of the *flattened* design. This crate provides both:
//!
//! * [`module_mc`] — per input/output pair delay statistics of a
//!   characterized module, sampling the module's own variable space;
//! * [`flat_mc`] — the flattened-design delay distribution, sampling the
//!   *design-level* heterogeneous grid variables so inter-module spatial
//!   correlation is physically present in the ground truth;
//! * [`compare`] — the `merr`/`verr` error metrics of Table I and CDF
//!   comparison helpers for Fig. 7.
//!
//! All runs are seeded and deterministic; sample chunks are distributed
//! over scoped threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod flat_mc;
pub mod module_mc;

pub use compare::{model_vs_mc, ModelError};
pub use flat_mc::flat_design_delay;
pub use module_mc::{module_delay_matrix, PairStats};

/// Options shared by all Monte Carlo runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McOptions {
    /// Number of samples (the paper uses 10 000).
    pub samples: usize,
    /// RNG seed; the same seed reproduces the same estimate.
    pub seed: u64,
    /// Worker threads; `0` uses the available parallelism.
    pub threads: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            samples: 10_000,
            seed: 0xD09E_2009,
            threads: 0,
        }
    }
}

impl McOptions {
    pub(crate) fn resolve_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.threads
        }
    }
}

pub(crate) fn chunk_sizes(total: usize, chunks: usize) -> Vec<usize> {
    let chunks = chunks.max(1);
    let base = total / chunks;
    let rem = total % chunks;
    (0..chunks)
        .map(|i| base + usize::from(i < rem))
        .filter(|&n| n > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_total() {
        for (total, chunks) in [(100, 7), (5, 10), (0, 4), (16, 4)] {
            let sizes = chunk_sizes(total, chunks);
            assert_eq!(sizes.iter().sum::<usize>(), total);
            assert!(sizes.iter().all(|&s| s > 0) || total == 0);
        }
    }

    #[test]
    fn default_options_match_paper() {
        assert_eq!(McOptions::default().samples, 10_000);
    }
}
