//! Grid-based spatial correlation (Chang/Sapatnekar model, Section II).
//!
//! The die is partitioned into square grids; all cells in one grid share
//! one local random variable per process parameter. Correlation between
//! grid variables depends only on grid distance and is pre-characterized;
//! PCA (in `ssta-math`) decomposes the correlated grid variables into
//! independent components.

use crate::CoreError;
use serde::Serialize;
use ssta_math::Matrix;
use ssta_netlist::DieRect;

/// A uniform grid partition of a rectangular die region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GridGeometry {
    origin: (f64, f64),
    pitch: f64,
    nx: usize,
    ny: usize,
}

impl GridGeometry {
    /// Partitions a die (anchored at `origin = (0, 0)`) with square grids
    /// of the given pitch.
    ///
    /// # Panics
    ///
    /// Panics if the pitch or die dimensions are not positive.
    pub fn from_die(die: DieRect, pitch_um: f64) -> Self {
        assert!(pitch_um > 0.0, "grid pitch must be positive");
        assert!(die.width > 0.0 && die.height > 0.0, "die must be non-empty");
        GridGeometry {
            origin: (0.0, 0.0),
            pitch: pitch_um,
            nx: (die.width / pitch_um).ceil().max(1.0) as usize,
            ny: (die.height / pitch_um).ceil().max(1.0) as usize,
        }
    }

    /// Reassembles a geometry from its stored fields (binary codec
    /// support; the public constructor [`from_die`](Self::from_die)
    /// re-derives `nx`/`ny` and cannot reproduce a translated geometry).
    pub(crate) fn from_raw_parts(origin: (f64, f64), pitch: f64, nx: usize, ny: usize) -> Self {
        GridGeometry {
            origin,
            pitch,
            nx,
            ny,
        }
    }

    /// Number of grids.
    pub fn n_grids(&self) -> usize {
        self.nx * self.ny
    }

    /// Grid columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Grid pitch in µm.
    pub fn pitch(&self) -> f64 {
        self.pitch
    }

    /// The grid containing a point (points outside clamp to the border
    /// grid — pads sit on the die edge).
    pub fn grid_of(&self, (x, y): (f64, f64)) -> usize {
        let gx = (((x - self.origin.0) / self.pitch).floor() as isize)
            .clamp(0, self.nx as isize - 1) as usize;
        let gy = (((y - self.origin.1) / self.pitch).floor() as isize)
            .clamp(0, self.ny as isize - 1) as usize;
        gy * self.nx + gx
    }

    /// Center coordinates of grid `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn center(&self, idx: usize) -> (f64, f64) {
        assert!(idx < self.n_grids(), "grid index out of range");
        let gx = idx % self.nx;
        let gy = idx / self.nx;
        (
            self.origin.0 + (gx as f64 + 0.5) * self.pitch,
            self.origin.1 + (gy as f64 + 0.5) * self.pitch,
        )
    }

    /// All grid centers, in index order.
    pub fn centers(&self) -> Vec<(f64, f64)> {
        (0..self.n_grids()).map(|i| self.center(i)).collect()
    }

    /// The same geometry shifted by `(dx, dy)` — the module's grids as
    /// seen from the top-level design.
    pub fn translated(&self, dx: f64, dy: f64) -> GridGeometry {
        GridGeometry {
            origin: (self.origin.0 + dx, self.origin.1 + dy),
            ..*self
        }
    }

    /// The origin of the geometry.
    pub fn origin(&self) -> (f64, f64) {
        self.origin
    }

    /// The full extent `(width, height)` covered by the grids in µm.
    /// May exceed the underlying die because partial grids round up.
    pub fn extent_um(&self) -> (f64, f64) {
        (self.nx as f64 * self.pitch, self.ny as f64 * self.pitch)
    }
}

/// How the variance of each process parameter splits and how the local
/// share correlates across grids.
///
/// Total correlation between the parameter values of two cells at grid
/// distance `d` is `global + local·ρ(d)` with
/// `ρ(d) = exp(−decay·d)` for `d ≤ cutoff` and `0` beyond — beyond the
/// cutoff only the global share correlates, exactly the paper's
/// "correlation from global variation only" regime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CorrelationModel {
    /// Variance share of the global (chip-wide) variation.
    pub global_share: f64,
    /// Variance share of the spatially correlated local variation.
    pub local_share: f64,
    /// Variance share of the per-delay independent random variation.
    pub random_share: f64,
    /// Exponential decay rate of the local correlation per grid distance.
    pub decay_per_grid: f64,
    /// Grid distance beyond which local correlation is zero.
    pub cutoff_grids: f64,
}

impl CorrelationModel {
    /// The paper's Section VI settings: global floor 0.42, neighbouring
    /// grids correlate at 0.92, local correlation vanishes beyond grid
    /// distance 15. With shares `(0.42, 0.53, 0.05)` the decay rate is
    /// solved from `0.42 + 0.53·exp(−decay) = 0.92`.
    pub fn paper() -> Self {
        let global_share: f64 = 0.42;
        let local_share: f64 = 0.53;
        let random_share = 0.05;
        let neighbour_target: f64 = 0.92;
        let decay_per_grid = -((neighbour_target - global_share) / local_share).ln();
        CorrelationModel {
            global_share,
            local_share,
            random_share,
            decay_per_grid,
            cutoff_grids: 15.0,
        }
    }

    /// Validates the shares and decay.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if shares are negative, do not sum to
    /// 1, or the decay/cutoff are not positive.
    pub fn validate(&self) -> Result<(), CoreError> {
        let sum = self.global_share + self.local_share + self.random_share;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::Config {
                reason: format!("variance shares sum to {sum}, expected 1"),
            });
        }
        if self.global_share < 0.0 || self.local_share < 0.0 || self.random_share < 0.0 {
            return Err(CoreError::Config {
                reason: "variance shares must be non-negative".into(),
            });
        }
        if self.decay_per_grid < 0.0 || self.cutoff_grids <= 0.0 {
            return Err(CoreError::Config {
                reason: "decay must be non-negative and cutoff positive".into(),
            });
        }
        Ok(())
    }

    /// Local correlation `ρ(d)` at a grid distance `d` (in grid pitches).
    pub fn local_correlation(&self, dist_grids: f64) -> f64 {
        if dist_grids > self.cutoff_grids {
            0.0
        } else {
            (-self.decay_per_grid * dist_grids).exp()
        }
    }

    /// Correlation matrix of the unit-variance local grid variables for
    /// the given grid centers; distances are measured in units of
    /// `pitch_um`.
    ///
    /// The matrix is symmetric by construction, so only the upper
    /// triangle is evaluated (one `exp` per unordered pair, row by row)
    /// and the lower triangle is mirrored.
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty or the pitch is not positive.
    pub fn covariance_matrix(&self, centers: &[(f64, f64)], pitch_um: f64) -> Matrix {
        assert!(!centers.is_empty(), "need at least one grid");
        assert!(pitch_um > 0.0, "pitch must be positive");
        let n = centers.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &(xi, yi)) in centers.iter().enumerate() {
            let row = &mut m.row_mut(i)[i..];
            row[0] = 1.0;
            for (entry, &(xj, yj)) in row[1..].iter_mut().zip(&centers[i + 1..]) {
                let dx = xi - xj;
                let dy = yi - yj;
                let d = (dx * dx + dy * dy).sqrt() / pitch_um;
                *entry = self.local_correlation(d);
            }
        }
        // Mirror the lower triangle, writing row-major.
        for j in 1..n {
            for i in 0..j {
                m[(j, i)] = m[(i, j)];
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssta_math::{PcaBasis, PcaOptions};

    fn die(w: f64, h: f64) -> DieRect {
        DieRect {
            width: w,
            height: h,
        }
    }

    #[test]
    fn geometry_partitions_die() {
        let g = GridGeometry::from_die(die(100.0, 60.0), 20.0);
        assert_eq!(g.nx(), 5);
        assert_eq!(g.ny(), 3);
        assert_eq!(g.n_grids(), 15);
    }

    #[test]
    fn grid_of_maps_points_correctly() {
        let g = GridGeometry::from_die(die(40.0, 40.0), 20.0);
        assert_eq!(g.grid_of((1.0, 1.0)), 0);
        assert_eq!(g.grid_of((39.0, 1.0)), 1);
        assert_eq!(g.grid_of((1.0, 39.0)), 2);
        assert_eq!(g.grid_of((39.0, 39.0)), 3);
        // Out-of-range points clamp to border grids.
        assert_eq!(g.grid_of((-5.0, -5.0)), 0);
        assert_eq!(g.grid_of((100.0, 100.0)), 3);
    }

    #[test]
    fn centers_are_inside_their_grids() {
        let g = GridGeometry::from_die(die(60.0, 60.0), 20.0);
        for i in 0..g.n_grids() {
            assert_eq!(g.grid_of(g.center(i)), i);
        }
    }

    #[test]
    fn translation_moves_centers() {
        let g = GridGeometry::from_die(die(40.0, 40.0), 20.0);
        let t = g.translated(100.0, 0.0);
        let (x0, _) = g.center(0);
        let (x1, _) = t.center(0);
        assert!((x1 - x0 - 100.0).abs() < 1e-12);
    }

    /// Total parameter correlation between two cells at grid distance
    /// `d`: the global share plus the correlated part of the local share
    /// (the random share never correlates).
    fn total_correlation(m: &CorrelationModel, dist_grids: f64) -> f64 {
        m.global_share + m.local_share * m.local_correlation(dist_grids)
    }

    #[test]
    fn paper_model_hits_published_correlation_points() {
        let m = CorrelationModel::paper();
        m.validate().unwrap();
        // Neighbouring grids: 0.92.
        assert!((total_correlation(&m, 1.0) - 0.92).abs() < 1e-12);
        // Beyond the cutoff: global only, 0.42.
        assert!((total_correlation(&m, 15.1) - 0.42).abs() < 1e-12);
        assert!((total_correlation(&m, 100.0) - 0.42).abs() < 1e-12);
        // Same grid: everything except the random share.
        assert!((total_correlation(&m, 0.0) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn correlation_is_monotonically_decreasing() {
        let m = CorrelationModel::paper();
        let mut prev = total_correlation(&m, 0.0);
        for d in 1..20 {
            let c = total_correlation(&m, d as f64);
            assert!(c <= prev + 1e-15, "not monotone at d = {d}");
            prev = c;
        }
    }

    #[test]
    fn covariance_matrix_is_symmetric_with_unit_diagonal() {
        let g = GridGeometry::from_die(die(80.0, 80.0), 20.0);
        let m = CorrelationModel::paper();
        let c = m.covariance_matrix(&g.centers(), g.pitch());
        assert_eq!(c.max_asymmetry(), 0.0);
        for i in 0..c.rows() {
            assert_eq!(c[(i, i)], 1.0);
        }
    }

    #[test]
    fn covariance_matrix_decomposes_with_pca() {
        let g = GridGeometry::from_die(die(120.0, 120.0), 20.0);
        let m = CorrelationModel::paper();
        let c = m.covariance_matrix(&g.centers(), g.pitch());
        let pca = PcaBasis::from_covariance(&c, PcaOptions::default()).unwrap();
        // Reconstruction error small (eigenvalue flooring may drop a hair).
        let back = pca
            .transform()
            .matmul(&pca.transform().transposed())
            .unwrap();
        assert!(back.max_abs_diff(&c).unwrap() < 1e-6);
    }

    #[test]
    fn validation_rejects_bad_shares() {
        let mut m = CorrelationModel::paper();
        m.global_share = 0.9; // shares no longer sum to 1
        assert!(m.validate().is_err());
    }
}
