//! Heterogeneous grid partition of the top die (Fig. 4 of the paper).
//!
//! Module-covered die area keeps each module's characterization grids
//! (translated to the module's placement); the remaining area is tiled
//! with the default grid. Leftover grids may be clipped by module rects
//! and thus non-rectangular; like the paper, we only ever use a grid's
//! *location* (its tile center) for correlation distances, so clipping
//! costs no modelling accuracy beyond the grid quantization itself.

use crate::spatial::GridGeometry;
use serde::Serialize;
use ssta_netlist::DieRect;

/// The design-level grid set: per-instance grid blocks (in module grid
/// order) followed by top-level leftover grids.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DesignPartition {
    centers: Vec<(f64, f64)>,
    instance_offsets: Vec<usize>,
    instance_counts: Vec<usize>,
    n_top_grids: usize,
}

impl DesignPartition {
    /// Builds the partition from the translated module geometries and the
    /// default grid pitch.
    ///
    /// # Panics
    ///
    /// Panics if the pitch is not positive or the die is empty.
    pub fn build(die: DieRect, instance_geometries: &[GridGeometry], default_pitch: f64) -> Self {
        assert!(default_pitch > 0.0, "default grid pitch must be positive");
        assert!(die.width > 0.0 && die.height > 0.0, "die must be non-empty");

        let mut centers = Vec::new();
        let mut instance_offsets = Vec::with_capacity(instance_geometries.len());
        let mut instance_counts = Vec::with_capacity(instance_geometries.len());
        for geom in instance_geometries {
            instance_offsets.push(centers.len());
            instance_counts.push(geom.n_grids());
            centers.extend(geom.centers());
        }

        // Leftover area: default tiles whose center no module rect covers.
        let nx = (die.width / default_pitch).ceil() as usize;
        let ny = (die.height / default_pitch).ceil() as usize;
        let mut n_top = 0;
        for gy in 0..ny {
            for gx in 0..nx {
                let c = (
                    (gx as f64 + 0.5) * default_pitch,
                    (gy as f64 + 0.5) * default_pitch,
                );
                let covered = instance_geometries.iter().any(|g| covers(g, c));
                if !covered {
                    centers.push(c);
                    n_top += 1;
                }
            }
        }
        DesignPartition {
            centers,
            instance_offsets,
            instance_counts,
            n_top_grids: n_top,
        }
    }

    /// All grid centers (instance blocks first, then top-level grids).
    pub fn centers(&self) -> &[(f64, f64)] {
        &self.centers
    }

    /// Total number of design grids.
    pub fn n_grids(&self) -> usize {
        self.centers.len()
    }

    /// Number of top-level (leftover) grids.
    pub fn n_top_grids(&self) -> usize {
        self.n_top_grids
    }

    /// Index range of instance `i`'s grids within [`centers`](Self::centers),
    /// matching the module's own grid order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn instance_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.instance_offsets[i];
        start..start + self.instance_counts[i]
    }
}

fn covers(g: &GridGeometry, (x, y): (f64, f64)) -> bool {
    let (ox, oy) = g.origin();
    let w = g.nx() as f64 * g.pitch();
    let h = g.ny() as f64 * g.pitch();
    x >= ox && x < ox + w && y >= oy && y < oy + h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die(w: f64, h: f64) -> DieRect {
        DieRect {
            width: w,
            height: h,
        }
    }

    fn module_geom(origin: (f64, f64), pitch: f64, side_um: f64) -> GridGeometry {
        GridGeometry::from_die(die(side_um, side_um), pitch).translated(origin.0, origin.1)
    }

    #[test]
    fn abutted_modules_cover_everything() {
        // Two 40x40 modules side by side on an 80x40 die: no leftover.
        let g1 = module_geom((0.0, 0.0), 20.0, 40.0);
        let g2 = module_geom((40.0, 0.0), 20.0, 40.0);
        let p = DesignPartition::build(die(80.0, 40.0), &[g1, g2], 20.0);
        assert_eq!(p.n_top_grids(), 0);
        assert_eq!(p.n_grids(), 8);
        assert_eq!(p.instance_range(0), 0..4);
        assert_eq!(p.instance_range(1), 4..8);
    }

    #[test]
    fn leftover_area_gets_default_grids() {
        // One 40x40 module on an 80x40 die: right half is leftover.
        let g1 = module_geom((0.0, 0.0), 20.0, 40.0);
        let p = DesignPartition::build(die(80.0, 40.0), &[g1], 20.0);
        assert_eq!(p.n_top_grids(), 4);
        assert_eq!(p.n_grids(), 8);
        // Leftover centers are in the right half.
        for &(x, _) in &p.centers()[4..] {
            assert!(x > 40.0);
        }
    }

    #[test]
    fn instance_grid_centers_match_module_geometry() {
        let g1 = module_geom((100.0, 50.0), 20.0, 40.0);
        let p = DesignPartition::build(die(200.0, 200.0), &[g1], 20.0);
        let range = p.instance_range(0);
        let want = g1.centers();
        assert_eq!(&p.centers()[range], &want[..]);
    }

    #[test]
    fn misaligned_module_still_partitions() {
        // Module origin not on the default grid lattice (the "module B"
        // case of Fig. 4).
        let g1 = module_geom((13.0, 7.0), 20.0, 40.0);
        let p = DesignPartition::build(die(100.0, 100.0), &[g1], 20.0);
        assert_eq!(p.instance_range(0).len(), 4);
        assert!(p.n_top_grids() > 0);
        // No top-level grid center falls inside the module rect.
        for &c in &p.centers()[4..] {
            assert!(!(c.0 >= 13.0 && c.0 < 53.0 && c.1 >= 7.0 && c.1 < 47.0));
        }
    }
}
