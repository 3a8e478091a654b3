//! Deterministic row placement.
//!
//! The spatial-correlation model needs a die coordinate for every cell:
//! grid membership determines which correlated local variables affect a
//! gate's delay. The paper uses the benchmark layouts from its industrial
//! flow; we substitute a deterministic row placement that places gates in
//! topological order, which — like a real placer — keeps logically adjacent
//! cells spatially adjacent.

use crate::Netlist;
use serde::Serialize;

/// An axis-aligned die rectangle with origin at (0, 0), in micrometres.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DieRect {
    /// Die width in µm.
    pub width: f64,
    /// Die height in µm.
    pub height: f64,
}

/// Cell coordinates for one netlist.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Placement {
    die: DieRect,
    /// One (x, y) in µm per gate, in gate index order.
    gate_positions: Vec<(f64, f64)>,
}

impl Placement {
    /// Places the gates of `netlist` in rows, in topological order.
    ///
    /// `cell_pitch_um` is the spacing between adjacent cell sites; rows are
    /// the same pitch apart, producing a roughly square die.
    ///
    /// # Panics
    ///
    /// Panics if `cell_pitch_um` is not positive.
    pub fn rows(netlist: &Netlist, cell_pitch_um: f64) -> Self {
        assert!(cell_pitch_um > 0.0, "cell pitch must be positive");
        let n = netlist.n_gates().max(1);
        let n_cols = (n as f64).sqrt().ceil() as usize;
        let n_rows = n.div_ceil(n_cols);

        let gate_positions = (0..netlist.n_gates())
            .map(|i| {
                let row = i / n_cols;
                let col = i % n_cols;
                // Serpentine rows: odd rows run right-to-left, mirroring the
                // wire-length-aware ordering of real placers.
                let col = if row % 2 == 1 { n_cols - 1 - col } else { col };
                (
                    (col as f64 + 0.5) * cell_pitch_um,
                    (row as f64 + 0.5) * cell_pitch_um,
                )
            })
            .collect();

        let die = DieRect {
            width: n_cols as f64 * cell_pitch_um,
            height: n_rows as f64 * cell_pitch_um,
        };

        Placement {
            die,
            gate_positions,
        }
    }

    /// The die rectangle.
    pub fn die(&self) -> DieRect {
        self.die
    }

    /// Position of gate `i` in µm.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn gate_position(&self, i: usize) -> (f64, f64) {
        self.gate_positions[i]
    }

    /// All gate positions.
    pub fn gate_positions(&self) -> &[(f64, f64)] {
        &self.gate_positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn all_gates_inside_die() {
        let n = generators::ripple_carry_adder(8).unwrap();
        let p = Placement::rows(&n, 2.0);
        let die = p.die();
        for &(x, y) in p.gate_positions() {
            assert!(x > 0.0 && x < die.width);
            assert!(y > 0.0 && y < die.height);
        }
        assert_eq!(p.gate_positions().len(), n.n_gates());
    }

    #[test]
    fn die_is_roughly_square() {
        let n = generators::ripple_carry_adder(16).unwrap();
        let p = Placement::rows(&n, 2.0);
        let ratio = p.die().width / p.die().height;
        assert!(ratio > 0.5 && ratio < 2.0, "aspect ratio {ratio}");
    }

    #[test]
    fn positions_are_unique() {
        let n = generators::ripple_carry_adder(8).unwrap();
        let p = Placement::rows(&n, 1.0);
        let mut seen = std::collections::HashSet::new();
        for &(x, y) in p.gate_positions() {
            assert!(seen.insert(((x * 1e6) as i64, (y * 1e6) as i64)));
        }
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_panics() {
        let n = generators::ripple_carry_adder(2).unwrap();
        let _ = Placement::rows(&n, 0.0);
    }
}
