//! Cell library with nominal arc delays and process-parameter sensitivities.
//!
//! The paper maps ISCAS85 to "a 90nm library from an industrial partner"
//! and varies four parameters (after Nassif, CICC'01): transistor length
//! (σ = 15.7 % of nominal), oxide thickness (5.3 %), threshold voltage
//! (4.4 %) and output load (15 %). The library here is synthetic but
//! carries the same structure: every cell arc has a nominal delay in
//! picoseconds and a dimensionless first-order sensitivity to each
//! parameter, so the delay model is
//!
//! `d = d₀ · (1 + Σ_p s_p · δ_p)`
//!
//! with `δ_p` the *relative* deviation of parameter `p` (a zero-mean
//! Gaussian whose σ is set by the variation model in `ssta-core`).

use crate::{GateKind, NetlistError};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Number of varying process parameters.
pub const N_PARAMS: usize = 4;

/// The process parameters the paper varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ProcessParam {
    /// Transistor channel length L (σ = 15.7 % nominal in the paper).
    Length,
    /// Gate-oxide thickness Tox (σ = 5.3 %).
    OxideThickness,
    /// Threshold voltage Vth (σ = 4.4 %).
    Threshold,
    /// Output load CL (σ = 15 %).
    Load,
}

impl ProcessParam {
    /// All parameters in index order.
    pub const ALL: [ProcessParam; N_PARAMS] = [
        ProcessParam::Length,
        ProcessParam::OxideThickness,
        ProcessParam::Threshold,
        ProcessParam::Load,
    ];

    /// Stable index in `0..N_PARAMS`.
    pub fn index(self) -> usize {
        match self {
            ProcessParam::Length => 0,
            ProcessParam::OxideThickness => 1,
            ProcessParam::Threshold => 2,
            ProcessParam::Load => 3,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ProcessParam::Length => "L",
            ProcessParam::OxideThickness => "Tox",
            ProcessParam::Threshold => "Vth",
            ProcessParam::Load => "CL",
        }
    }
}

impl fmt::Display for ProcessParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Dimensionless first-order delay sensitivities, one per process parameter.
///
/// `sensitivity[p]` is the relative delay change per unit relative change
/// of parameter `p`: `Δd/d₀ = s_p · Δp/p₀`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Sensitivity(pub [f64; N_PARAMS]);

impl Sensitivity {
    /// Sensitivity to a specific parameter.
    pub fn get(&self, p: ProcessParam) -> f64 {
        self.0[p.index()]
    }
}

/// Identifier of a cell type within its [`Library`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CellTypeId(pub u16);

/// A library cell: Boolean function, arity, per-arc nominal delays and
/// parameter sensitivities.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellType {
    name: String,
    kind: GateKind,
    arity: usize,
    /// Nominal pin-to-output delay in picoseconds, one entry per input pin.
    arc_delays_ps: Vec<f64>,
    sensitivity: Sensitivity,
}

impl CellType {
    /// Creates a cell type.
    ///
    /// # Panics
    ///
    /// Panics if `arc_delays_ps.len() != arity`, if the arity is zero, or
    /// if any delay is non-positive.
    pub fn new(
        name: impl Into<String>,
        kind: GateKind,
        arc_delays_ps: Vec<f64>,
        sensitivity: Sensitivity,
    ) -> Self {
        let arity = arc_delays_ps.len();
        assert!(arity > 0, "cell must have at least one input");
        assert!(
            arc_delays_ps.iter().all(|&d| d > 0.0),
            "arc delays must be positive"
        );
        if matches!(kind, GateKind::Buf | GateKind::Not) {
            assert_eq!(arity, 1, "Buf/Not cells must have arity 1");
        }
        CellType {
            name: name.into(),
            kind,
            arity,
            arc_delays_ps,
            sensitivity,
        }
    }

    /// Cell name, e.g. `"NAND2"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Boolean function.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Number of input pins.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Nominal delay (ps) of the arc from input pin `pin` to the output.
    ///
    /// # Panics
    ///
    /// Panics if `pin >= arity`.
    pub fn arc_delay_ps(&self, pin: usize) -> f64 {
        self.arc_delays_ps[pin]
    }

    /// All arc delays.
    pub fn arc_delays_ps(&self) -> &[f64] {
        &self.arc_delays_ps
    }

    /// Process-parameter sensitivities of this cell.
    pub fn sensitivity(&self) -> &Sensitivity {
        &self.sensitivity
    }
}

/// An immutable collection of cell types indexed by [`CellTypeId`] and name.
#[derive(Debug, Clone, Serialize)]
pub struct Library {
    name: String,
    cells: Vec<CellType>,
    by_name: HashMap<String, CellTypeId>,
}

impl Library {
    /// Creates a library from a list of cell types.
    ///
    /// # Panics
    ///
    /// Panics on duplicate cell names or more than `u16::MAX` cells.
    pub fn new(name: impl Into<String>, cells: Vec<CellType>) -> Self {
        assert!(cells.len() <= u16::MAX as usize, "too many cells");
        let mut by_name = HashMap::with_capacity(cells.len());
        for (i, c) in cells.iter().enumerate() {
            let prev = by_name.insert(c.name().to_owned(), CellTypeId(i as u16));
            assert!(prev.is_none(), "duplicate cell name {}", c.name());
        }
        Library {
            name: name.into(),
            cells,
            by_name,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cell types.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellTypeId) -> &CellType {
        &self.cells[id.0 as usize]
    }

    /// Looks a cell up by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if the name is absent.
    pub fn find(&self, name: &str) -> Result<CellTypeId, NetlistError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UnknownCell { name: name.into() })
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellTypeId, &CellType)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellTypeId(i as u16), c))
    }
}

/// Builds the synthetic 90 nm-style library used by every experiment.
///
/// Nominal delays are plausible ps values for a 90 nm process; later input
/// pins of a multi-input cell are slightly slower than the first (the pin
/// closest to the output transistor switches fastest). Sensitivities follow
/// first-order MOSFET intuition: delay is most sensitive to channel length,
/// then threshold voltage and load, least to oxide thickness.
///
/// # Example
///
/// ```
/// let lib = ssta_netlist::library::library_90nm();
/// let nand2 = lib.find("NAND2").unwrap();
/// assert_eq!(lib.cell(nand2).arity(), 2);
/// ```
pub fn library_90nm() -> Library {
    // (name, kind, base delay ps, per-pin spread ps, [sL, sTox, sVth, sCL])
    struct Spec(&'static str, GateKind, f64, f64, [f64; N_PARAMS]);
    let specs = [
        Spec("BUF", GateKind::Buf, 22.0, 0.0, [0.85, 0.40, 0.55, 0.45]),
        Spec("INV", GateKind::Not, 12.0, 0.0, [0.90, 0.42, 0.60, 0.50]),
        Spec("NAND2", GateKind::Nand, 18.0, 1.5, [0.88, 0.45, 0.58, 0.42]),
        Spec("NAND3", GateKind::Nand, 24.0, 1.8, [0.92, 0.47, 0.62, 0.40]),
        Spec("NAND4", GateKind::Nand, 31.0, 2.0, [0.95, 0.48, 0.65, 0.38]),
        Spec("NOR2", GateKind::Nor, 20.0, 1.6, [0.90, 0.44, 0.63, 0.44]),
        Spec("NOR3", GateKind::Nor, 28.0, 2.0, [0.94, 0.46, 0.66, 0.41]),
        Spec("NOR4", GateKind::Nor, 37.0, 2.4, [0.97, 0.47, 0.69, 0.39]),
        Spec("AND2", GateKind::And, 25.0, 1.5, [0.86, 0.43, 0.56, 0.46]),
        Spec("AND3", GateKind::And, 31.0, 1.8, [0.89, 0.45, 0.59, 0.44]),
        Spec("OR2", GateKind::Or, 27.0, 1.6, [0.87, 0.44, 0.58, 0.45]),
        Spec("OR3", GateKind::Or, 34.0, 2.0, [0.90, 0.45, 0.61, 0.43]),
        Spec("XOR2", GateKind::Xor, 38.0, 2.5, [0.93, 0.48, 0.64, 0.47]),
        Spec("XNOR2", GateKind::Xnor, 40.0, 2.5, [0.93, 0.48, 0.64, 0.47]),
    ];

    let arity_of = |name: &str| -> usize {
        match name.chars().last() {
            Some(c @ '2'..='4') => c as usize - '0' as usize,
            _ => 1,
        }
    };

    let cells = specs
        .iter()
        .map(|Spec(name, kind, base, spread, sens)| {
            let arity = arity_of(name);
            let delays = (0..arity).map(|pin| base + spread * pin as f64).collect();
            CellType::new(*name, *kind, delays, Sensitivity(*sens))
        })
        .collect();

    Library::new("synthetic-90nm", cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_90nm_is_well_formed() {
        let lib = library_90nm();
        assert!(!lib.is_empty());
        for (_, cell) in lib.iter() {
            assert!(cell.arity() >= 1 && cell.arity() <= 4);
            assert_eq!(cell.arc_delays_ps().len(), cell.arity());
            for pin in 0..cell.arity() {
                assert!(cell.arc_delay_ps(pin) > 0.0);
            }
            for p in ProcessParam::ALL {
                let s = cell.sensitivity().get(p);
                assert!(s > 0.0 && s < 2.0, "{} sens {s}", cell.name());
            }
        }
    }

    #[test]
    fn find_known_and_unknown_cells() {
        let lib = library_90nm();
        assert!(lib.find("INV").is_ok());
        assert!(lib.find("NOR2").is_ok());
        let err = lib.find("SUPERGATE99").unwrap_err();
        assert!(matches!(err, NetlistError::UnknownCell { .. }));
    }

    #[test]
    fn arity_matches_name_suffix() {
        let lib = library_90nm();
        for (name, arity) in [("INV", 1), ("NAND2", 2), ("NAND3", 3), ("NOR4", 4)] {
            let id = lib.find(name).unwrap();
            assert_eq!(lib.cell(id).arity(), arity, "{name}");
        }
    }

    #[test]
    fn later_pins_are_slower() {
        let lib = library_90nm();
        let id = lib.find("NAND4").unwrap();
        let d = lib.cell(id).arc_delays_ps();
        for w in d.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn param_indices_are_stable() {
        for (i, p) in ProcessParam::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn cell_rejects_non_positive_delay() {
        let _ = CellType::new(
            "BAD",
            GateKind::And,
            vec![1.0, 0.0],
            Sensitivity([0.5; N_PARAMS]),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate cell name")]
    fn library_rejects_duplicates() {
        let c = CellType::new("X", GateKind::Not, vec![1.0], Sensitivity([0.5; N_PARAMS]));
        let _ = Library::new("dup", vec![c.clone(), c]);
    }
}
