//! Sequential cells: statistical flip-flop/latch models and registered
//! modules.
//!
//! Combinational cells carry pin-to-output arc delays; sequential cells
//! carry three *clocked* quantities instead, each with the same
//! first-order delay model `q = q₀ · (1 + Σ_p s_p · δ_p)`:
//!
//! * **clock-to-q** — the launch delay from the active clock edge to the
//!   Q output;
//! * **setup** — how long D must be stable *before* the capturing edge;
//! * **hold** — how long D must be stable *after* it.
//!
//! A [`RegisteredModule`] pairs a combinational core with one register
//! cell banked across every core input (the input-registered convention:
//! each module input port is the D pin of its register, outputs launch
//! from the shared clock). This is the netlist-side substrate the
//! sequential model extraction in `ssta-core` characterizes into
//! statistical constraint arcs.

use crate::library::{Sensitivity, N_PARAMS};
use crate::{Netlist, NetlistError};
use serde::Serialize;
use std::fmt;

/// The storage-element family of a sequential cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SeqKind {
    /// Edge-triggered D flip-flop: samples D on the active clock edge.
    Dff,
    /// Level-sensitive D latch: transparent while the clock is active.
    Latch,
}

impl SeqKind {
    /// Short display name (`"DFF"` / `"latch"`).
    pub fn name(self) -> &'static str {
        match self {
            SeqKind::Dff => "DFF",
            SeqKind::Latch => "latch",
        }
    }
}

impl fmt::Display for SeqKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A sequential library cell: one D input, one clock pin, one Q output,
/// with nominal clocked quantities and process-parameter sensitivities.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeqCellType {
    name: String,
    kind: SeqKind,
    clock_pin: String,
    clk_to_q_ps: f64,
    setup_ps: f64,
    hold_ps: f64,
    sensitivity: Sensitivity,
}

impl SeqCellType {
    /// Creates a sequential cell type.
    ///
    /// # Panics
    ///
    /// Panics if clock-to-q, setup or hold is non-positive.
    pub fn new(
        name: impl Into<String>,
        kind: SeqKind,
        clock_pin: impl Into<String>,
        clk_to_q_ps: f64,
        setup_ps: f64,
        hold_ps: f64,
        sensitivity: Sensitivity,
    ) -> Self {
        assert!(clk_to_q_ps > 0.0, "clock-to-q must be positive");
        assert!(setup_ps > 0.0, "setup must be positive");
        assert!(hold_ps > 0.0, "hold must be positive");
        SeqCellType {
            name: name.into(),
            kind,
            clock_pin: clock_pin.into(),
            clk_to_q_ps,
            setup_ps,
            hold_ps,
            sensitivity,
        }
    }

    /// Cell name, e.g. `"DFF"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Storage-element family.
    pub fn kind(&self) -> SeqKind {
        self.kind
    }

    /// Name of the clock pin (`"clk"` in the synthetic library).
    pub fn clock_pin(&self) -> &str {
        &self.clock_pin
    }

    /// Nominal clock-to-q launch delay in picoseconds.
    pub fn clk_to_q_ps(&self) -> f64 {
        self.clk_to_q_ps
    }

    /// Nominal setup requirement in picoseconds.
    pub fn setup_ps(&self) -> f64 {
        self.setup_ps
    }

    /// Nominal hold requirement in picoseconds.
    pub fn hold_ps(&self) -> f64 {
        self.hold_ps
    }

    /// Process-parameter sensitivities of every clocked quantity.
    pub fn sensitivity(&self) -> &Sensitivity {
        &self.sensitivity
    }
}

/// An immutable collection of sequential cell types indexed by name.
#[derive(Debug, Clone, Serialize)]
pub struct SeqLibrary {
    name: String,
    cells: Vec<SeqCellType>,
}

impl SeqLibrary {
    /// Creates a sequential library from a list of cell types.
    ///
    /// # Panics
    ///
    /// Panics on duplicate cell names.
    pub fn new(name: impl Into<String>, cells: Vec<SeqCellType>) -> Self {
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert!(a.name() != b.name(), "duplicate cell name {}", a.name());
            }
        }
        SeqLibrary {
            name: name.into(),
            cells,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell types.
    pub fn cells(&self) -> &[SeqCellType] {
        &self.cells
    }

    /// Looks a sequential cell up by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if the name is absent.
    pub fn find(&self, name: &str) -> Result<&SeqCellType, NetlistError> {
        self.cells
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| NetlistError::UnknownCell { name: name.into() })
    }
}

/// Builds the synthetic 90 nm-style sequential library paired with
/// [`library_90nm`](crate::library::library_90nm).
///
/// Clock-to-q, setup and hold are plausible ps values for 90 nm
/// flip-flops; sensitivities follow the same first-order MOSFET intuition
/// as the combinational cells (channel length dominates, then threshold
/// voltage). The latch is transparent-high with a shorter setup but a
/// longer hold than the edge-triggered cells.
///
/// # Example
///
/// ```
/// let lib = ssta_netlist::sequential::seq_library_90nm();
/// let dff = lib.find("DFF").unwrap();
/// assert!(dff.clk_to_q_ps() > dff.hold_ps());
/// ```
pub fn seq_library_90nm() -> SeqLibrary {
    // (name, kind, clk→q ps, setup ps, hold ps, [sL, sTox, sVth, sCL])
    struct Spec(&'static str, SeqKind, f64, f64, f64, [f64; N_PARAMS]);
    let specs = [
        Spec(
            "DFF",
            SeqKind::Dff,
            64.0,
            42.0,
            24.0,
            [0.91, 0.44, 0.62, 0.48],
        ),
        Spec(
            "DFFX2",
            SeqKind::Dff,
            49.0,
            36.0,
            19.0,
            [0.88, 0.43, 0.58, 0.52],
        ),
        Spec(
            "DLATCH",
            SeqKind::Latch,
            55.0,
            30.0,
            31.0,
            [0.90, 0.45, 0.61, 0.47],
        ),
    ];
    let cells = specs
        .iter()
        .map(|Spec(name, kind, c2q, su, ho, sens)| {
            SeqCellType::new(*name, *kind, "clk", *c2q, *su, *ho, Sensitivity(*sens))
        })
        .collect();
    SeqLibrary::new("synthetic-90nm-seq", cells)
}

/// A register-bounded module: a combinational core whose every input is
/// fed by one register of a shared bank, all clocked by one clock pin.
///
/// The module's input ports are the D pins of the input registers; its
/// output ports are the core's combinational outputs, which launch from
/// the clock edge through clock-to-q plus the core logic. This is the
/// interface shape hierarchical sequential extraction characterizes:
/// per-input setup/hold constraint arcs, per-output clock-to-output
/// launch arcs.
#[derive(Debug, Clone, Serialize)]
pub struct RegisteredModule {
    core: Netlist,
    register: SeqCellType,
}

impl RegisteredModule {
    /// Wraps a combinational core with an input register bank.
    ///
    /// # Errors
    ///
    /// Propagates core validation failures ([`Netlist::validate`]).
    pub fn new(core: Netlist, register: SeqCellType) -> Result<Self, NetlistError> {
        core.validate()?;
        Ok(RegisteredModule { core, register })
    }

    /// Module name (the core netlist's name).
    pub fn name(&self) -> &str {
        self.core.name()
    }

    /// The combinational core between the register bank and the outputs.
    pub fn core(&self) -> &Netlist {
        &self.core
    }

    /// The register cell banked across every core input.
    pub fn register(&self) -> &SeqCellType {
        &self.register
    }

    /// Number of registers in the input bank (= core inputs).
    pub fn n_registers(&self) -> usize {
        self.core.n_inputs()
    }

    /// Number of module outputs (= core outputs).
    pub fn n_outputs(&self) -> usize {
        self.core.n_outputs()
    }

    /// The clock pin name shared by the whole register bank.
    pub fn clock_pin(&self) -> &str {
        self.register.clock_pin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn seq_library_is_well_formed() {
        let lib = seq_library_90nm();
        assert!(!lib.cells().is_empty());
        for cell in lib.cells() {
            assert!(cell.clk_to_q_ps() > 0.0);
            assert!(cell.setup_ps() > 0.0);
            assert!(cell.hold_ps() > 0.0);
            assert_eq!(cell.clock_pin(), "clk");
            for s in cell.sensitivity().0 {
                assert!(s > 0.0 && s < 2.0);
            }
        }
        assert!(lib.find("DFF").is_ok());
        assert!(matches!(
            lib.find("SUPERFLOP"),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn faster_dff_variant_is_faster_everywhere() {
        let lib = seq_library_90nm();
        let dff = lib.find("DFF").unwrap();
        let x2 = lib.find("DFFX2").unwrap();
        assert!(x2.clk_to_q_ps() < dff.clk_to_q_ps());
        assert!(x2.setup_ps() < dff.setup_ps());
        assert!(x2.hold_ps() < dff.hold_ps());
    }

    #[test]
    fn registered_module_mirrors_core_shape() {
        let core = generators::ripple_carry_adder(4).unwrap();
        let reg = seq_library_90nm().find("DFF").unwrap().clone();
        let m = RegisteredModule::new(core, reg).unwrap();
        assert_eq!(m.n_registers(), 9);
        assert_eq!(m.n_outputs(), 5);
        assert_eq!(m.clock_pin(), "clk");
        assert_eq!(m.name(), "rca4");
    }

    #[test]
    fn registered_module_rejects_invalid_core() {
        // A core with an unused input fails validation.
        let lib = std::sync::Arc::new(crate::library::library_90nm());
        let mut b = Netlist::builder("bad", lib, 2);
        let g = b
            .add_gate_by_name("INV", &[crate::Signal::Input(0)])
            .unwrap();
        b.add_output(g).unwrap();
        let core = b.finish().unwrap();
        let reg = seq_library_90nm().find("DFF").unwrap().clone();
        assert!(RegisteredModule::new(core, reg).is_err());
    }

    #[test]
    #[should_panic(expected = "setup must be positive")]
    fn seq_cell_rejects_non_positive_setup() {
        let _ = SeqCellType::new(
            "BAD",
            SeqKind::Dff,
            "clk",
            10.0,
            0.0,
            1.0,
            Sensitivity([0.5; N_PARAMS]),
        );
    }
}
