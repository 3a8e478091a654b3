//! Gate-level netlist substrate for hierarchical SSTA.
//!
//! The DATE'09 paper evaluates on the ISCAS85 benchmarks mapped to an
//! industrial 90 nm library, with a placement that defines each cell's
//! spatial-correlation grid. None of those artifacts are available offline,
//! so this crate rebuilds the whole substrate:
//!
//! * [`GateKind`] / [`library`] — combinational gate functions and a
//!   synthetic 90 nm-style [`Library`] whose cells carry
//!   per-arc nominal delays and sensitivities to the four process
//!   parameters the paper varies (transistor length, oxide thickness,
//!   threshold voltage, output load);
//! * [`Netlist`] — an acyclic-by-construction combinational netlist with
//!   validation and statistics;
//! * [`simulate`] — topological logic simulation, used to prove the
//!   generated array multiplier actually multiplies;
//! * [`placement`] — a deterministic row placement that gives every cell a
//!   die coordinate (grid membership for the correlation model);
//! * [`generators`] — circuit generators calibrated to the published
//!   ISCAS85 timing-graph sizes, including a real 16×16 array multiplier
//!   standing in for c6288 (the Fig. 7 experiment depends on its array
//!   structure, which a calibrated random DAG would not have);
//! * [`sequential`] — flip-flop/latch cells with statistical clock-to-q,
//!   setup and hold, plus [`RegisteredModule`] and a registered-pipeline
//!   generator for multi-stage sequential designs.
//!
//! # Example
//!
//! ```
//! use ssta_netlist::generators;
//!
//! # fn main() -> Result<(), ssta_netlist::NetlistError> {
//! let adder = generators::ripple_carry_adder(4)?;
//! assert_eq!(adder.n_inputs(), 9); // two 4-bit operands + carry-in
//! assert_eq!(adder.n_outputs(), 5); // 4-bit sum + carry-out
//! adder.validate()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gate;
mod netlist;

pub mod generators;
pub mod library;
pub mod placement;
pub mod sequential;
pub mod simulate;

pub use error::NetlistError;
pub use gate::GateKind;
pub use library::{CellType, CellTypeId, Library, ProcessParam, Sensitivity, N_PARAMS};
pub use netlist::{Gate, Netlist, NetlistBuilder, NetlistStats, Signal};
pub use placement::{DieRect, Placement};
pub use sequential::{seq_library_90nm, RegisteredModule, SeqCellType, SeqKind, SeqLibrary};
