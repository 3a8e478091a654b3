//! Generic timing-graph substrate.
//!
//! A *timing graph* (Section II of the paper) is a weighted DAG: vertices
//! are pins/gates, edges carry delays, and the delay of a path is the sum
//! of its edge weights. Static and statistical timing analysis differ only
//! in the *algebra* of those weights — scalar `f64` for STA, canonical
//! first-order Gaussian forms for SSTA — so this crate is generic over a
//! [`DelayAlgebra`] and provides:
//!
//! * [`TimingGraph`] — a multi-edge DAG with designated input/output
//!   vertices, tombstone-based edge removal (model extraction rewrites the
//!   graph heavily) and netlist import;
//! * [`levels`] — the propagation engine: a [`LevelSchedule`] (Kahn
//!   levels + CSR adjacency) computed once per graph and reused across
//!   every pull-based forward (arrival-time) and backward (required-time)
//!   longest-path pass, each run on the calling thread;
//! * [`allpairs`] — the per-input/per-output traversals of Sapatnekar
//!   (ISCAS'96) producing the input/output [`DelayMatrix`] that timing
//!   models must preserve, one pass per input on the calling thread;
//! * [`sta`] — the scalar STA baseline (nominal and corner analysis),
//!   including critical-path extraction.
//!
//! # Example
//!
//! ```
//! use ssta_netlist::generators;
//! use ssta_timing::{sta, TimingGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = generators::ripple_carry_adder(4)?;
//! // Scalar STA: edge delay = nominal arc delay of the receiving gate.
//! let graph = TimingGraph::from_netlist(&netlist, |ctx| ctx.nominal_ps());
//! let delay = sta::graph_delay(&graph)?;
//! assert!(delay > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod error;
mod graph;

pub mod allpairs;
pub mod levels;
pub mod sta;

pub use allpairs::DelayMatrix;
pub use delay::DelayAlgebra;
pub use error::TimingError;
pub use graph::{ArcContext, Edge, EdgeId, TimingGraph, VertexId, VertexKind};
pub use levels::LevelSchedule;
