//! # hier-ssta — hierarchical statistical static timing analysis
//!
//! A Rust reproduction of *"On Hierarchical Statistical Static Timing
//! Analysis"* (Bing Li, Ning Chen, Manuel Schmidt, Walter Schneider,
//! Ulf Schlichtmann — DATE 2009).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`math`] — linear algebra, Gaussian math, Clark's max, statistics;
//! * [`netlist`] — gate-level netlists, the 90 nm-style cell library,
//!   ISCAS85-calibrated circuit generators, placement;
//! * [`timing`] — generic timing graphs, propagation, all-pairs
//!   input/output delays, a scalar STA baseline;
//! * [`core`] — the paper's contribution: canonical linear delay forms,
//!   grid-based spatial correlation, edge criticality, gray-box timing
//!   model extraction, and correlation-aware hierarchical analysis via
//!   independent-variable replacement;
//! * [`mc`] — Monte Carlo ground truth;
//! * [`engine`] — the analysis engine: a persistent content-addressed
//!   model library over pluggable storage backends (sharded filesystem
//!   or in-memory) with a compact binary artifact codec, one staged
//!   planner and executor (plan → resolve → assemble → report) behind
//!   single analyses, scenario batches and corner-grid sweeps, with
//!   fingerprint-deduplicating parallel extraction, single-flight dedup
//!   of concurrent extractions across engines, and incremental
//!   re-analysis with per-module invalidation;
//! * [`sdf`] — SDF (IEEE 1497) interchange: a position-tracking parser
//!   and deterministic writer for the subset the flow needs, plus a
//!   model exchange layer that exports statistical models as min/typ/max
//!   corners with an embedded bit-exact payload and imports foreign SDF
//!   as interface-only approximate models;
//! * [`serve`] — the in-process serving layer: a bounded two-lane
//!   request queue with admission control and load shedding, a worker
//!   pool of engines over one shared warm model store, cooperative
//!   per-request cancellation, and per-request/server-level serving
//!   statistics.
//!
//! # Quickstart
//!
//! ```
//! use hier_ssta::core::{ExtractOptions, ModuleContext, SstaConfig};
//! use hier_ssta::netlist::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small combinational module and characterize it.
//! let netlist = generators::ripple_carry_adder(8)?;
//! let ctx = ModuleContext::characterize(netlist, &SstaConfig::default())?;
//!
//! // Extract a compressed gray-box statistical timing model.
//! let model = ctx.extract_model(&ExtractOptions::default())?;
//! assert!(model.edge_count() <= ctx.graph_edge_count());
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios: IP-vendor model
//! handoff, the paper's four-multiplier hierarchical design, a
//! four-corner scenario sweep, and yield analysis.

pub use ssta_core as core;
pub use ssta_engine as engine;
pub use ssta_math as math;
pub use ssta_mc as mc;
pub use ssta_netlist as netlist;
pub use ssta_sdf as sdf;
pub use ssta_serve as serve;
pub use ssta_timing as timing;
