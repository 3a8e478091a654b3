//! Hierarchical statistical static timing analysis — the core of the
//! DATE 2009 paper by Li, Chen, Schmidt, Schneider and Schlichtmann.
//!
//! The crate provides, bottom-up:
//!
//! * [`CanonicalForm`] — the first-order Gaussian delay form with exact
//!   `sum` and Clark moment-matched `max` (Section II);
//! * [`spatial`] / [`SstaConfig`] — the grid-based spatial-correlation
//!   model and the paper's process-variation configuration (Section II/VI);
//! * [`ModuleContext`] — module characterization: placement, grid
//!   partition, the PCA basis every parameter shares, and the
//!   statistical timing graph;
//! * [`criticality`] — all-pairs edge criticality (Section IV-B);
//! * [`extract`] — gray-box timing-model extraction: criticality pruning
//!   plus serial/parallel merges (Section IV), producing a
//!   [`TimingModel`];
//! * [`codec`] — the deterministic binary wire format for extracted
//!   models (SSTM payload codec 1): bit-exact `f64`s, varint topology,
//!   roughly 2–3× smaller than the JSON encoding;
//! * [`hier`] — hierarchical design analysis with heterogeneous grids and
//!   independent-variable replacement (Section V);
//! * [`scenario`] — named what-if overlays of the analysis setup, split
//!   into extraction-relevant and analysis-level knobs so sweeps share
//!   cached models wherever the math allows;
//! * [`yield_analysis`] — delay-yield utilities;
//! * [`cancel`] — the cooperative [`CancelToken`] that serving layers
//!   thread through long-running analyses (the deterministic fork-join
//!   helpers live in [`ssta_math::parallel`]).
//!
//! # Example: extract a timing model and inspect its compression
//!
//! ```
//! use ssta_core::{ExtractOptions, ModuleContext, SstaConfig};
//! use ssta_netlist::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = generators::ripple_carry_adder(8)?;
//! let ctx = ModuleContext::characterize(netlist, &SstaConfig::paper())?;
//! let model = ctx.extract_model(&ExtractOptions::default())?;
//! println!(
//!     "compressed {} -> {} edges",
//!     model.stats().original_edges,
//!     model.edge_count()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod error;
mod module;
mod params;

pub mod cancel;
pub mod codec;
pub mod criticality;
pub mod extract;
pub mod fingerprint;
pub mod hier;
pub mod scenario;
pub mod spatial;
pub mod yield_analysis;

pub use cancel::{CancelToken, Cancelled};
pub use canonical::CanonicalForm;
pub use criticality::CriticalityOptions;
pub use error::CoreError;
pub use extract::{
    extract_registered, ConstraintArc, ExtractOptions, ExtractionStats, SequentialModel,
    TimingModel,
};
pub use fingerprint::{
    extraction_signature, module_fingerprint, module_fingerprint_from_digest, netlist_digest,
    ModuleFingerprint, NetlistDigest,
};
pub use hier::{
    analyze, assemble_design_graph, assemble_design_graph_with_basis, propagate_assembled,
    AnalyzeOptions, AssembledDesign, CorrelationMode, Design, DesignBuilder, DesignTiming,
    PhaseTimings,
};
pub use hier::{analyze_sequential, SequentialAnalyzeOptions, SequentialTiming, StageTiming};
pub use hier::{DesignVariables, InstanceReplacement};
// `propagate_assembled` takes the schedule type by reference, so re-export
// it — callers shouldn't need a direct ssta-timing dependency to name it.
pub use module::ModuleContext;
pub use params::{ParameterSpec, SstaConfig, VariableLayout};
pub use scenario::ScenarioOverlay;
pub use spatial::{CorrelationModel, GridGeometry};
pub use ssta_timing::LevelSchedule;
