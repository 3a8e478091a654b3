//! Hierarchical statistical timing analysis at design level (Section V).
//!
//! A hierarchical design instantiates pre-characterized timing models at
//! placed offsets. The delays inside each model are expressed in *that
//! module's* independent PCA components — composing models naively would
//! treat different modules' local variation as independent and lose the
//! spatial correlation between abutting modules.
//!
//! The paper's fix, implemented here:
//!
//! 1. [`partition`] — partition the top die with *heterogeneous grids*:
//!    module-covered area keeps the module's own characterization grids
//!    (translated), leftover area gets the default grid;
//! 2. [`replace`] — run PCA over the design-level grid covariance and
//!    substitute each module's independent variables by design-level ones
//!    (`x = Aᵀ·Bₙ·xᵗ`, equation (19));
//! 3. [`analysis`] — propagate arrival times from design inputs to design
//!    outputs through the re-correlated model graphs.

pub mod analysis;
pub mod design;
pub mod partition;
pub mod replace;
pub mod sequential;

pub use analysis::{
    analyze, assemble_design_graph, assemble_design_graph_with_basis, propagate_assembled,
    AnalyzeOptions, AssembledDesign, CorrelationMode, DesignTiming, PhaseTimings,
};
pub use design::{check_wiring, Connection, Design, DesignBuilder, Instance};
pub use partition::DesignPartition;
pub use replace::{DesignVariables, InstanceReplacement};
pub use sequential::{analyze_sequential, SequentialAnalyzeOptions, SequentialTiming, StageTiming};
