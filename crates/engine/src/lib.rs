//! # ssta-engine — parallel, cache-backed hierarchical analysis
//!
//! The DATE 2009 flow's whole point is that a module's extracted timing
//! model is characterized **once** and reused everywhere the module is
//! instantiated — across instances, across analysis runs, and across the
//! IP-vendor/integrator boundary. The rest of this workspace provides the
//! one-shot algorithms; this crate turns them into an engine:
//!
//! * [`ModelStore`] — a **persistent model library**: a content-addressed
//!   store keyed by a SHA-256 fingerprint of (netlist structure, library,
//!   [`SstaConfig`](ssta_core::SstaConfig),
//!   [`ExtractOptions`](ssta_core::ExtractOptions)), layered over
//!   pluggable [`StorageBackend`]s (sharded filesystem, in-memory) with
//!   one artifact format: an SSTM envelope (magic + format version +
//!   payload codec byte + integrity stamp) around the compact
//!   deterministic binary model encoding of [`ssta_core::codec`].
//!   Corrupt, wrong-version or unknown-codec artifacts are rejected
//!   cleanly and re-extracted;
//! * [`Engine`] — **one planner and executor** behind every call. The
//!   planner groups a call's scenarios by extraction signature before
//!   any work runs; each group then runs a staged pipeline (plan →
//!   resolve → assemble → report) that walks a [`DesignSpec`],
//!   deduplicates identical module definitions by fingerprint, resolves
//!   each distinct module through the in-memory and persistent cache
//!   tiers, characterizes/extracts the misses **in parallel** over
//!   scoped threads, assembles the design once and analyzes it once per
//!   correlation mode (thread count cannot change results — extraction
//!   is a deterministic pure function of the fingerprinted inputs);
//! * **two front-ends** over that executor — [`Engine::analyze_batch`]
//!   takes a [`ScenarioSet`] of named configuration overlays and keeps
//!   every full result, [`Engine::analyze_sweep`] takes a lazily
//!   materialized [`CornerGrid`] and keeps compact per-corner records.
//!   N scenarios needing the same `(module, fingerprint)` fall into one
//!   group and trigger exactly one extraction, and scenarios differing
//!   only in analysis-level knobs (correlation mode, yield target) share
//!   one assembly outright. Engines sharing a [`FlightGroup`] also
//!   coalesce concurrent extractions with each other;
//! * **incremental re-analysis** — [`Engine::invalidate`] drops one
//!   module from both tiers; the next [`Engine::analyze`] recomputes only
//!   it plus the top-level assembly, serving every other model from
//!   cache.
//!
//! # Example
//!
//! ```
//! use ssta_engine::{DesignSpec, Engine};
//! use ssta_core::SstaConfig;
//! use ssta_netlist::{generators, DieRect};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two instances of one adder, chained.
//! let netlist = generators::ripple_carry_adder(4)?;
//! let mut b = DesignSpec::builder(
//!     "pair",
//!     DieRect { width: 60.0, height: 40.0 },
//! );
//! let m = b.add_module(netlist);
//! let u0 = b.add_instance("u0", m, (0.0, 0.0))?;
//! let u1 = b.add_instance("u1", m, (30.0, 0.0))?;
//! for k in 0..4 {
//!     b.connect(u0, k, u1, k); // sum bits feed the a operand
//! }
//! b.connect(u0, 4, u1, 8); // carry chain
//! for k in 0..9 {
//!     b.expose_input(vec![(u0, k)]);
//! }
//! for k in 4..8 {
//!     b.expose_input(vec![(u1, k)]);
//! }
//! for k in 0..5 {
//!     b.expose_output(u1, k);
//! }
//! let spec = b.finish()?;
//!
//! let mut engine = Engine::new(SstaConfig::paper());
//! let run = engine.analyze(&spec)?;
//! // Two instances, one definition: exactly one extraction.
//! assert_eq!(run.stats.distinct_fingerprints, 1);
//! assert_eq!(run.stats.extractions, 1);
//! assert!(run.timing.delay.mean() > 0.0);
//!
//! // Same engine again: everything is served from memory.
//! let warm = engine.analyze(&spec)?;
//! assert_eq!(warm.stats.extractions, 0);
//! assert_eq!(warm.stats.memory_hits, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod grid;
mod pipeline;
mod scenario;
mod spec;
pub mod store;

pub use engine::{
    BatchRun, Engine, EngineOptions, EngineRun, FlightGroup, ModelSource, ScenarioRun,
};
pub use error::EngineError;
pub use grid::{CornerGrid, CornerGridBuilder, GridAxis};
pub use pipeline::report::{ScenarioRecord, SweepSummary};
pub use pipeline::sweep::SweepOptions;
pub use scenario::{Scenario, ScenarioSet};
pub use spec::{DesignSpec, DesignSpecBuilder, InstanceSpec, ModuleDef, ModuleId};
pub use store::{
    ArtifactInfo, BreakerState, Codec, FaultCounters, FaultInjectingBackend, FaultPlan, FsBackend,
    MemoryBackend, ModelStore, RemoteBackend, RetryOutcome, RetryPolicy, SdfImport, StorageBackend,
    StoreHealth, TieredBackend, TieredOptions,
};
