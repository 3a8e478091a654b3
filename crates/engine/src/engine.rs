//! The analysis engine: one planner and executor over shared caches.
//!
//! Every call runs the same pipeline (see [`crate::pipeline`]): the
//! scenarios are **planned** into extraction-signature groups up front,
//! and each group is **resolved** once (session cache → persistent
//! [`ModelStore`] → parallel extraction), **assembled** once, and
//! analyzed once per correlation mode; one fold **reports** the whole
//! call as a [`SweepSummary`].
//!
//! The front-ends differ only in how they name the scenarios and what
//! they keep: [`Engine::analyze`] is a one-scenario batch,
//! [`Engine::analyze_batch`] runs a [`ScenarioSet`] and keeps every
//! full result, and [`Engine::analyze_sweep`] runs a lazily
//! materialized [`CornerGrid`] and keeps compact records only (unless
//! asked otherwise). Scenarios that differ only in analysis-level knobs
//! (correlation mode, yield target) share one group — one resolve, one
//! assembly — by construction, because fingerprints are derived from
//! the extraction-relevant inputs alone.
//!
//! Invalidation ([`Engine::invalidate`]) drops one module from both
//! cache tiers; the next analyze re-extracts exactly that module and
//! reuses every other cached model, which is the incremental re-analysis
//! story: an ECO in one IP block costs one extraction plus the top-level
//! assembly, never a full re-characterization.

use crate::error::EngineError;
use crate::grid::CornerGrid;
use crate::pipeline::report::SweepSummary;
use crate::pipeline::resolve::{resolve_module, Resolution};
use crate::pipeline::sweep::{self, SweepOptions};
use crate::pipeline::{singleflight::SingleFlight, SessionCache, SharedState};
use crate::scenario::{Scenario, ScenarioSet};
use crate::spec::{DesignSpec, ModuleId};
use crate::store::{FsBackend, ModelStore, StorageBackend};
use ssta_core::{
    module_fingerprint, module_fingerprint_from_digest, netlist_digest, CancelToken,
    CorrelationMode, ExtractOptions, SstaConfig, TimingModel,
};
use ssta_math::parallel::effective_threads;
use ssta_netlist::Netlist;
use std::path::Path;
use std::sync::Arc;

pub use crate::pipeline::report::{BatchRun, EngineRun, ScenarioRun};

/// A single-flight table shareable **across engines**: clone one group
/// into every worker of a serving pool and concurrent identical requests
/// coalesce their extractions across workers. (The groups of one call
/// never share a module fingerprint, so coalescing only ever happens
/// across engines or calls.)
///
/// Entries retire as soon as their leader publishes, so the group holds
/// no memoized results — it is pure concurrency dedup and is always
/// safe to keep alive across invalidations (a retired flight cannot
/// serve a stale model).
#[derive(Debug, Clone, Default)]
pub struct FlightGroup {
    flights: Arc<SingleFlight>,
}

impl FlightGroup {
    /// An empty group.
    pub fn new() -> Self {
        FlightGroup::default()
    }

    pub(crate) fn table(&self) -> &SingleFlight {
        &self.flights
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Extraction options applied to every module (part of the cache
    /// key).
    pub extract: ExtractOptions,
    /// Correlation handling for the top-level analysis.
    pub mode: CorrelationMode,
    /// The thread budget of every call: split between the call's
    /// extraction-signature groups and, within a group, its module
    /// extractions. `0` uses the available parallelism, `1` runs them
    /// one at a time. Each design analysis runs on its group's thread.
    /// Each extraction's criticality sweep runs outside this budget, at
    /// `extract.criticality.threads` (`0`, the default, uses every
    /// core). Every count produces bit-identical results.
    pub threads: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            extract: ExtractOptions::default(),
            mode: CorrelationMode::Proposed,
            threads: 0,
        }
    }
}

/// Where a resolved model came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSource {
    /// The in-memory session cache.
    Memory,
    /// The persistent model library.
    Store,
    /// Characterized and extracted in this call.
    Extracted,
}

/// A parallel, cache-backed hierarchical analysis engine.
///
/// The persistent tier is backend-agnostic: [`Engine::with_store`]
/// attaches the sharded filesystem library, [`Engine::with_backend`]
/// any other [`StorageBackend`] (e.g. a [`MemoryBackend`](crate::store::MemoryBackend)
/// for services and tests). The backend is type-erased so `Engine`
/// itself stays a single concrete type at every call site.
#[derive(Debug)]
pub struct Engine {
    config: SstaConfig,
    options: EngineOptions,
    memory: SessionCache,
    store: Option<ModelStore<Box<dyn StorageBackend>>>,
    flights: FlightGroup,
}

impl Engine {
    /// Creates an engine analyzing under `config` with default options
    /// and no persistent store.
    pub fn new(config: SstaConfig) -> Self {
        Engine::with_options(config, EngineOptions::default())
    }

    /// Creates an engine with explicit options.
    pub fn with_options(config: SstaConfig, options: EngineOptions) -> Self {
        Engine {
            config,
            options,
            memory: SessionCache::default(),
            store: None,
            flights: FlightGroup::new(),
        }
    }

    /// Shares a [`FlightGroup`] with this engine, so in-flight module
    /// resolutions coalesce with every other engine holding a clone of
    /// the same group (a serving worker pool, typically). An engine not
    /// given a group has a private one.
    pub fn with_flight_group(mut self, flights: FlightGroup) -> Self {
        self.flights = flights;
        self
    }

    /// Attaches a persistent model library rooted at `path` (created if
    /// missing). Models found there are reused across engine instances
    /// and across processes.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the directory cannot be created.
    pub fn with_store(self, path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let backend = FsBackend::open(path.as_ref().to_path_buf())?;
        Ok(self.with_backend(backend))
    }

    /// Attaches a model library over an arbitrary storage backend.
    pub fn with_backend(mut self, backend: impl StorageBackend + 'static) -> Self {
        self.store = Some(ModelStore::with_backend(backend).boxed());
        self
    }

    /// The analysis configuration.
    pub fn config(&self) -> &SstaConfig {
        &self.config
    }

    /// The engine options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The attached model library, if any.
    pub fn store(&self) -> Option<&ModelStore<Box<dyn StorageBackend>>> {
        self.store.as_ref()
    }

    /// The cache key of a module definition under this engine's
    /// configuration.
    pub fn module_key(&self, netlist: &Netlist) -> String {
        module_fingerprint(netlist, &self.config, &self.options.extract).to_hex()
    }

    /// Resolves one module to a timing model through the cache tiers,
    /// reporting where it came from. This is the tier walk an analysis
    /// runs for each missing module, without the single-flight table
    /// and without any counters.
    ///
    /// # Errors
    ///
    /// Propagates characterization/extraction and store I/O failures.
    pub fn model_for(
        &mut self,
        netlist: &Netlist,
    ) -> Result<(Arc<TimingModel>, ModelSource), EngineError> {
        let digest = netlist_digest(netlist);
        let key =
            module_fingerprint_from_digest(&digest, &self.config, &self.options.extract).to_hex();
        let (model, how) = resolve_module(
            &self.shared(1, &CancelToken::new()),
            &key,
            netlist,
            &digest,
            &self.config,
            &self.options.extract,
        )?;
        let source = match how {
            Resolution::Memory => ModelSource::Memory,
            Resolution::Store { .. } => ModelSource::Store,
            Resolution::Extracted { .. } => ModelSource::Extracted,
            Resolution::Coalesced => unreachable!("model_for resolves outside any flight"),
        };
        Ok((model, source))
    }

    /// Drops `module` of `spec` from every cache tier — under every
    /// configuration this engine has resolved it (the base setup and any
    /// scenario overlays), plus the base key itself whether or not it
    /// was ever cached. The next analyze (or batch) re-extracts exactly
    /// this module. Returns whether any tier held it.
    ///
    /// Store artifacts written under configurations this engine never
    /// resolved (other processes, other overlays) are untouched — their
    /// keys cannot be enumerated from the module alone.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if a store artifact exists but cannot
    /// be removed.
    pub fn invalidate(&mut self, spec: &DesignSpec, module: ModuleId) -> Result<bool, EngineError> {
        let def = spec
            .modules
            .get(module.0)
            .ok_or_else(|| EngineError::Spec {
                reason: format!("module id {} does not exist", module.0),
            })?;
        let digest = def.structural_digest();
        let base_key =
            module_fingerprint_from_digest(digest, &self.config, &self.options.extract).to_hex();
        // Remove the fallible tier first: if a store removal errors out,
        // the memory index is still intact and a retry sees every key
        // again. Dropping memory first would leave overlay-keyed store
        // artifacts permanently un-invalidatable after a transient error.
        let mut keys = self.memory.digest_keys(digest);
        if !keys.contains(&base_key) {
            keys.push(base_key);
        }
        let mut in_store = false;
        if let Some(store) = &self.store {
            for key in &keys {
                in_store |= store.remove(key)?;
            }
        }
        let in_memory = !self.memory.take_digest_keys(digest).is_empty();
        Ok(in_memory || in_store)
    }

    /// Drops every cached model from both tiers — including store
    /// artifacts written by other engines or processes, not just keys
    /// this engine has seen.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if store artifacts cannot be removed.
    pub fn invalidate_all(&mut self) -> Result<(), EngineError> {
        self.memory.clear();
        if let Some(store) = &self.store {
            store.clear()?;
        }
        Ok(())
    }

    /// Analyzes a design spec: deduplicate modules by fingerprint,
    /// resolve them through the caches (extracting misses in parallel),
    /// assemble the design and run the top-level hierarchical analysis.
    ///
    /// Equivalent to a single-scenario [`Engine::analyze_batch`] with an
    /// empty overlay: a one-group plan, which runs on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates spec, characterization/extraction, store and analysis
    /// failures.
    pub fn analyze(&mut self, spec: &DesignSpec) -> Result<EngineRun, EngineError> {
        let mut batch = self.analyze_batch(spec, &ScenarioSet::baseline())?;
        let run = batch.scenarios.pop().expect("baseline has one scenario");
        Ok(EngineRun {
            timing: Arc::unwrap_or_clone(run.timing),
            stats: batch.stats,
        })
    }

    /// Analyzes one design spec under every scenario of a set, sharing
    /// this engine's caches and store across all of them, and keeps
    /// every scenario's full result.
    ///
    /// Scenarios are planned into extraction-signature groups first: a
    /// set whose scenarios resolve to K distinct `(config, extract)`
    /// pairs runs K resolve + assemble passes, in parallel (bounded by
    /// [`EngineOptions::threads`]; `1` forces a serial run), so a batch
    /// performs at most
    /// [`SweepSummary::distinct_fingerprints`] extractions. Extraction
    /// is deterministic, so batch results are bit-identical to running
    /// the scenarios one at a time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Spec`] for an empty scenario set or a
    /// duplicated scenario name, and propagates the failing group's
    /// error for the lowest affected scenario.
    pub fn analyze_batch(
        &mut self,
        spec: &DesignSpec,
        scenarios: &ScenarioSet,
    ) -> Result<BatchRun, EngineError> {
        self.analyze_batch_cancellable(spec, scenarios, &CancelToken::new())
    }

    /// [`Engine::analyze_batch`] with a cooperative [`CancelToken`].
    ///
    /// The pipeline polls `cancel` at stage checkpoints — before each
    /// group's resolve, before each module resolution, between resolve
    /// and assemble, and before each correlation mode's analysis — and
    /// returns [`EngineError::Cancelled`] at the first one that fires.
    /// Cancellation never interrupts work mid-kernel: a module
    /// resolution this request *leads* runs to completion (other
    /// requests may be waiting on it) and its model is published to the
    /// caches as usual, while a resolution this request merely *follows*
    /// is detached from immediately. A token with a deadline
    /// ([`CancelToken::with_timeout`]) turns a latency budget into an
    /// automatic mid-pipeline stop.
    ///
    /// # Errors
    ///
    /// As [`Engine::analyze_batch`], plus [`EngineError::Cancelled`]
    /// once the token fires.
    pub fn analyze_batch_cancellable(
        &mut self,
        spec: &DesignSpec,
        scenarios: &ScenarioSet,
        cancel: &CancelToken,
    ) -> Result<BatchRun, EngineError> {
        if scenarios.is_empty() {
            return Err(EngineError::Spec {
                reason: "a batch needs at least one scenario".into(),
            });
        }
        // Duplicate labels would make per-scenario reporting ambiguous
        // (`BatchRun::scenario` returns the first match); reject them up
        // front with the offending name.
        if let Some(name) = scenarios.duplicate_name() {
            return Err(EngineError::Spec {
                reason: format!("duplicate scenario name {name:?} in batch"),
            });
        }
        self.run(spec, scenarios.iter().cloned(), true, cancel)
            .map(BatchRun::from)
    }

    /// Sweeps one design spec across a [`CornerGrid`] of scenario
    /// overlays — the mega-sweep front-end for hundreds-to-thousands of
    /// corners.
    ///
    /// Corners are materialized lazily and planned like any batch: a
    /// grid with N corners and K distinct `(config, extract)` groups
    /// runs exactly K resolve + assemble passes, and corners differing
    /// only in correlation mode or yield target share one design
    /// analysis outright. Each corner's compact record lands in the
    /// returned [`SweepSummary`]; full results are dropped as soon as
    /// each mode bucket summarizes, keeping peak resident memory
    /// O(workers) (see [`SweepOptions::retain_results`] to keep them
    /// all).
    ///
    /// Results are bit-identical to analyzing each corner one at a time
    /// with [`Engine::analyze`], for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates the failing group's error for the lowest affected
    /// corner index.
    pub fn analyze_sweep(
        &mut self,
        spec: &DesignSpec,
        grid: &CornerGrid,
        options: &SweepOptions,
    ) -> Result<SweepSummary, EngineError> {
        self.analyze_sweep_cancellable(spec, grid, options, &CancelToken::new())
    }

    /// [`Engine::analyze_sweep`] with a cooperative [`CancelToken`],
    /// polled at the same stage checkpoints as
    /// [`Engine::analyze_batch_cancellable`].
    ///
    /// # Errors
    ///
    /// As [`Engine::analyze_sweep`], plus [`EngineError::Cancelled`]
    /// once the token fires.
    pub fn analyze_sweep_cancellable(
        &mut self,
        spec: &DesignSpec,
        grid: &CornerGrid,
        options: &SweepOptions,
        cancel: &CancelToken,
    ) -> Result<SweepSummary, EngineError> {
        self.run(spec, grid.iter(), options.retain_results, cancel)
    }

    /// Plans and executes `scenarios` over this engine's caches with
    /// the engine's whole thread budget.
    fn run(
        &self,
        spec: &DesignSpec,
        scenarios: impl IntoIterator<Item = Scenario>,
        retain: bool,
        cancel: &CancelToken,
    ) -> Result<SweepSummary, EngineError> {
        sweep::run(
            spec,
            scenarios,
            &self.config,
            &self.options.extract,
            self.options.mode,
            retain,
            self.shared(effective_threads(self.options.threads), cancel),
        )
    }

    /// This engine's caches and store, as the pipeline shares them.
    fn shared<'a>(&'a self, threads: usize, cancel: &'a CancelToken) -> SharedState<'a> {
        SharedState {
            cache: &self.memory,
            flights: self.flights.table(),
            store: self.store.as_ref(),
            threads,
            cancel,
        }
    }
}
