//! The traced run's replay of one analysis, layer by layer, through each
//! layer's public functions — the same calls, in the same order and on
//! the same thread fan-out, as `Engine::analyze` / `analyze_sweep`
//! make internally:
//!
//! plan (fingerprints) → resolve (session cache → store get + envelope
//! → decode, or characterize → criticality → extract → encode → store
//! put) → design → basis (partition, covariance, PCA) → replace
//! (variable replacement, graph flattening) → level schedule →
//! propagate, at the workload's own thread count and again at one
//! thread.
//!
//! Every call is wrapped in a span named after its layer; counts are
//! taken at the same boundaries. The replay returns the design timing,
//! which callers check bit for bit against the engine's own result.

use crate::stats::form_bits;
use crate::trace::Scope;
use ssta_core::codec::{decode_model, encode_model};
use ssta_core::criticality::edge_criticalities;
use ssta_core::{
    assemble_design_graph_with_basis, module_fingerprint_from_digest, propagate_assembled,
    AnalyzeOptions, AssembledDesign, CorrelationMode, Design, DesignTiming, DesignVariables,
    ExtractOptions, LevelSchedule, ModuleContext, SstaConfig, TimingModel,
};
use ssta_engine::store::{decode_envelope, encode_envelope, Codec};
use ssta_engine::{DesignSpec, StorageBackend};
use ssta_math::parallel::parallel_indexed;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Work counted per operation, at the layer boundaries of the replay.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Σ inputs × outputs over the graphs whose criticality was swept.
    pub criticality_pairs: u64,
    pub repaired_pairs: u64,
    pub merge_rounds: u64,
    pub model_edges: u64,
    /// Model payload bytes encoded plus decoded.
    pub codec_bytes: u64,
    pub store_writes: u64,
    pub store_hits: u64,
    pub extractions: u64,
    pub memory_hits: u64,
    pub resolutions: u64,
    /// Design graphs assembled, and Σ of their local components.
    pub analyses: u64,
    pub local_components: u64,
    /// Level schedules built, and Σ of their level counts and widths.
    pub schedules: u64,
    pub levels: u64,
    pub max_width: u64,
}

impl Counts {
    pub fn absorb(&mut self, other: &Counts) {
        self.criticality_pairs += other.criticality_pairs;
        self.repaired_pairs += other.repaired_pairs;
        self.merge_rounds += other.merge_rounds;
        self.model_edges += other.model_edges;
        self.codec_bytes += other.codec_bytes;
        self.store_writes += other.store_writes;
        self.store_hits += other.store_hits;
        self.extractions += other.extractions;
        self.memory_hits += other.memory_hits;
        self.resolutions += other.resolutions;
        self.analyses += other.analyses;
        self.local_components += other.local_components;
        self.schedules += other.schedules;
        self.levels += other.levels;
        self.max_width += other.max_width;
    }
}

/// An emulated engine worker's session cache: fingerprint → model.
pub type Session = Mutex<HashMap<String, Arc<TimingModel>>>;

/// The fingerprint of every module definition of `spec` under one
/// `(config, extract)` pair — the engine's cache keys.
pub fn fingerprints(
    spec: &DesignSpec,
    config: &SstaConfig,
    extract: &ExtractOptions,
) -> Vec<String> {
    spec.modules()
        .iter()
        .map(|m| module_fingerprint_from_digest(m.structural_digest(), config, extract).to_hex())
        .collect()
}

/// Stage 1: [`fingerprints`], traced.
pub fn plan(
    scope: Scope<'_>,
    spec: &DesignSpec,
    config: &SstaConfig,
    extract: &ExtractOptions,
) -> Vec<String> {
    scope.span("engine.plan", |_| fingerprints(spec, config, extract))
}

/// Opens a stored artifact's envelope and decodes its model, also
/// returning the payload size.
fn decode(bytes: &[u8]) -> Result<(TimingModel, usize), String> {
    let envelope = decode_envelope(bytes).map_err(|e| e.to_string())?;
    let model = decode_model(envelope.payload).map_err(|e| e.to_string())?;
    Ok((model, envelope.payload.len()))
}

/// A model that must be in the store, read outside any span.
pub fn stored_model(store: &dyn StorageBackend, key: &str) -> Result<Arc<TimingModel>, String> {
    let bytes = store
        .get(key)
        .map_err(|e| format!("store read of {key}: {e}"))?
        .ok_or_else(|| format!("model {key} missing from the store"))?;
    Ok(Arc::new(decode(&bytes)?.0))
}

/// Stage 2: one model per module definition (indexed like
/// `spec.modules()`), through the session cache, the store and, on a
/// miss, extraction — misses fanned out over `threads` workers like the
/// engine's resolve stage.
#[allow(clippy::too_many_arguments)]
pub fn resolve(
    scope: Scope<'_>,
    spec: &DesignSpec,
    keys: &[String],
    session: &Session,
    store: Option<&dyn StorageBackend>,
    config: &SstaConfig,
    extract: &ExtractOptions,
    threads: usize,
    counts: &mut Counts,
) -> Result<Vec<Arc<TimingModel>>, String> {
    scope.span("engine.resolve", |scope| {
        counts.resolutions += keys.len() as u64;
        let mut models: Vec<Option<Arc<TimingModel>>> = {
            let cache = session.lock().expect("session lock");
            keys.iter().map(|k| cache.get(k).cloned()).collect()
        };
        let misses: Vec<usize> = (0..keys.len()).filter(|&i| models[i].is_none()).collect();
        counts.memory_hits += (keys.len() - misses.len()) as u64;
        let resolved = parallel_indexed(misses.len(), threads.min(misses.len()), |j| {
            let i = misses[j];
            resolve_miss(scope, spec, &keys[i], i, store, config, extract)
        });
        for (&i, outcome) in misses.iter().zip(resolved) {
            let (model, job_counts) = outcome?;
            counts.absorb(&job_counts);
            session
                .lock()
                .expect("session lock")
                .insert(keys[i].clone(), Arc::clone(&model));
            models[i] = Some(model);
        }
        Ok(models
            .into_iter()
            .map(|m| m.expect("resolved above"))
            .collect())
    })
}

/// One session-cache miss: a store read, else a full extraction and a
/// store write.
fn resolve_miss(
    scope: Scope<'_>,
    spec: &DesignSpec,
    key: &str,
    module: usize,
    store: Option<&dyn StorageBackend>,
    config: &SstaConfig,
    extract: &ExtractOptions,
) -> Result<(Arc<TimingModel>, Counts), String> {
    let mut counts = Counts::default();
    if let Some(store) = store {
        let bytes = scope
            .span("engine.store.load", |_| store.get(key))
            .map_err(|e| format!("store read of {key}: {e}"))?;
        if let Some(bytes) = bytes {
            let (model, payload) = scope.span("core.codec.decode", |_| decode(&bytes))?;
            counts.codec_bytes += payload as u64;
            counts.store_hits += 1;
            return Ok((Arc::new(model), counts));
        }
    }
    let netlist = &spec.modules()[module].netlist;
    let ctx = scope
        .span("core.characterize", |_| {
            ModuleContext::characterize((**netlist).clone(), config)
        })
        .map_err(|e| format!("characterize {}: {e}", netlist.name()))?;
    scope
        .span("core.criticality", |_| {
            edge_criticalities(ctx.graph(), &ctx.zero(), &extract.criticality)
        })
        .map_err(|e| format!("criticality of {}: {e}", netlist.name()))?;
    counts.criticality_pairs += (ctx.graph().inputs().len() * ctx.graph().outputs().len()) as u64;
    let model = scope
        .span("core.extract", |_| ctx.extract_model(extract))
        .map_err(|e| format!("extract {}: {e}", netlist.name()))?;
    counts.extractions += 1;
    counts.repaired_pairs += model.stats().repaired_pairs as u64;
    counts.merge_rounds += model.stats().merge_rounds as u64;
    counts.model_edges += model.stats().model_edges as u64;
    if let Some(store) = store {
        let payload = scope.span("core.codec.encode", |_| encode_model(&model));
        counts.codec_bytes += payload.len() as u64;
        scope
            .span("engine.store.save", |_| {
                store.put(key, &encode_envelope(Codec::default(), &payload))
            })
            .map_err(|e| format!("store write of {key}: {e}"))?;
        counts.store_writes += 1;
    }
    Ok((Arc::new(model), counts))
}

/// Steps 1–2 of the design analysis: partition, covariance and PCA.
pub fn basis(scope: Scope<'_>, design: &Design, threads: usize) -> Result<DesignVariables, String> {
    scope
        .span("core.hier.basis", |_| {
            DesignVariables::build_profiled(design, threads)
        })
        .map(|(vars, _)| vars)
        .map_err(|e| format!("design basis: {e}"))
}

/// Step 3: variable replacement and graph flattening.
pub fn replace(
    scope: Scope<'_>,
    design: &Design,
    mode: CorrelationMode,
    threads: usize,
    basis: Option<&DesignVariables>,
    counts: &mut Counts,
) -> Result<AssembledDesign, String> {
    let assembled = scope
        .span("core.hier.replace", |_| {
            assemble_design_graph_with_basis(design, mode, &AnalyzeOptions { threads }, basis)
        })
        .map_err(|e| format!("replacement: {e}"))?;
    counts.analyses += 1;
    counts.local_components += assembled.n_local_components as u64;
    Ok(assembled)
}

/// The level schedule of an assembled graph.
pub fn schedule(
    scope: Scope<'_>,
    assembled: &AssembledDesign,
    counts: &mut Counts,
) -> Result<LevelSchedule, String> {
    let schedule = scope
        .span("timing.levels.schedule", |_| {
            LevelSchedule::build(&assembled.graph)
        })
        .map_err(|e| format!("level schedule: {e}"))?;
    counts.schedules += 1;
    counts.levels += schedule.n_levels() as u64;
    counts.max_width += schedule.max_width() as u64;
    Ok(schedule)
}

/// Step 4 at `threads`, then — when that is more than one — again at
/// one thread, which must give the same bits.
pub fn propagate(
    scope: Scope<'_>,
    assembled: &AssembledDesign,
    schedule: &LevelSchedule,
    threads: usize,
) -> Result<DesignTiming, String> {
    let timing = scope
        .span("timing.levels.propagate", |_| {
            propagate_assembled(assembled, schedule, threads)
        })
        .map_err(|e| format!("propagation: {e}"))?;
    if threads > 1 {
        let serial = scope
            .span("timing.levels.propagate_serial", |_| {
                propagate_assembled(assembled, schedule, 1)
            })
            .map_err(|e| format!("serial propagation: {e}"))?;
        if form_bits(&serial.delay) != form_bits(&timing.delay) {
            return Err(format!(
                "propagation at {threads} threads differs from one thread"
            ));
        }
    }
    Ok(timing)
}

/// One whole design analysis (what `analyze_with` runs): basis,
/// replacement, schedule and propagation.
pub fn analyze(
    scope: Scope<'_>,
    design: &Design,
    mode: CorrelationMode,
    threads: usize,
    counts: &mut Counts,
) -> Result<DesignTiming, String> {
    let vars = match mode {
        CorrelationMode::Proposed => Some(basis(scope, design, threads)?),
        CorrelationMode::GlobalOnly => None,
    };
    let assembled = replace(scope, design, mode, threads, vars.as_ref(), counts)?;
    let levels = schedule(scope, &assembled, counts)?;
    propagate(scope, &assembled, &levels, threads)
}
