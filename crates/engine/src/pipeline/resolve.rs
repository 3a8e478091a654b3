//! Stage 2 — resolve: turn every planned fingerprint into a model.
//!
//! Three tiers, cheapest first:
//!
//! 1. the shared in-memory session cache;
//! 2. the persistent model library (when attached), with corrupt
//!    artifacts rejected, counted and transparently recomputed;
//! 3. characterization + extraction, fanned out over scoped worker
//!    threads.
//!
//! Tiers 2 and 3 run inside the engine's [`SingleFlight`] table: when
//! several engines sharing a [`FlightGroup`](crate::FlightGroup) miss on
//! the same fingerprint concurrently, one
//! *leads* (loads or extracts, then publishes to the store and session
//! cache) and the rest *coalesce* — they block on the leader and share
//! its model. Extraction is a deterministic pure function of the
//! fingerprinted inputs, so neither the thread count nor who wins the
//! leader race can change any result bit — only the wall clock.
//!
//! One tier function, [`resolve_module`], does a leader's work; it is
//! also all of [`Engine::model_for`](crate::Engine::model_for), which
//! resolves a single module outside any flight.

use crate::error::EngineError;
use crate::pipeline::SharedState;
use crate::spec::DesignSpec;
use ssta_core::{ExtractOptions, ModuleContext, NetlistDigest, SstaConfig, TimingModel};
use ssta_math::parallel::parallel_indexed;
use ssta_netlist::Netlist;
use std::sync::Arc;

/// How one planned fingerprint was satisfied;
/// [`SweepSummary::count`](crate::SweepSummary) turns it into counters.
#[derive(Debug)]
pub(crate) enum Resolution {
    /// Served from the session cache — found before any flight, or, by
    /// a flight leader, published by a just-retired flight's leader (a
    /// memory hit taken inside the flight keeps "extractions ≤ distinct
    /// fingerprints" airtight across the retire window).
    Memory,
    /// Loaded from the persistent library.
    Store {
        /// Artifact bytes read (envelope included).
        bytes: u64,
    },
    /// Characterized + extracted.
    Extracted {
        /// The store was consulted and reported a clean miss.
        missed: bool,
        /// A corrupt store artifact was rejected first (integrity or
        /// format defect in the artifact itself).
        rejected: bool,
        /// The store *read* failed (transport down, retries exhausted,
        /// breaker open) and the analysis degraded to re-extraction
        /// instead of failing.
        degraded: bool,
        /// Artifact bytes written on the best-effort store publish.
        wrote: Option<u64>,
        /// The best-effort store publish failed.
        write_failed: bool,
    },
    /// Coalesced onto another engine's in-flight resolution.
    Coalesced,
}

/// Resolves one module through the session cache, the persistent
/// library and extraction, publishing the model to both tiers — the
/// work a flight leader does, and all of
/// [`Engine::model_for`](crate::Engine::model_for).
///
/// The session-cache insert happens here, before a leader's flight
/// retires, so no later caller can slip between publication and cache
/// visibility and re-extract.
pub(crate) fn resolve_module(
    shared: &SharedState<'_>,
    key: &str,
    netlist: &Netlist,
    digest: &NetlistDigest,
    config: &SstaConfig,
    extract: &ExtractOptions,
) -> Result<(Arc<TimingModel>, Resolution), EngineError> {
    if let Some(model) = shared.cache.get(key) {
        return Ok((model, Resolution::Memory));
    }
    let mut missed = false;
    let mut rejected = false;
    let mut degraded = false;
    if let Some(store) = shared.store {
        match store.load_traced(key) {
            Ok(Some((model, info))) => {
                let model = Arc::new(model);
                shared
                    .cache
                    .insert(digest, key.to_owned(), Arc::clone(&model));
                let bytes = info.bytes as u64;
                return Ok((model, Resolution::Store { bytes }));
            }
            Ok(None) => missed = true,
            Err(e) if e.is_cancelled() => return Err(e),
            // The artifact itself is defective: reject it, count it,
            // recompute it.
            Err(EngineError::Store { .. }) => rejected = true,
            // The *read* failed — transport down, retries exhausted,
            // breaker open. Degrade to re-extraction rather than failing
            // the analysis: the store is an accelerator, never a single
            // point of failure.
            Err(_) => degraded = true,
        }
    }
    let ctx = ModuleContext::characterize(netlist.clone(), config)?;
    let model = Arc::new(ctx.extract_model(extract)?);
    let (wrote, write_failed) = match shared.store {
        // Best-effort: the model is already in hand, so a failed cache
        // write (read-only library, full disk) must not fail the
        // analysis.
        Some(store) => match store.save_traced(key, &model) {
            Ok(bytes) => (Some(bytes as u64), false),
            Err(_) => (None, true),
        },
        None => (None, false),
    };
    shared
        .cache
        .insert(digest, key.to_owned(), Arc::clone(&model));
    let how = Resolution::Extracted {
        missed,
        rejected,
        degraded,
        wrote,
        write_failed,
    };
    Ok((model, how))
}

/// Resolves every distinct planned module into the shared session
/// cache, returning how each one was satisfied.
pub(crate) fn resolve_models(
    spec: &DesignSpec,
    distinct: &[(String, usize)],
    config: &SstaConfig,
    extract: &ExtractOptions,
    shared: &SharedState<'_>,
) -> Result<Vec<Resolution>, EngineError> {
    // Tier 1: the session cache, shared across groups and calls.
    let mut resolutions = Vec::with_capacity(distinct.len());
    let mut jobs: Vec<(&String, usize)> = Vec::new();
    for (key, idx) in distinct {
        if shared.cache.contains(key) {
            resolutions.push(Resolution::Memory);
        } else {
            jobs.push((key, *idx));
        }
    }
    if jobs.is_empty() {
        return Ok(resolutions);
    }

    // Tiers 2 + 3, single-flighted and fanned out over workers.
    let run_job = |i: usize| -> Result<(Arc<TimingModel>, Resolution), EngineError> {
        let (key, idx) = jobs[i];
        // Checkpoint per job: a cancelled request stops before starting
        // (or following) the next flight, never under one it leads.
        shared.cancel.checkpoint()?;
        let def = &spec.modules[idx];
        let mut led_how = None;
        let (outcome, led) = shared.flights.resolve(key, shared.cancel, || {
            // Flights auto-retire on publication, so a caller that raced
            // past the tier-1 check may lead *after* another leader
            // published; `resolve_module` then takes the cached model.
            let (model, how) = resolve_module(
                shared,
                key,
                &def.netlist,
                def.structural_digest(),
                config,
                extract,
            )?;
            led_how = Some(how);
            Ok(model)
        });
        let model = outcome?;
        let how = if led {
            led_how.expect("leader recorded its resolution")
        } else {
            Resolution::Coalesced
        };
        Ok((model, how))
    };

    let outcomes = parallel_indexed(jobs.len(), shared.threads.min(jobs.len()), run_job);

    // Collect in deterministic job order and publish to this engine's
    // session cache (a coalesced model so far sits only in the leading
    // engine's).
    for ((key, idx), outcome) in jobs.iter().zip(outcomes) {
        let (model, how) = outcome?;
        resolutions.push(how);
        let digest = spec.modules[*idx].structural_digest();
        shared.cache.insert(digest, (*key).clone(), model);
    }
    Ok(resolutions)
}
