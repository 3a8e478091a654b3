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

use crate::error::EngineError;
use crate::pipeline::report::RunStats;
use crate::pipeline::SharedState;
use crate::spec::DesignSpec;
use ssta_core::{ExtractOptions, ModuleContext, SstaConfig, TimingModel};
use ssta_math::parallel::parallel_indexed;
use std::sync::Arc;

/// How one planned fingerprint was satisfied.
enum Resolution {
    /// Led the flight, but a just-retired flight's leader had already
    /// published the model to the session cache — a memory hit taken
    /// inside the flight to keep "extractions ≤ distinct fingerprints"
    /// airtight across the retire window.
    Memory,
    /// Led the flight; loaded from the persistent library.
    Store {
        /// Artifact bytes read (envelope included).
        bytes: u64,
    },
    /// Led the flight; characterized + extracted.
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

/// Resolves every distinct planned module into the shared session cache,
/// recording tier hits into `stats`.
pub(crate) fn resolve_models(
    spec: &DesignSpec,
    distinct: &[(String, usize)],
    config: &SstaConfig,
    extract: &ExtractOptions,
    shared: &SharedState<'_>,
    stats: &mut RunStats,
) -> Result<(), EngineError> {
    // Tier 1: the session cache, shared across groups and calls.
    let mut jobs: Vec<(&String, usize)> = Vec::new();
    for (key, idx) in distinct {
        if shared.cache.contains(key) {
            stats.memory_hits += 1;
            continue;
        }
        jobs.push((key, *idx));
    }
    if jobs.is_empty() {
        return Ok(());
    }

    // Tiers 2 + 3, single-flighted and fanned out over workers.
    let run_job = |i: usize| -> Result<(Arc<TimingModel>, Resolution), EngineError> {
        let (key, idx) = jobs[i];
        // Checkpoint per job: a cancelled request stops before starting
        // (or following) the next flight, never under one it leads.
        shared.cancel.checkpoint()?;
        let mut led_how = None;
        let (outcome, led) = shared.flights.resolve(key, shared.cancel, || {
            // Tier 1½: flights auto-retire on publication, so a caller
            // that raced past the tier-1 check and became leader *after*
            // another leader published must take the cached model, not
            // re-extract it.
            if let Some(model) = shared.cache.get(key) {
                led_how = Some(Resolution::Memory);
                return Ok(model);
            }
            // The leader publishes to the session cache *inside* the
            // flight (before it retires), so no later caller can slip
            // between publication and cache visibility and re-extract.
            let digest = spec.modules[idx].structural_digest();
            let mut missed = false;
            let mut rejected = false;
            let mut degraded = false;
            if let Some(store) = shared.store {
                match store.load_traced(key) {
                    Ok(Some((model, info))) => {
                        led_how = Some(Resolution::Store {
                            bytes: info.bytes as u64,
                        });
                        let model = Arc::new(model);
                        shared.cache.insert(digest, key.clone(), Arc::clone(&model));
                        return Ok(model);
                    }
                    Ok(None) => missed = true,
                    Err(e) if e.is_cancelled() => return Err(e),
                    // The artifact itself is defective: reject it,
                    // count it, recompute it.
                    Err(EngineError::Store { .. }) => rejected = true,
                    // The *read* failed — transport down, retries
                    // exhausted, breaker open. Degrade to re-extraction
                    // rather than failing the analysis: the store is an
                    // accelerator, never a single point of failure.
                    Err(_) => degraded = true,
                }
            }
            let def = &spec.modules[idx];
            let ctx = ModuleContext::characterize((*def.netlist).clone(), config)?;
            let model = Arc::new(ctx.extract_model(extract)?);
            let (wrote, write_failed) = match shared.store {
                // Best-effort: the model is already in hand, so a failed
                // cache write (read-only library, full disk) must not
                // fail the analysis.
                Some(store) => match store.save_traced(key, &model) {
                    Ok(bytes) => (Some(bytes as u64), false),
                    Err(_) => (None, true),
                },
                None => (None, false),
            };
            led_how = Some(Resolution::Extracted {
                missed,
                rejected,
                degraded,
                wrote,
                write_failed,
            });
            shared.cache.insert(digest, key.clone(), Arc::clone(&model));
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

    // Fold in deterministic job order and publish to the session cache.
    for ((key, idx), outcome) in jobs.iter().zip(outcomes) {
        let (model, how) = outcome?;
        match how {
            Resolution::Memory => stats.memory_hits += 1,
            Resolution::Store { bytes } => {
                stats.store_hits += 1;
                stats.store_bytes_read += bytes;
            }
            Resolution::Extracted {
                missed,
                rejected,
                degraded,
                wrote,
                write_failed,
            } => {
                stats.extractions += 1;
                if missed {
                    stats.store_misses += 1;
                }
                if rejected {
                    stats.store_rejects += 1;
                }
                if degraded {
                    stats.store_degraded += 1;
                }
                if let Some(bytes) = wrote {
                    stats.store_writes += 1;
                    stats.store_bytes_written += bytes;
                }
                if write_failed {
                    stats.store_write_failures += 1;
                }
            }
            Resolution::Coalesced => stats.coalesced += 1,
        }
        let digest = spec.modules[*idx].structural_digest();
        shared.cache.insert(digest, (*key).clone(), model);
    }
    Ok(())
}
