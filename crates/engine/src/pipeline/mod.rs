//! The staged analysis pipeline.
//!
//! Every analysis call — [`Engine::analyze`](crate::Engine::analyze),
//! [`Engine::analyze_batch`](crate::Engine::analyze_batch) and
//! [`Engine::analyze_sweep`](crate::Engine::analyze_sweep) — goes
//! through one planner and one executor ([`sweep`]), which split the
//! call into extraction-signature groups and run four stages per group:
//!
//! 1. **plan** ([`plan`]) — fingerprint + dedupe the instantiated module
//!    definitions under the group's resolved configuration, reusing
//!    memoized netlist digests;
//! 2. **resolve** ([`resolve`]) — satisfy every planned fingerprint
//!    through the cache tiers (session memory → persistent library →
//!    parallel extraction), single-flighted across engines sharing a
//!    [`FlightGroup`](crate::FlightGroup);
//! 3. **assemble** ([`assemble`]) — build the design from resolved
//!    models once, then run the top-level hierarchical analysis once
//!    per correlation mode;
//! 4. **report** ([`report`]) — every module's resolution and every
//!    scenario's record folded into the call's one
//!    [`SweepSummary`](report::SweepSummary), with a compact `Display`
//!    summary.
//!
//! Shared state lives in [`SharedState`]: the session cache and store
//! are shared by every group of a call (and across calls, via the
//! engine), while the [`SingleFlight`](singleflight::SingleFlight) table
//! dedupes *concurrency* between engines — the caches dedupe
//! *storage*.

pub(crate) mod assemble;
pub(crate) mod plan;
pub(crate) mod report;
pub(crate) mod resolve;
pub(crate) mod singleflight;
pub(crate) mod sweep;

use crate::store::{ModelStore, StorageBackend};
use singleflight::SingleFlight;
use ssta_core::{CancelToken, NetlistDigest, TimingModel};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The engine's in-memory model cache, shared across scenarios, runs and
/// worker threads.
///
/// Alongside the key → model map it maintains a structural-digest →
/// keys index, because one module resolves to *many* keys across
/// scenario overlays: invalidating a module must drop every
/// configuration's model, not just the base key.
#[derive(Debug, Default)]
pub(crate) struct SessionCache {
    inner: RwLock<SessionCacheInner>,
}

#[derive(Debug, Default)]
struct SessionCacheInner {
    models: HashMap<String, Arc<TimingModel>>,
    by_digest: HashMap<String, Vec<String>>,
}

impl SessionCache {
    /// The cached model for `key`, if any.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<TimingModel>> {
        self.inner
            .read()
            .expect("session cache lock")
            .models
            .get(key)
            .cloned()
    }

    /// Whether `key` is cached.
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.inner
            .read()
            .expect("session cache lock")
            .models
            .contains_key(key)
    }

    /// Caches `model` under `key`, indexed by the structural digest it
    /// was derived from.
    pub(crate) fn insert(&self, digest: &NetlistDigest, key: String, model: Arc<TimingModel>) {
        let mut inner = self.inner.write().expect("session cache lock");
        if inner.models.insert(key.clone(), model).is_none() {
            inner
                .by_digest
                .entry(digest.to_hex())
                .or_default()
                .push(key);
        }
    }

    /// Every cached key derived from `digest` (base configuration and
    /// scenario overlays alike), without dropping anything — callers
    /// remove fallible tiers first and only then commit the memory drop
    /// via [`take_digest_keys`](Self::take_digest_keys).
    pub(crate) fn digest_keys(&self, digest: &NetlistDigest) -> Vec<String> {
        self.inner
            .read()
            .expect("session cache lock")
            .by_digest
            .get(&digest.to_hex())
            .cloned()
            .unwrap_or_default()
    }

    /// Drops every cached key derived from `digest` (base configuration
    /// and scenario overlays alike), returning the dropped keys so the
    /// caller can mirror the removal into the persistent tier.
    pub(crate) fn take_digest_keys(&self, digest: &NetlistDigest) -> Vec<String> {
        let mut inner = self.inner.write().expect("session cache lock");
        let keys = inner.by_digest.remove(&digest.to_hex()).unwrap_or_default();
        for key in &keys {
            inner.models.remove(key);
        }
        keys
    }

    /// Drops every cached model.
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.write().expect("session cache lock");
        inner.models.clear();
        inner.by_digest.clear();
    }
}

/// State shared by every group of one call.
pub(crate) struct SharedState<'a> {
    /// The engine's session cache.
    pub cache: &'a SessionCache,
    /// The engine's single-flight table.
    pub flights: &'a SingleFlight,
    /// The engine's persistent model library, if attached.
    pub store: Option<&'a ModelStore<Box<dyn StorageBackend>>>,
    /// Worker threads (already defaulted, ≥ 1): the whole call's budget
    /// on entry to the executor, one group's share inside it, where only
    /// the group's module extractions (resolve's per-module jobs) use it.
    pub threads: usize,
    /// The call's cooperative cancellation token, polled at stage
    /// checkpoints (never mid-kernel, and never under a flight leader
    /// that other requests wait on).
    pub cancel: &'a CancelToken,
}
