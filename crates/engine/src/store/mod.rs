//! The persistent model library: a content-addressed, versioned store
//! of extracted [`TimingModel`]s over pluggable storage backends.
//!
//! # Architecture
//!
//! The subsystem is three layers, each swappable independently:
//!
//! * **[`ModelStore`]** — the typed facade. Validates keys, encodes
//!   models with [`ssta_core::codec`] and wraps/unwraps the envelope.
//!   Generic over its backend (`ModelStore<B: StorageBackend>`,
//!   defaulting to [`FsBackend`]).
//! * **[`envelope`]** — the artifact framing: magic, format version,
//!   payload codec byte, length, integrity stamp.
//! * **[`StorageBackend`]** — raw byte transport:
//!   [`FsBackend`] (sharded local filesystem, atomic
//!   temp-file+rename writes), [`MemoryBackend`] (mutex-guarded
//!   in-process map), [`RemoteBackend`] (content-addressed get/put
//!   over an unreliable transport with retry, integrity re-check and
//!   quarantine), [`TieredBackend`] (hot in-memory tier over a cold
//!   backend, with LRU eviction and a circuit breaker), and
//!   [`FaultInjectingBackend`] (deterministic chaos wrapper for tests
//!   and benches) — all behind the same contract, all passing the same
//!   conformance suite, all reporting [`StoreHealth`].
//!
//! # Artifact format
//!
//! One format is read and written — the SSTM version 2 envelope around
//! binary model layout 3 ([`ssta_core::codec`]):
//!
//! | bytes | contents |
//! |---|---|
//! | 0..4 | magic `SSTM` |
//! | 4..6 | format version, u16 little-endian (2) |
//! | 6..7 | payload codec byte (1 = binary) |
//! | 7..15 | payload length in bytes, u64 little-endian |
//! | 15..23 | integrity stamp: first 8 bytes of SHA-256(payload), big-endian |
//! | 23.. | payload: the binary-encoded [`TimingModel`] |
//!
//! Readers reject — with a precise [`EngineError::Store`] reason —
//! artifacts that are truncated, carry the wrong magic, any other
//! version or codec byte, fail the integrity check, or do not decode.
//! The engine treats a rejected artifact like a miss: it re-extracts
//! the model and overwrites the artifact.

mod backend;
pub mod envelope;
mod fault;
mod fs;
mod health;
mod memory;
mod remote;
mod retry;
mod tiered;

pub use backend::StorageBackend;
pub use envelope::{decode_envelope, encode_envelope, Codec, Envelope, FORMAT_VERSION, MAGIC};
pub use fault::{FaultCounters, FaultInjectingBackend, FaultPlan};
pub use fs::FsBackend;
pub use health::{BreakerState, StoreHealth};
pub use memory::MemoryBackend;
pub use remote::RemoteBackend;
pub use retry::{RetryOutcome, RetryPolicy};
pub use tiered::{TieredBackend, TieredOptions};

use crate::error::EngineError;
use ssta_core::{SstaConfig, TimingModel};
use std::path::{Path, PathBuf};

/// Domain separator keying SDF-imported artifacts; content-addressed
/// over the imported model's binary encoding, so re-importing the same
/// file is idempotent and two different cells can never collide.
const SDF_IMPORT_DOMAIN: &[u8] = b"hier-ssta sdf import v1\n";

/// Receipt for one cell imported from an SDF file by
/// [`ModelStore::import_sdf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdfImport {
    /// The cell's `CELLTYPE` — the imported model's name.
    pub name: String,
    /// Store key the model was saved under.
    pub key: String,
    /// Whether the cell carried an `SSTM` payload, making the imported
    /// model bit-identical to the exported one (as opposed to an
    /// interface-only corner approximation).
    pub bit_exact: bool,
}

/// Facts about one stored artifact, reported by the traced accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Total artifact size in bytes (envelope header + payload).
    pub bytes: usize,
}

/// Checks that `key` is a well-formed store key: exactly 64 lowercase
/// hexadecimal characters (a [`ModuleFingerprint`](ssta_core::ModuleFingerprint)
/// in hex). Anything else — wrong length, uppercase, path separators —
/// is rejected before it can reach a backend, closing the
/// path-traversal/garbage-file hole of interpolating raw strings into
/// paths.
///
/// # Errors
///
/// Returns [`EngineError::Store`] naming the offending key.
pub fn validate_key(key: &str) -> Result<(), EngineError> {
    let well_formed = key.len() == 64
        && key
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !well_formed {
        return Err(EngineError::Store {
            reason: format!(
                "invalid store key `{}`: expected 64 lowercase hex characters",
                key.escape_default()
            ),
        });
    }
    Ok(())
}

/// A content-addressed library of extracted timing models over a
/// [`StorageBackend`] (the sharded local filesystem by default).
#[derive(Debug)]
pub struct ModelStore<B: StorageBackend = FsBackend> {
    backend: B,
}

impl ModelStore {
    /// Opens (creating if necessary) a filesystem-backed store rooted
    /// at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, EngineError> {
        Ok(ModelStore::with_backend(FsBackend::open(root)?))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        self.backend.root()
    }
}

impl<B: StorageBackend> ModelStore<B> {
    /// Wraps an arbitrary backend.
    pub fn with_backend(backend: B) -> Self {
        ModelStore { backend }
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Operational health of the backend stack: retries, quarantines,
    /// tier traffic, circuit-breaker state. All-quiet for plain
    /// backends.
    pub fn health(&self) -> StoreHealth {
        self.backend.health()
    }

    /// Type-erases the backend, for holders that must name a single
    /// store type over interchangeable backends (e.g. the engine).
    pub fn boxed(self) -> ModelStore<Box<dyn StorageBackend>>
    where
        B: 'static,
    {
        ModelStore {
            backend: Box::new(self.backend),
        }
    }

    /// Whether an artifact exists under `key` (without validating it).
    /// Malformed keys hold nothing by definition.
    pub fn contains(&self, key: &str) -> bool {
        validate_key(key).is_ok() && self.backend.contains(key).unwrap_or(false)
    }

    /// Loads and validates the model stored under `key`; `Ok(None)` if
    /// absent.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] for malformed keys and corrupt,
    /// truncated or wrong-version artifacts, and [`EngineError::Io`]
    /// for read failures.
    pub fn load(&self, key: &str) -> Result<Option<TimingModel>, EngineError> {
        Ok(self.load_traced(key)?.map(|(model, _)| model))
    }

    /// [`load`](Self::load), also reporting the artifact's size.
    ///
    /// # Errors
    ///
    /// See [`load`](Self::load).
    pub fn load_traced(
        &self,
        key: &str,
    ) -> Result<Option<(TimingModel, ArtifactInfo)>, EngineError> {
        validate_key(key)?;
        let Some(bytes) = self.backend.get(key)? else {
            return Ok(None);
        };
        let payload = decode_envelope(&bytes)?.payload;
        let model = ssta_core::codec::decode_model(payload).map_err(|e| EngineError::Store {
            reason: format!("payload of `{key}` does not decode: {e}"),
        })?;
        Ok(Some((model, ArtifactInfo { bytes: bytes.len() })))
    }

    /// Stores `model` under `key`, atomically replacing any previous
    /// artifact.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] for malformed keys and
    /// [`EngineError::Io`] for write failures.
    pub fn save(&self, key: &str, model: &TimingModel) -> Result<(), EngineError> {
        self.save_traced(key, model).map(|_| ())
    }

    /// [`save`](Self::save), also reporting the bytes written.
    ///
    /// # Errors
    ///
    /// See [`save`](Self::save).
    pub fn save_traced(&self, key: &str, model: &TimingModel) -> Result<usize, EngineError> {
        validate_key(key)?;
        let payload = ssta_core::codec::encode_model(model);
        let bytes = encode_envelope(Codec::Binary, &payload);
        self.backend.put(key, &bytes)?;
        Ok(bytes.len())
    }

    /// Removes the artifact under `key`; returns whether one existed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] for malformed keys and
    /// [`EngineError::Io`] for removal failures other than absence.
    pub fn remove(&self, key: &str) -> Result<bool, EngineError> {
        validate_key(key)?;
        self.backend.remove(key)
    }

    /// All stored keys, in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the backend cannot be enumerated.
    pub fn keys(&self) -> Result<Vec<String>, EngineError> {
        self.backend.list_keys()
    }

    /// Number of artifacts currently stored.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the backend cannot be enumerated.
    pub fn len(&self) -> Result<usize, EngineError> {
        self.backend.len()
    }

    /// Whether the store holds no artifacts (short-circuits on the
    /// first artifact found — no full scan).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the backend cannot be enumerated.
    pub fn is_empty(&self) -> Result<bool, EngineError> {
        self.backend.is_empty()
    }

    /// Removes every artifact in the store, including ones written by
    /// other engines or processes.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if artifacts cannot be removed.
    pub fn clear(&self) -> Result<(), EngineError> {
        self.backend.clear()
    }

    /// Imports every cell of an SDF file into the library.
    ///
    /// Cells carrying an `(SSTM "…")` payload decode to the exported
    /// model bit-identically; foreign cells become interface-only
    /// approximate models under `config`, with corner spread read back
    /// as `sigmas` standard deviations (see
    /// [`ssta_sdf::import_cell`]). Keys are content-addressed over the
    /// imported model's binary encoding, so the import is idempotent
    /// and distinct models never collide; the returned receipts map
    /// each cell name to its key.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] for SDF text that does not parse
    /// (with the parser's line/column in the reason) or cells that do
    /// not form a well-shaped model, and save errors as usual.
    pub fn import_sdf(
        &self,
        text: &str,
        config: &SstaConfig,
        sigmas: f64,
    ) -> Result<Vec<SdfImport>, EngineError> {
        let sdf = ssta_sdf::parse_sdf(text).map_err(|e| EngineError::Store {
            reason: e.to_string(),
        })?;
        let mut receipts = Vec::with_capacity(sdf.cells.len());
        for cell in &sdf.cells {
            let model =
                ssta_sdf::import_cell(cell, config, sigmas).map_err(|e| EngineError::Store {
                    reason: format!("SDF cell `{}` does not import: {e}", cell.celltype),
                })?;
            let payload = ssta_core::codec::encode_model(&model);
            let mut keyed = SDF_IMPORT_DOMAIN.to_vec();
            keyed.extend_from_slice(&payload);
            let key = ssta_math::digest::sha256(&keyed).to_hex();
            self.save(&key, &model)?;
            receipts.push(SdfImport {
                name: cell.celltype.clone(),
                key,
                bit_exact: cell.sstm.is_some(),
            });
        }
        Ok(receipts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_validation_accepts_fingerprints_and_rejects_garbage() {
        validate_key(&"0123456789abcdef".repeat(4)).unwrap();
        validate_key(&"a".repeat(64)).unwrap();

        let reject = |key: &str| {
            assert!(
                matches!(
                    validate_key(key),
                    Err(EngineError::Store { reason }) if reason.contains("invalid store key")
                ),
                "key `{key}` should be rejected"
            );
        };
        reject(""); // empty
        reject(&"a".repeat(63)); // too short
        reject(&"a".repeat(65)); // too long
        reject(&"A".repeat(64)); // uppercase hex
        reject(&"g".repeat(64)); // not hex
        reject(&format!("../{}", "a".repeat(61))); // path traversal
        reject(&format!("{}/..", "a".repeat(61))); // path traversal
        reject(&format!("{}\u{2044}x", "a".repeat(62))); // unicode slash-alike
    }

    #[test]
    fn memory_store_rejects_malformed_keys_everywhere() {
        let store = ModelStore::with_backend(MemoryBackend::new());
        assert!(!store.contains("../etc/passwd"));
        assert!(matches!(
            store.load("not-a-key"),
            Err(EngineError::Store { .. })
        ));
        assert!(matches!(
            store.remove(&"A".repeat(64)),
            Err(EngineError::Store { .. })
        ));
    }
}
