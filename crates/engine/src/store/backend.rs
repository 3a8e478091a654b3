//! The storage abstraction the model library is built on.
//!
//! A [`StorageBackend`] moves opaque envelope bytes under
//! content-addressed keys; it knows nothing about timing models,
//! the model codec or the envelope format — that is all
//! [`ModelStore`](super::ModelStore)'s job. Keeping the boundary at
//! raw bytes is what makes backends swappable: the sharded local
//! filesystem ([`FsBackend`](super::FsBackend)), the in-process map
//! ([`MemoryBackend`](super::MemoryBackend)), and eventually a remote
//! object store all satisfy the same five-method contract and pass the
//! same conformance suite.

use super::health::StoreHealth;
use crate::error::EngineError;
use std::fmt;

/// A key-value byte store for model-library artifacts.
///
/// # Contract
///
/// * Keys are validated by the store layer before reaching a backend:
///   implementations may assume `key` is 64 lowercase-hex characters
///   (a [`ModuleFingerprint`](ssta_core::ModuleFingerprint) in hex)
///   and need not defend against path traversal themselves.
/// * [`put`](Self::put) replaces atomically with respect to concurrent
///   readers of the same key: a reader observes the old bytes or the
///   new bytes, never a mix.
/// * All methods are `&self`: backends are internally synchronized and
///   safe to share across threads.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Reads the artifact bytes under `key`; `Ok(None)` if absent.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] for backend failures (absence is not
    /// a failure).
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, EngineError>;

    /// Writes `bytes` under `key`, replacing any previous artifact.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] for write failures.
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), EngineError>;

    /// Removes the artifact under `key`; returns whether one existed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] for removal failures other than
    /// absence.
    fn remove(&self, key: &str) -> Result<bool, EngineError>;

    /// All keys currently stored, in ascending order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the backend cannot be enumerated.
    fn list_keys(&self) -> Result<Vec<String>, EngineError>;

    /// Removes every artifact, including ones written by other
    /// processes sharing the backend.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if artifacts cannot be removed.
    fn clear(&self) -> Result<(), EngineError>;

    /// Whether an artifact exists under `key` (without validating its
    /// contents). Backends with cheap existence checks should override
    /// the default full read.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] for backend failures.
    fn contains(&self, key: &str) -> Result<bool, EngineError> {
        Ok(self.get(key)?.is_some())
    }

    /// Number of artifacts currently stored.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the backend cannot be enumerated.
    fn len(&self) -> Result<usize, EngineError> {
        Ok(self.list_keys()?.len())
    }

    /// Whether the backend holds no artifacts. Backends that can
    /// short-circuit on the first artifact found should override the
    /// default full enumeration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] if the backend cannot be enumerated.
    fn is_empty(&self) -> Result<bool, EngineError> {
        Ok(self.len()? == 0)
    }

    /// Operational health of this backend (stack): fault-handling
    /// counters plus the circuit-breaker gauge. Wrapper backends merge
    /// their own counters with their inner backend's; plain backends
    /// keep the default all-quiet snapshot. Never fails — health must
    /// stay readable while the backend itself is misbehaving.
    fn health(&self) -> StoreHealth {
        StoreHealth::default()
    }
}

macro_rules! delegate_backend {
    ($wrapper:ty) => {
        impl<B: StorageBackend + ?Sized> StorageBackend for $wrapper {
            fn get(&self, key: &str) -> Result<Option<Vec<u8>>, EngineError> {
                (**self).get(key)
            }
            fn put(&self, key: &str, bytes: &[u8]) -> Result<(), EngineError> {
                (**self).put(key, bytes)
            }
            fn remove(&self, key: &str) -> Result<bool, EngineError> {
                (**self).remove(key)
            }
            fn list_keys(&self) -> Result<Vec<String>, EngineError> {
                (**self).list_keys()
            }
            fn clear(&self) -> Result<(), EngineError> {
                (**self).clear()
            }
            fn contains(&self, key: &str) -> Result<bool, EngineError> {
                (**self).contains(key)
            }
            fn len(&self) -> Result<usize, EngineError> {
                (**self).len()
            }
            fn is_empty(&self) -> Result<bool, EngineError> {
                (**self).is_empty()
            }
            fn health(&self) -> StoreHealth {
                (**self).health()
            }
        }
    };
}

// Smart pointers delegate, so `ModelStore<Box<dyn StorageBackend>>`
// (the engine's type-erased store) and `ModelStore<Arc<MemoryBackend>>`
// (one map shared by several stores) both just work.
delegate_backend!(Box<B>);
delegate_backend!(std::sync::Arc<B>);
