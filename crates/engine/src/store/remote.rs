//! The remote model-library backend: content-addressed get/put over an
//! unreliable transport, with retry, integrity re-verification, and
//! quarantine.
//!
//! A [`RemoteBackend`] wraps a *transport* — any [`StorageBackend`]
//! standing in for the far side of the wire (an in-process
//! [`MemoryBackend`](super::MemoryBackend) in tests and benches, an
//! [`FsBackend`](super::FsBackend) for a network mount) — behind a
//! [`RetryPolicy`]. Wire latency and loss belong to the transport: tests
//! and benches model them deterministically by making the transport a
//! [`FaultInjectingBackend`](super::FaultInjectingBackend). Every `get`
//! re-verifies the SSTM envelope's integrity stamp before the bytes are
//! released upstream:
//!
//! * an integrity failure is classified **retryable** first — wire
//!   corruption heals on a re-read;
//! * if the artifact is *still* corrupt after retries are exhausted,
//!   the stored bytes themselves are rotten: the artifact is
//!   **quarantined** — removed from the transport, stashed aside,
//!   counted, and never re-served. The get then reports a clean miss,
//!   so the caller re-extracts instead of failing.
//!
//! Transient transport errors ([`EngineError::Unavailable`]) that
//! outlive the retry budget propagate as `Unavailable`, which the
//! engine degrades into a re-extraction — analysis never fails because
//! the store did.

use super::backend::StorageBackend;
use super::envelope::decode_envelope;
use super::health::StoreHealth;
use super::retry::{key_salt, RetryPolicy};
use crate::error::EngineError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A content-addressed remote artifact store: transport + retry policy
/// + integrity re-verification + quarantine.
#[derive(Debug)]
pub struct RemoteBackend<B = super::MemoryBackend> {
    transport: B,
    policy: RetryPolicy,
    verify: bool,
    /// Quarantined artifacts, keyed by store key: moved aside here so
    /// they are never re-served but stay inspectable post-mortem.
    quarantine: Mutex<BTreeMap<String, Vec<u8>>>,
    retries: AtomicU64,
    quarantined: AtomicU64,
}

impl<B: StorageBackend> RemoteBackend<B> {
    /// Wraps `transport` behind `policy`, with envelope verification on
    /// every get.
    pub fn new(transport: B, policy: RetryPolicy) -> Self {
        RemoteBackend {
            transport,
            policy,
            verify: true,
            quarantine: Mutex::new(BTreeMap::new()),
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// A remote backend with the default retry policy — over a
    /// faultless transport it behaves like the bare transport plus
    /// verification.
    pub fn perfect(transport: B) -> Self {
        RemoteBackend::new(transport, RetryPolicy::default())
    }

    /// Disables envelope verification on get (builder style). Only for
    /// transports storing non-envelope bytes; the conformance suite
    /// runs the verifying configuration with real envelopes.
    #[must_use]
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &B {
        &self.transport
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Keys currently held in quarantine, in ascending order.
    pub fn quarantined_keys(&self) -> Vec<String> {
        self.lock_quarantine().keys().cloned().collect()
    }

    /// The quarantined bytes for `key`, if any (post-mortem access).
    pub fn quarantined_bytes(&self, key: &str) -> Option<Vec<u8>> {
        self.lock_quarantine().get(key).cloned()
    }

    fn lock_quarantine(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.quarantine.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves the rotten bytes for `key` into quarantine: removed from
    /// the transport (best-effort — a partitioned transport cannot
    /// block quarantine), stashed aside, counted. Subsequent gets see a
    /// miss and re-extract; the key is never re-served.
    fn quarantine_artifact(&self, key: &str, bytes: Vec<u8>) {
        let _ = self.transport.remove(key);
        self.lock_quarantine().insert(key.to_owned(), bytes);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Transient transport failures are worth retrying; so are
    /// integrity rejects (wire corruption heals on a re-read — only
    /// *persistent* corruption is quarantined, after exhaustion).
    fn retryable(e: &EngineError) -> bool {
        matches!(
            e,
            EngineError::Unavailable { .. } | EngineError::Store { .. } | EngineError::Io(_)
        )
    }
}

impl<B: StorageBackend> StorageBackend for RemoteBackend<B> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, EngineError> {
        let salt = key_salt(key);
        let last_bytes = Mutex::new(None::<Vec<u8>>);
        let (result, outcome) = self.policy.run(salt, Self::retryable, |_attempt| {
            let fetched = self.transport.get(key)?;
            let Some(bytes) = fetched else {
                return Ok(None);
            };
            if self.verify {
                if let Err(e) = decode_envelope(&bytes) {
                    // Remember the rotten bytes: if this rejection is
                    // the last attempt, they go to quarantine.
                    *last_bytes.lock().unwrap_or_else(|p| p.into_inner()) = Some(bytes);
                    return Err(e);
                }
            }
            Ok(Some(bytes))
        });
        self.retries
            .fetch_add(u64::from(outcome.retries), Ordering::Relaxed);
        match result {
            Ok(bytes) => Ok(bytes),
            Err(e) => {
                // Retries exhausted. If any attempt fetched bytes that
                // failed verification and none produced a clean copy,
                // the stored artifact is treated as rotten — even when
                // the final attempt happened to die on the wire
                // instead. Quarantine it and report a miss so the
                // caller re-extracts.
                let rotten = last_bytes.lock().unwrap_or_else(|p| p.into_inner()).take();
                match (rotten, e) {
                    (Some(bytes), _) => {
                        self.quarantine_artifact(key, bytes);
                        Ok(None)
                    }
                    // A transport-originated integrity error without
                    // captured bytes: nothing to stash, still rotten.
                    (None, EngineError::Store { .. }) => {
                        self.quarantine_artifact(key, Vec::new());
                        Ok(None)
                    }
                    (None, e) => Err(e),
                }
            }
        }
    }

    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), EngineError> {
        // A fresh artifact supersedes any quarantined one: the new
        // bytes are re-verified on every future get anyway.
        self.lock_quarantine().remove(key);
        let salt = key_salt(key).rotate_left(1);
        let (result, outcome) = self.policy.run(salt, Self::retryable, |_attempt| {
            self.transport.put(key, bytes)
        });
        self.retries
            .fetch_add(u64::from(outcome.retries), Ordering::Relaxed);
        result
    }

    fn remove(&self, key: &str) -> Result<bool, EngineError> {
        let quarantined = self.lock_quarantine().remove(key).is_some();
        let salt = key_salt(key).rotate_left(2);
        let (result, outcome) = self
            .policy
            .run(salt, Self::retryable, |_attempt| self.transport.remove(key));
        self.retries
            .fetch_add(u64::from(outcome.retries), Ordering::Relaxed);
        result.map(|existed| existed || quarantined)
    }

    fn list_keys(&self) -> Result<Vec<String>, EngineError> {
        self.transport.list_keys()
    }

    fn clear(&self) -> Result<(), EngineError> {
        self.lock_quarantine().clear();
        self.transport.clear()
    }

    fn contains(&self, key: &str) -> Result<bool, EngineError> {
        self.transport.contains(key)
    }

    fn len(&self) -> Result<usize, EngineError> {
        self.transport.len()
    }

    fn is_empty(&self) -> Result<bool, EngineError> {
        self.transport.is_empty()
    }

    fn health(&self) -> StoreHealth {
        let mine = StoreHealth {
            retries: self.retries.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            ..StoreHealth::default()
        };
        mine.merged(&self.transport.health())
    }
}

#[cfg(test)]
mod tests {
    use super::super::envelope::encode_envelope;
    use super::super::{Codec, FaultInjectingBackend, FaultPlan, MemoryBackend};
    use super::*;
    use std::time::Duration;

    fn key(fill: char) -> String {
        String::from(fill).repeat(64)
    }

    fn envelope(payload: &[u8]) -> Vec<u8> {
        encode_envelope(Codec::Binary, payload)
    }

    #[test]
    fn perfect_wire_round_trips_envelopes() {
        let remote = RemoteBackend::perfect(MemoryBackend::new());
        let k = key('a');
        let bytes = envelope(b"model payload");
        remote.put(&k, &bytes).unwrap();
        assert_eq!(remote.get(&k).unwrap().unwrap(), bytes);
        assert!(remote.health().is_quiet());
    }

    #[test]
    fn lossy_wire_retries_until_success() {
        // 40% loss with 6 attempts: every op in this short test gets
        // through, but some need retries.
        let lossy = FaultPlan {
            seed: 11,
            get_error_rate: 0.4,
            put_error_rate: 0.4,
            ..FaultPlan::none()
        };
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let transport = FaultInjectingBackend::new(MemoryBackend::new(), lossy);
        let remote = RemoteBackend::new(transport, policy);
        for fill in ['a', 'b', 'c', 'd'] {
            let k = key(fill);
            let bytes = envelope(format!("payload {fill}").as_bytes());
            remote.put(&k, &bytes).unwrap();
            assert_eq!(remote.get(&k).unwrap().unwrap(), bytes);
        }
        assert!(remote.health().retries > 0, "40% loss must force retries");
        assert_eq!(remote.health().quarantined, 0);
    }

    #[test]
    fn persistently_corrupt_artifact_is_quarantined_and_never_reserved() {
        let transport = MemoryBackend::new();
        let k = key('e');
        let mut rotten = envelope(b"was a fine model");
        *rotten.last_mut().unwrap() ^= 0x40; // break the stamp
        transport.put(&k, &rotten).unwrap();

        let remote = RemoteBackend::perfect(transport);
        // The get re-reads (integrity failures are retryable), then
        // quarantines and reports a miss.
        assert_eq!(remote.get(&k).unwrap(), None);
        assert_eq!(remote.health().quarantined, 1);
        assert!(remote.health().retries > 0, "corruption is retried first");
        assert_eq!(remote.quarantined_keys(), vec![k.clone()]);
        assert_eq!(remote.quarantined_bytes(&k).unwrap(), rotten);
        // Gone from the transport; every future get is a clean miss.
        assert_eq!(remote.transport().get(&k).unwrap(), None);
        assert_eq!(remote.get(&k).unwrap(), None);
        assert_eq!(remote.health().quarantined, 1, "quarantine counted once");

        // A fresh put supersedes the quarantined artifact.
        let fresh = envelope(b"re-extracted model");
        remote.put(&k, &fresh).unwrap();
        assert_eq!(remote.get(&k).unwrap().unwrap(), fresh);
        assert!(remote.quarantined_keys().is_empty());
    }

    #[test]
    fn dead_wire_exhausts_retries_with_unavailable() {
        let dead = FaultPlan {
            seed: 5,
            get_error_rate: 1.0,
            put_error_rate: 1.0,
            ..FaultPlan::none()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let transport = FaultInjectingBackend::new(MemoryBackend::new(), dead);
        let remote = RemoteBackend::new(transport, policy);
        let k = key('f');
        assert!(matches!(
            remote.get(&k),
            Err(EngineError::Unavailable { .. })
        ));
        assert!(matches!(
            remote.put(&k, &envelope(b"x")),
            Err(EngineError::Unavailable { .. })
        ));
        assert_eq!(remote.health().retries, 4, "2 retries per failed op");
    }
}
