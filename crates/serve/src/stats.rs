//! Server-level accounting: lock-free counters and their snapshot.

use ssta_engine::StoreHealth;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Atomic tallies every worker and the submit path report into.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub shed: AtomicU64,
    pub cancelled: AtomicU64,
    pub failed: AtomicU64,
    pub extractions: AtomicU64,
    pub coalesced: AtomicU64,
    pub memory_hits: AtomicU64,
    pub store_hits: AtomicU64,
    pub degraded: AtomicU64,
    pub queue_wait_nanos: AtomicU64,
    pub service_nanos: AtomicU64,
    sequence: AtomicU64,
}

impl Counters {
    /// The next terminal-response sequence number (0-based, dense).
    pub(crate) fn next_sequence(&self) -> u64 {
        self.sequence.fetch_add(1, Ordering::SeqCst)
    }

    pub(crate) fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Builds a snapshot from the request counters plus the shared
    /// backend stack's *absolute* health (retries/quarantines are
    /// store-wide facts, not per-request ones).
    pub(crate) fn snapshot(&self, store_health: StoreHealth) -> ServerSnapshot {
        ServerSnapshot {
            submitted: self.submitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            cancelled: self.cancelled.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            extractions: self.extractions.load(Ordering::SeqCst),
            coalesced: self.coalesced.load(Ordering::SeqCst),
            memory_hits: self.memory_hits.load(Ordering::SeqCst),
            store_hits: self.store_hits.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
            store_health,
            total_queue_wait: Duration::from_nanos(self.queue_wait_nanos.load(Ordering::SeqCst)),
            total_service_time: Duration::from_nanos(self.service_nanos.load(Ordering::SeqCst)),
        }
    }
}

/// A point-in-time aggregate of everything the server has done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Requests submitted (every `submit` call).
    pub submitted: u64,
    /// Requests whose analysis ran to completion.
    pub completed: u64,
    /// Requests refused because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Requests refused because the estimated wait exceeded their
    /// deadline.
    pub shed: u64,
    /// Requests cancelled (explicitly or by deadline) before completing.
    pub cancelled: u64,
    /// Requests whose analysis failed.
    pub failed: u64,
    /// Modules characterized + extracted across all completed requests.
    pub extractions: u64,
    /// Module resolutions coalesced onto another in-flight extraction.
    pub coalesced: u64,
    /// Modules served from worker session caches.
    pub memory_hits: u64,
    /// Modules served from the shared persistent store.
    pub store_hits: u64,
    /// Module resolutions whose store read failed and gracefully
    /// degraded to re-extraction (the requests still completed).
    pub degraded: u64,
    /// The shared backend stack's health at snapshot time (absolute,
    /// store-lifetime counters; quiet for stacks that report none).
    pub store_health: StoreHealth,
    /// Queue wait summed over served (non-rejected) requests.
    pub total_queue_wait: Duration,
    /// Service time summed over served requests.
    pub total_service_time: Duration,
}

impl ServerSnapshot {
    /// Terminal responses produced: completed + rejected + shed +
    /// cancelled + failed.
    pub fn terminal(&self) -> u64 {
        self.completed + self.rejected_queue_full + self.shed + self.cancelled + self.failed
    }

    /// Submitted requests with no terminal response. Zero on any
    /// quiesced (shut-down) server — the "no request is ever lost"
    /// invariant the bench asserts.
    pub fn lost(&self) -> u64 {
        self.submitted.saturating_sub(self.terminal())
    }
}

impl fmt::Display for ServerSnapshot {
    /// One compact summary line, e.g.
    /// `12 submitted: 9 completed, 1 queue-full, 1 shed, 1 cancelled | extracted 3, coalesced 5, memory 2, store 4`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} submitted: {} completed",
            self.submitted, self.completed
        )?;
        if self.rejected_queue_full > 0 {
            write!(f, ", {} queue-full", self.rejected_queue_full)?;
        }
        if self.shed > 0 {
            write!(f, ", {} shed", self.shed)?;
        }
        if self.cancelled > 0 {
            write!(f, ", {} cancelled", self.cancelled)?;
        }
        if self.failed > 0 {
            write!(f, ", {} failed", self.failed)?;
        }
        write!(
            f,
            " | extracted {}, coalesced {}, memory {}, store {}",
            self.extractions, self.coalesced, self.memory_hits, self.store_hits
        )?;
        if self.degraded > 0 {
            write!(f, ", degraded {}", self.degraded)?;
        }
        if !self.store_health.is_quiet() {
            write!(f, " | store {}", self.store_health)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_and_lost_account_for_every_state() {
        let snap = ServerSnapshot {
            submitted: 12,
            completed: 9,
            rejected_queue_full: 1,
            shed: 1,
            cancelled: 1,
            ..ServerSnapshot::default()
        };
        assert_eq!(snap.terminal(), 12);
        assert_eq!(snap.lost(), 0);

        let in_flight = ServerSnapshot {
            submitted: 5,
            completed: 3,
            ..ServerSnapshot::default()
        };
        assert_eq!(in_flight.lost(), 2);
    }

    #[test]
    fn snapshot_display_is_one_compact_line() {
        let snap = ServerSnapshot {
            submitted: 12,
            completed: 9,
            shed: 2,
            cancelled: 1,
            extractions: 3,
            coalesced: 5,
            ..ServerSnapshot::default()
        };
        let line = snap.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("12 submitted: 9 completed"));
        assert!(line.contains("2 shed"));
        assert!(line.contains("1 cancelled"));
        assert!(!line.contains("queue-full"), "zero states stay out: {line}");
        assert!(line.contains("coalesced 5"));
        assert!(
            !line.contains("store healthy"),
            "a quiet store stays out: {line}"
        );
    }
}
