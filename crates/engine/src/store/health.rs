//! Operational health reporting for storage backends.
//!
//! Every [`StorageBackend`](super::StorageBackend) can report a
//! [`StoreHealth`] snapshot: monotonic fault-handling counters (retries,
//! quarantines, injected faults, tier traffic) plus the current
//! [`BreakerState`] gauge. Wrapper backends merge their own counters
//! with their inner backend's, so one `health()` call on the top of a
//! stack (tiered → remote → fault-injecting → memory) sees the whole
//! tower. The engine snapshots health around each call and reports the
//! delta as [`SweepSummary::store_health`](crate::SweepSummary::store_health),
//! and the serving layer exposes the absolute snapshot as
//! `ServerSnapshot::store_health` — operators see the store misbehaving
//! without losing traffic.

use std::fmt;

/// The cold-tier circuit breaker's state, as reported by
/// [`StoreHealth::breaker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Normal operation: cold-tier calls flow through.
    #[default]
    Closed,
    /// Tripped: cold-tier calls are refused until the probe cooldown
    /// elapses.
    Open,
    /// Probing: one call is allowed through; success re-closes the
    /// breaker, failure re-opens it with a longer cooldown.
    HalfOpen,
}

impl BreakerState {
    /// Severity rank for merging stacked backends' states (worst wins).
    fn severity(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }

    /// Short lowercase name (`"closed"` / `"open"` / `"half-open"`).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A point-in-time health snapshot of a storage backend (stack).
///
/// All counter fields are monotonic over a backend's lifetime;
/// [`delta`](Self::delta) turns two snapshots into a per-interval
/// reading. [`breaker`](Self::breaker) is a gauge, not a counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Transport operations retried after a retryable failure
    /// ([`RemoteBackend`](super::RemoteBackend)'s
    /// [`RetryPolicy`](super::RetryPolicy)).
    pub retries: u64,
    /// Corrupt artifacts quarantined — moved aside, counted, never
    /// re-served.
    pub quarantined: u64,
    /// Faults deliberately injected by a
    /// [`FaultInjectingBackend`](super::FaultInjectingBackend) in the
    /// stack (zero in production stacks).
    pub faults_injected: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Reads served from a [`TieredBackend`](super::TieredBackend)'s
    /// hot tier.
    pub hot_hits: u64,
    /// Cold-tier hits promoted into the hot tier.
    pub promotions: u64,
    /// Hot-tier entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Artifacts deleted by [`FsBackend::gc`](super::FsBackend::gc) to
    /// bring a filesystem store back under its byte budget.
    pub gc_evictions: u64,
    /// Cold-tier calls that failed (and fed the circuit breaker).
    pub cold_failures: u64,
    /// Current circuit-breaker state; [`BreakerState::Closed`] for
    /// backends without a breaker.
    pub breaker: BreakerState,
}

impl StoreHealth {
    /// The change since `baseline`: counters subtract (saturating, so a
    /// swapped-out backend reads zero rather than wrapping), the
    /// breaker gauge keeps this snapshot's value.
    #[must_use]
    pub fn delta(&self, baseline: &StoreHealth) -> StoreHealth {
        StoreHealth {
            retries: self.retries.saturating_sub(baseline.retries),
            quarantined: self.quarantined.saturating_sub(baseline.quarantined),
            faults_injected: self
                .faults_injected
                .saturating_sub(baseline.faults_injected),
            breaker_trips: self.breaker_trips.saturating_sub(baseline.breaker_trips),
            hot_hits: self.hot_hits.saturating_sub(baseline.hot_hits),
            promotions: self.promotions.saturating_sub(baseline.promotions),
            evictions: self.evictions.saturating_sub(baseline.evictions),
            gc_evictions: self.gc_evictions.saturating_sub(baseline.gc_evictions),
            cold_failures: self.cold_failures.saturating_sub(baseline.cold_failures),
            breaker: self.breaker,
        }
    }

    /// Sums counters with another snapshot (a wrapper backend folding in
    /// its inner backend's health); the breaker gauge keeps the more
    /// severe state.
    #[must_use]
    pub fn merged(&self, inner: &StoreHealth) -> StoreHealth {
        StoreHealth {
            retries: self.retries + inner.retries,
            quarantined: self.quarantined + inner.quarantined,
            faults_injected: self.faults_injected + inner.faults_injected,
            breaker_trips: self.breaker_trips + inner.breaker_trips,
            hot_hits: self.hot_hits + inner.hot_hits,
            promotions: self.promotions + inner.promotions,
            evictions: self.evictions + inner.evictions,
            gc_evictions: self.gc_evictions + inner.gc_evictions,
            cold_failures: self.cold_failures + inner.cold_failures,
            breaker: if inner.breaker.severity() > self.breaker.severity() {
                inner.breaker
            } else {
                self.breaker
            },
        }
    }

    /// Whether every counter is zero and the breaker is closed — the
    /// "nothing to report" snapshot healthy stacks return.
    pub fn is_quiet(&self) -> bool {
        *self == StoreHealth::default()
    }
}

impl fmt::Display for StoreHealth {
    /// One compact line listing only the nonzero facts, e.g.
    /// `retries 3, quarantined 1, breaker open (2 trips)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, label: &str, n: u64| -> fmt::Result {
            if n == 0 {
                return Ok(());
            }
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{label} {n}")
        };
        item(f, "retries", self.retries)?;
        item(f, "quarantined", self.quarantined)?;
        item(f, "faults-injected", self.faults_injected)?;
        item(f, "hot-hits", self.hot_hits)?;
        item(f, "promotions", self.promotions)?;
        item(f, "evictions", self.evictions)?;
        item(f, "gc-evictions", self.gc_evictions)?;
        item(f, "cold-failures", self.cold_failures)?;
        if self.breaker != BreakerState::Closed || self.breaker_trips > 0 {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "breaker {} ({} trips)", self.breaker, self.breaker_trips)?;
        }
        if first {
            write!(f, "healthy")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_and_keeps_the_current_gauge() {
        let before = StoreHealth {
            retries: 2,
            quarantined: 1,
            breaker: BreakerState::Open,
            ..StoreHealth::default()
        };
        let after = StoreHealth {
            retries: 5,
            quarantined: 1,
            breaker: BreakerState::Closed,
            ..StoreHealth::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.retries, 3);
        assert_eq!(d.quarantined, 0);
        assert_eq!(d.breaker, BreakerState::Closed);
        // A replaced backend (counters reset) reads zero, not a wrap.
        assert_eq!(before.delta(&after).retries, 0);
    }

    #[test]
    fn merged_sums_counters_and_keeps_the_worst_breaker() {
        let outer = StoreHealth {
            hot_hits: 4,
            breaker: BreakerState::Closed,
            ..StoreHealth::default()
        };
        let inner = StoreHealth {
            retries: 2,
            breaker: BreakerState::HalfOpen,
            ..StoreHealth::default()
        };
        let m = outer.merged(&inner);
        assert_eq!(m.hot_hits, 4);
        assert_eq!(m.retries, 2);
        assert_eq!(m.breaker, BreakerState::HalfOpen);
        assert!(!m.is_quiet());
        assert!(StoreHealth::default().is_quiet());
    }

    #[test]
    fn display_lists_only_nonzero_facts() {
        assert_eq!(StoreHealth::default().to_string(), "healthy");
        let h = StoreHealth {
            retries: 3,
            quarantined: 1,
            breaker_trips: 2,
            breaker: BreakerState::Open,
            ..StoreHealth::default()
        };
        let line = h.to_string();
        assert!(line.contains("retries 3"));
        assert!(line.contains("quarantined 1"));
        assert!(line.contains("breaker open (2 trips)"));
        assert!(!line.contains("evictions"));
    }
}
