//! Pipeline accounting: per-group run statistics, per-scenario records
//! and results, and the one summary every call returns.
//!
//! Each extraction-signature group the executor runs reports its stages
//! into a [`RunStats`]; one fold turns a call's groups into a
//! [`SweepSummary`] of compact [`ScenarioRecord`]s (plus full
//! [`ScenarioRun`]s when results are retained). Both stats types
//! implement [`std::fmt::Display`] with a compact one-line summary so
//! examples and services can log a run without dumping fields by hand.

use crate::store::BreakerState;
use ssta_core::{CorrelationMode, DesignTiming, PhaseTimings};
use std::fmt;
use std::sync::Arc;

/// Accounting for one extraction-signature group: what resolving its
/// models and analyzing its scenarios cost. A plain
/// [`Engine::analyze`](crate::Engine::analyze) is one group, so its
/// stats are the whole run's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Instances in the analyzed design.
    pub instances: usize,
    /// Distinct module definitions after fingerprint deduplication.
    pub distinct_modules: usize,
    /// Modules characterized + extracted in this run (cache misses this
    /// run led itself).
    pub extractions: usize,
    /// Misses resolved by waiting on another engine's (or another
    /// call's) in-flight resolution of the same fingerprint, through a
    /// shared [`FlightGroup`](crate::FlightGroup). Groups of one call
    /// never share a fingerprint, so this is zero for a lone engine.
    pub coalesced: usize,
    /// Modules served from the in-memory session cache.
    pub memory_hits: usize,
    /// Modules served from the persistent model library.
    pub store_hits: usize,
    /// Store lookups that came back a clean miss (the artifact simply
    /// was not there) and fell through to extraction.
    pub store_misses: usize,
    /// Store artifacts rejected as corrupt/mismatched and recomputed.
    pub store_rejects: usize,
    /// Store *reads* that failed (transport down, retries exhausted,
    /// circuit breaker open) and gracefully degraded to re-extraction.
    /// The analysis still succeeded; only this counter shows the store
    /// misbehaved.
    pub store_degraded: usize,
    /// Models written to the persistent library in this run.
    pub store_writes: usize,
    /// Failed library writes (read-only mount, disk full, …). The cache
    /// is best-effort: a failed write never fails the analysis.
    pub store_write_failures: usize,
    /// Artifact bytes written to the persistent library in this run
    /// (envelope headers included).
    pub store_bytes_written: u64,
    /// Artifact bytes read from the persistent library in this run,
    /// counting hits only (envelope headers included).
    pub store_bytes_read: u64,
    /// Transport retries the backend stack performed during this run
    /// (from the store's [`StoreHealth`](crate::StoreHealth) delta).
    pub store_retries: u64,
    /// Corrupt artifacts the backend stack quarantined during this run.
    pub store_quarantined: u64,
    /// Cold-tier circuit-breaker trips during this run.
    pub store_breaker_trips: u64,
    /// Circuit-breaker state when the run finished;
    /// [`BreakerState::Closed`] for stacks without a breaker.
    pub store_breaker: BreakerState,
    /// Wall-clock seconds resolving models (fingerprinting, cache
    /// lookups, parallel extraction).
    pub resolve_seconds: f64,
    /// Wall-clock seconds assembling and analyzing the top level.
    pub assembly_seconds: f64,
    /// Per-phase breakdown of the design-level analysis inside
    /// [`assembly_seconds`](Self::assembly_seconds) (partition /
    /// covariance / eigen / replace / propagate).
    pub phases: PhaseTimings,
}

/// Formats a byte count with a binary-unit suffix.
fn human_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

impl fmt::Display for RunStats {
    /// One compact summary line, e.g.
    /// `4 instances / 1 distinct | extracted 1, memory 0, store 0 | wrote 1 (41.2 KiB) | resolve 12.3 ms + assembly 4.5 ms`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instances / {} distinct | extracted {}, memory {}, store {}",
            self.instances,
            self.distinct_modules,
            self.extractions,
            self.memory_hits,
            self.store_hits
        )?;
        if self.coalesced > 0 {
            write!(f, ", coalesced {}", self.coalesced)?;
        }
        if self.store_rejects > 0 {
            write!(f, ", rejected {}", self.store_rejects)?;
        }
        if self.store_degraded > 0 {
            write!(f, ", degraded {}", self.store_degraded)?;
        }
        if self.store_writes > 0 || self.store_write_failures > 0 {
            write!(
                f,
                " | wrote {} ({})",
                self.store_writes,
                human_bytes(self.store_bytes_written)
            )?;
            if self.store_write_failures > 0 {
                write!(f, ", {} failed", self.store_write_failures)?;
            }
        }
        if self.store_retries > 0 || self.store_quarantined > 0 {
            write!(
                f,
                " | retries {}, quarantined {}",
                self.store_retries, self.store_quarantined
            )?;
        }
        if self.store_breaker != BreakerState::Closed || self.store_breaker_trips > 0 {
            write!(
                f,
                " | breaker {} ({} trips)",
                self.store_breaker, self.store_breaker_trips
            )?;
        }
        write!(
            f,
            " | resolve {:.1} ms + assembly {:.1} ms",
            1e3 * self.resolve_seconds,
            1e3 * self.assembly_seconds
        )?;
        if self.phases.total_seconds() > 0.0 {
            write!(f, " ({})", self.phases)?;
        }
        Ok(())
    }
}

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The design-level timing result.
    pub timing: DesignTiming,
    /// What the run cost and where its models came from.
    pub stats: RunStats,
}

/// One scenario's full result, kept when a call retains results
/// ([`Engine::analyze_batch`](crate::Engine::analyze_batch) always does;
/// sweeps do under [`SweepOptions::retain_results`](crate::SweepOptions::retain_results)).
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The scenario's label.
    pub scenario: String,
    /// The design-level timing result under this scenario. Scenarios
    /// of one `(group, mode)` bucket share a single analysis.
    pub timing: Arc<DesignTiming>,
    /// Parametric yield `P{delay ≤ target}` when the scenario's overlay
    /// requested a yield target.
    pub timing_yield: Option<f64>,
    /// What this scenario cost. A group's resolve and assembly counters
    /// sit on the group's first scenario only, and an analysis' phases
    /// on the one scenario that ran it, so summing over scenarios never
    /// double-counts.
    pub stats: RunStats,
}

/// One scenario's roll-up in a [`SweepSummary`] — everything a sign-off
/// table needs, a few hundred bytes instead of a full [`DesignTiming`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// The scenario's name (`process=slow/clock=1100ps/…` for a grid
    /// corner).
    pub scenario: String,
    /// Index of the extraction-fingerprint group this scenario collapsed
    /// into (groups are numbered in first-appearance scenario order).
    pub group: usize,
    /// The correlation mode this scenario was analyzed under.
    pub mode: CorrelationMode,
    /// Design delay mean in ps.
    pub mean_ps: f64,
    /// Design delay standard deviation in ps.
    pub sigma_ps: f64,
    /// The 99.73 % quantile (+3σ corner) of the design delay in ps.
    pub p9973_ps: f64,
    /// Parametric yield `P{delay ≤ target}` when the scenario's overlay
    /// requested a yield target.
    pub timing_yield: Option<f64>,
    /// Index of the critical primary output (largest mean arrival;
    /// first wins ties).
    pub critical_po: usize,
    /// Whether this scenario reused a sibling's design analysis outright
    /// (same group, same mode) instead of running its own. Reusers
    /// carry zeroed [`phases`](Self::phases); the analysis cost sits on
    /// the one record per `(group, mode)` with `reused_analysis: false`,
    /// so summing phases over records never double-counts.
    pub reused_analysis: bool,
    /// Per-scenario analysis phase breakdown (see
    /// [`reused_analysis`](Self::reused_analysis) for attribution). The
    /// shared covariance/PCA basis is charged to the first analysis
    /// that built it.
    pub phases: PhaseTimings,
}

/// The aggregate of one call: what
/// [`Engine::analyze_sweep`](crate::Engine::analyze_sweep) returns and
/// what [`BatchRun::stats`] holds.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Scenarios analyzed (the grid or set size).
    pub scenarios: usize,
    /// Distinct extraction-fingerprint groups the scenarios collapsed
    /// into — the number of resolve + assemble passes the call ran.
    pub groups: usize,
    /// Design analyses actually run (distinct `(group, mode)` pairs);
    /// every other scenario reused one of these.
    pub analyses: usize,
    /// Distinct module fingerprints across the whole call — the
    /// ceiling on extractions.
    pub distinct_fingerprints: usize,
    /// Modules actually characterized + extracted. On a cold engine
    /// this equals [`distinct_fingerprints`](Self::distinct_fingerprints).
    pub extractions: usize,
    /// Resolutions coalesced onto in-flight work of another engine or
    /// call sharing the [`FlightGroup`](crate::FlightGroup).
    pub coalesced: usize,
    /// Modules served from the in-memory session cache.
    pub memory_hits: usize,
    /// Modules served from the persistent model library.
    pub store_hits: usize,
    /// Store lookups that came back a clean miss.
    pub store_misses: usize,
    /// Store artifacts rejected as corrupt/mismatched and recomputed.
    pub store_rejects: usize,
    /// Store reads that failed and gracefully degraded to
    /// re-extraction (the call still completed).
    pub store_degraded: usize,
    /// Models written to the persistent library.
    pub store_writes: usize,
    /// Failed (best-effort) library writes.
    pub store_write_failures: usize,
    /// Artifact bytes written to the persistent library.
    pub store_bytes_written: u64,
    /// Artifact bytes read from the persistent library.
    pub store_bytes_read: u64,
    /// Transport retries the backend stack performed during the call.
    pub store_retries: u64,
    /// Corrupt artifacts quarantined during the call.
    pub store_quarantined: u64,
    /// Cold-tier circuit-breaker trips during the call.
    pub store_breaker_trips: u64,
    /// Circuit-breaker state when the call finished;
    /// [`BreakerState::Closed`] for stacks without a breaker.
    pub store_breaker: BreakerState,
    /// Worker threads the call ran with.
    pub workers: usize,
    /// Peak number of full [`DesignTiming`]s resident at once. In
    /// streaming mode this is bounded by
    /// [`workers`](Self::workers); when results are retained it grows
    /// to [`analyses`](Self::analyses).
    pub peak_retained_results: usize,
    /// Wall-clock seconds for the whole call.
    pub elapsed_seconds: f64,
    /// Analysis phase times summed over the whole call (CPU seconds;
    /// groups overlap).
    pub phases: PhaseTimings,
    /// Per-scenario roll-ups, in input order.
    pub records: Vec<ScenarioRecord>,
    /// Full per-scenario results, in input order; empty unless the
    /// call retained results. A batch moves them into
    /// [`BatchRun::scenarios`].
    pub retained: Vec<ScenarioRun>,
}

impl SweepSummary {
    /// The record for a scenario by name, if any.
    pub fn record(&self, scenario: &str) -> Option<&ScenarioRecord> {
        self.records.iter().find(|r| r.scenario == scenario)
    }

    /// The retained full result for a scenario by name, if any
    /// (retain-all mode only).
    pub fn retained_result(&self, scenario: &str) -> Option<&ScenarioRun> {
        self.retained.iter().find(|r| r.scenario == scenario)
    }
}

impl fmt::Display for SweepSummary {
    /// One compact summary line, e.g.
    /// `512 scenarios -> 8 groups / 16 analyses | 8 fingerprints, extracted 8, memory 0, store 0 | peak 4 resident | 12.30 s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios -> {} group{} / {} analyses | {} fingerprint{}, extracted {}, memory {}, store {}",
            self.scenarios,
            self.groups,
            if self.groups == 1 { "" } else { "s" },
            self.analyses,
            self.distinct_fingerprints,
            if self.distinct_fingerprints == 1 { "" } else { "s" },
            self.extractions,
            self.memory_hits,
            self.store_hits,
        )?;
        if self.coalesced > 0 {
            write!(f, ", coalesced {}", self.coalesced)?;
        }
        if self.store_rejects > 0 {
            write!(f, ", rejected {}", self.store_rejects)?;
        }
        if self.store_degraded > 0 {
            write!(f, ", degraded {}", self.store_degraded)?;
        }
        if self.store_writes > 0 || self.store_write_failures > 0 || self.store_bytes_read > 0 {
            write!(
                f,
                " | wrote {} ({}), read {}",
                self.store_writes,
                human_bytes(self.store_bytes_written),
                human_bytes(self.store_bytes_read)
            )?;
            if self.store_write_failures > 0 {
                write!(f, ", {} failed", self.store_write_failures)?;
            }
        }
        if self.store_retries > 0 || self.store_quarantined > 0 {
            write!(
                f,
                " | retries {}, quarantined {}",
                self.store_retries, self.store_quarantined
            )?;
        }
        if self.store_breaker != BreakerState::Closed || self.store_breaker_trips > 0 {
            write!(
                f,
                " | breaker {} ({} trips)",
                self.store_breaker, self.store_breaker_trips
            )?;
        }
        write!(
            f,
            " | peak {} resident | {:.2} s",
            self.peak_retained_results, self.elapsed_seconds
        )
    }
}

/// The result of one scenario batch.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-scenario results, in scenario-set order.
    pub scenarios: Vec<ScenarioRun>,
    /// Batch-wide accounting (its `retained` results moved into
    /// [`scenarios`](Self::scenarios)).
    pub stats: SweepSummary,
}

impl From<SweepSummary> for BatchRun {
    /// Moves a summary's retained results into the run's scenario list.
    fn from(mut stats: SweepSummary) -> Self {
        BatchRun {
            scenarios: std::mem::take(&mut stats.retained),
            stats,
        }
    }
}

impl BatchRun {
    /// The first scenario run with the given label, if any.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioRun> {
        self.scenarios.iter().find(|s| s.scenario == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_display_is_one_compact_line() {
        let stats = RunStats {
            instances: 4,
            distinct_modules: 1,
            extractions: 1,
            store_writes: 1,
            store_bytes_written: 42_161,
            resolve_seconds: 0.0123,
            assembly_seconds: 0.0045,
            ..RunStats::default()
        };
        let line = stats.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("4 instances / 1 distinct"));
        assert!(line.contains("extracted 1"));
        assert!(line.contains("41.2 KiB"));
        // Zero-valued degradations stay out of the line, and so does an
        // unpopulated phase breakdown.
        assert!(!line.contains("rejected"));
        assert!(!line.contains("coalesced"));
        assert!(!line.contains("partition"));
    }

    #[test]
    fn run_stats_display_includes_phase_breakdown_when_present() {
        let stats = RunStats {
            instances: 4,
            distinct_modules: 1,
            assembly_seconds: 0.0045,
            phases: PhaseTimings {
                partition_seconds: 0.0001,
                covariance_seconds: 0.0008,
                eigen_seconds: 0.0020,
                replace_seconds: 0.0009,
                propagate_seconds: 0.0004,
            },
            ..RunStats::default()
        };
        let line = stats.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("eigen 2.0"), "{line}");
        assert!(line.contains("propagate 0.4"), "{line}");
    }

    #[test]
    fn sweep_summary_display_reports_the_dedup_win() {
        let summary = SweepSummary {
            scenarios: 8,
            groups: 1,
            analyses: 2,
            distinct_fingerprints: 1,
            extractions: 1,
            store_writes: 1,
            store_bytes_written: 42_161,
            elapsed_seconds: 1.25,
            ..SweepSummary::default()
        };
        let line = summary.to_string();
        assert!(!line.contains('\n'));
        assert!(
            line.contains("8 scenarios -> 1 group / 2 analyses"),
            "{line}"
        );
        assert!(line.contains("1 fingerprint,"), "{line}");
        assert!(line.contains("extracted 1"), "{line}");
        assert!(line.contains("wrote 1 (41.2 KiB)"), "{line}");
        // Zero-valued counters stay out of the line.
        assert!(!line.contains("coalesced"), "{line}");
        assert!(!line.contains("rejected"), "{line}");
        assert!(!line.contains("retries"), "{line}");
    }
}
