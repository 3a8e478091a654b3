//! Pipeline accounting: per-scenario records and results, and the one
//! summary every call returns.
//!
//! Each group the executor runs reports how it resolved its modules (a
//! [`Resolution`] per distinct fingerprint) and one compact
//! [`ScenarioRecord`] per scenario; the fold counts the resolutions into
//! a [`SweepSummary`] through [`SweepSummary::count`] and keeps full
//! [`ScenarioRun`]s when results are retained. The summary implements
//! [`std::fmt::Display`] with a compact one-line summary so examples and
//! services can log a call without dumping fields by hand.

use crate::pipeline::resolve::Resolution;
use crate::store::StoreHealth;
use ssta_core::{CorrelationMode, DesignTiming, PhaseTimings};
use std::fmt;
use std::sync::Arc;

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

/// The result of one [`Engine::analyze`](crate::Engine::analyze) — a
/// one-scenario batch.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The design-level timing result.
    pub timing: DesignTiming,
    /// What the run cost and where its models came from: the baseline
    /// batch's summary.
    pub stats: SweepSummary,
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

/// The accounting of one engine call: what
/// [`Engine::analyze_sweep`](crate::Engine::analyze_sweep) returns, and
/// what [`BatchRun::stats`] and [`EngineRun::stats`] hold.
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
    /// What the backend stack did during the call (retries,
    /// quarantines, breaker trips, …): the delta of its
    /// [`StoreHealth`] across the call, with the breaker gauge as of the
    /// call's end. Quiet without a store.
    pub store_health: StoreHealth,
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

    /// Counts one module resolution into the tier counters — the one
    /// place a [`Resolution`] becomes numbers.
    pub(crate) fn count(&mut self, how: &Resolution) {
        match *how {
            Resolution::Memory => self.memory_hits += 1,
            Resolution::Store { bytes } => {
                self.store_hits += 1;
                self.store_bytes_read += bytes;
            }
            Resolution::Extracted {
                missed,
                rejected,
                degraded,
                wrote,
                write_failed,
            } => {
                self.extractions += 1;
                self.store_misses += usize::from(missed);
                self.store_rejects += usize::from(rejected);
                self.store_degraded += usize::from(degraded);
                if let Some(bytes) = wrote {
                    self.store_writes += 1;
                    self.store_bytes_written += bytes;
                }
                self.store_write_failures += usize::from(write_failed);
            }
            Resolution::Coalesced => self.coalesced += 1,
        }
    }
}

/// `one` for a count of one, `many` otherwise.
fn noun<'a>(n: usize, one: &'a str, many: &'a str) -> &'a str {
    if n == 1 {
        one
    } else {
        many
    }
}

impl fmt::Display for SweepSummary {
    /// One compact summary line, e.g.
    /// `512 scenarios -> 8 groups / 16 analyses | 8 fingerprints, extracted 8, memory 0, store 0 | peak 4 resident | 12.30 s (partition … ms)`.
    /// Zero-valued degradations, a quiet store and an empty phase
    /// breakdown stay out of the line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> {} {} / {} {} | {} {}, extracted {}, memory {}, store {}",
            self.scenarios,
            noun(self.scenarios, "scenario", "scenarios"),
            self.groups,
            noun(self.groups, "group", "groups"),
            self.analyses,
            noun(self.analyses, "analysis", "analyses"),
            self.distinct_fingerprints,
            noun(self.distinct_fingerprints, "fingerprint", "fingerprints"),
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
        if !self.store_health.is_quiet() {
            write!(f, " | store {}", self.store_health)?;
        }
        write!(f, " | peak {} resident | ", self.peak_retained_results)?;
        if self.elapsed_seconds < 1.0 {
            write!(f, "{:.1} ms", 1e3 * self.elapsed_seconds)?;
        } else {
            write!(f, "{:.2} s", self.elapsed_seconds)?;
        }
        if self.phases.total_seconds() > 0.0 {
            write!(f, " ({})", self.phases)?;
        }
        Ok(())
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
    use crate::store::BreakerState;

    #[test]
    fn sweep_summary_display_reports_the_dedup_win() {
        let mut summary = SweepSummary {
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
        assert!(line.contains("| 1.25 s"), "{line}");
        // Zero-valued counters, a quiet store and an unpopulated phase
        // breakdown stay out of the line.
        assert!(!line.contains("coalesced"), "{line}");
        assert!(!line.contains("rejected"), "{line}");
        assert!(!line.contains("retries"), "{line}");
        assert!(!line.contains("breaker"), "{line}");
        assert!(!line.contains("partition"), "{line}");

        // A phase breakdown and a non-quiet store both show up, still on
        // one line.
        summary.phases = PhaseTimings {
            partition_seconds: 0.0001,
            covariance_seconds: 0.0008,
            eigen_seconds: 0.0020,
            replace_seconds: 0.0009,
            propagate_seconds: 0.0004,
        };
        summary.store_health = StoreHealth {
            retries: 3,
            quarantined: 1,
            breaker_trips: 2,
            breaker: BreakerState::Open,
            ..StoreHealth::default()
        };
        summary.elapsed_seconds = 0.0045;
        let line = summary.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("| 4.5 ms"), "{line}");
        assert!(line.contains("eigen 2.0"), "{line}");
        assert!(line.contains("propagate 0.4"), "{line}");
        assert!(line.contains("retries 3, quarantined 1"), "{line}");
        assert!(line.contains("breaker open (2 trips)"), "{line}");
    }
}
