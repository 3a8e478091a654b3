//! The one planner and executor behind every analysis call.
//!
//! [`Engine::analyze`](crate::Engine::analyze),
//! [`Engine::analyze_batch`](crate::Engine::analyze_batch) and
//! [`Engine::analyze_sweep`](crate::Engine::analyze_sweep) are
//! front-ends that hand [`run`] an iterator of scenarios — a
//! [`ScenarioSet`](crate::ScenarioSet)'s, or a
//! [`CornerGrid`](crate::CornerGrid)'s materialized lazily. Three
//! layers follow:
//!
//! 1. **Collapse-aware planning** ([`plan`]): scenarios are grouped by
//!    [`extraction_signature`] *before any work runs*, so a call
//!    schedules exactly one resolve + assemble per distinct
//!    `(config, extract)` group. Within a group, scenarios are bucketed
//!    by correlation mode: mode and yield-target overlays skip
//!    re-extraction *and* re-assembly entirely. The signature is built
//!    from the same payload as the module fingerprints, so groups of
//!    one call never share a fingerprint and the single-flight table
//!    only coalesces across engines or calls.
//! 2. **Execution**: groups run over [`try_parallel_indexed`], sharing
//!    one session cache, one single-flight table and one store; a plan
//!    with one group runs on the calling thread. Per group the design
//!    is assembled once, one [`LevelSchedule`] is built and reused
//!    across mode buckets (graph *structure* is mode-independent), and
//!    the covariance/PCA basis is pulled from a call-wide cache keyed
//!    by the basis-relevant config fields — sigma-scale axes share one
//!    eigendecomposition across all their groups. A failed group raises
//!    an abort flag that later groups check before starting.
//! 3. **Aggregation**: each group returns how it resolved each module
//!    and compact [`ScenarioRecord`]s, folded in group order into one
//!    [`SweepSummary`]. Unless results are retained, a mode bucket's
//!    full [`DesignTiming`] is dropped as soon as its records are
//!    written, so peak resident full results stay O(workers) no matter
//!    the grid size.

use crate::error::EngineError;
use crate::pipeline::report::{ScenarioRecord, ScenarioRun, SweepSummary};
use crate::pipeline::resolve::{self, Resolution};
use crate::pipeline::{assemble, plan, SharedState};
use crate::scenario::Scenario;
use crate::spec::DesignSpec;
use crate::store::{ModelStore, StoreHealth};
use ssta_core::{
    assemble_design_graph_with_basis, extraction_signature, propagate_assembled, yield_analysis,
    AnalyzeOptions, CoreError, CorrelationMode, DesignTiming, DesignVariables, ExtractOptions,
    LevelSchedule, PhaseTimings, SstaConfig,
};
use ssta_math::parallel::try_parallel_indexed;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning knobs for [`Engine::analyze_sweep`](crate::Engine::analyze_sweep).
///
/// The default is the production shape: stream records, keep no full
/// results. Threads come from
/// [`EngineOptions::threads`](crate::EngineOptions::threads).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepOptions {
    /// Keep every corner's full [`DesignTiming`] in
    /// [`SweepSummary::retained`]. Off by default: streaming mode keeps
    /// peak resident full results O(workers), which is the whole point
    /// on a 2 048-corner grid. Turn on for bit-identity tests and small
    /// grids only.
    pub retain_results: bool,
}

/// Scenarios of one group that share a correlation mode — one design
/// analysis serves the whole bucket.
struct ModeBucket {
    mode: CorrelationMode,
    /// `(scenario index, yield target)` per scenario, in input order.
    scenarios: Vec<(usize, Option<f64>)>,
}

/// One extraction-fingerprint group: every scenario whose resolved
/// `(config, extract)` hash to the same [`extraction_signature`].
struct GroupPlan {
    config: SstaConfig,
    extract: ExtractOptions,
    /// Mode buckets in execution order (see [`plan`]).
    buckets: Vec<ModeBucket>,
}

/// A call's plan: every scenario's name, plus the groups they collapse
/// into (numbered in first-appearance order).
struct Plan {
    names: Vec<String>,
    groups: Vec<GroupPlan>,
}

/// Groups scenarios by extraction signature and, within each group, by
/// correlation mode. Runs before any netlist work: the only per-scenario
/// cost is one overlay resolution and one signature hash, and only K
/// distinct configs are retained.
fn plan(
    scenarios: impl IntoIterator<Item = Scenario>,
    base_config: &SstaConfig,
    base_extract: &ExtractOptions,
    base_mode: CorrelationMode,
) -> Plan {
    let mut names = Vec::new();
    let mut groups: Vec<GroupPlan> = Vec::new();
    let mut by_signature: HashMap<String, usize> = HashMap::new();
    for (index, scenario) in scenarios.into_iter().enumerate() {
        let (config, extract, mode) =
            scenario
                .overlay
                .resolve(base_config, base_extract, base_mode);
        let signature = extraction_signature(&config, &extract);
        let group = *by_signature.entry(signature).or_insert_with(|| {
            groups.push(GroupPlan {
                config,
                extract,
                buckets: Vec::new(),
            });
            groups.len() - 1
        });
        let buckets = &mut groups[group].buckets;
        let entry = (index, scenario.overlay.yield_target_ps);
        match buckets.iter_mut().find(|b| b.mode == mode) {
            Some(bucket) => bucket.scenarios.push(entry),
            None => buckets.push(ModeBucket {
                mode,
                scenarios: vec![entry],
            }),
        }
        names.push(scenario.name);
    }
    // Buckets run largest first: global-only analyses keep every
    // instance's local variables private, so they usually carry more
    // variables than the proposed mode's PCA-reduced space (1 024 vs 756
    // on 64 c880 instances), and after the larger analysis the smaller
    // one fits in memory the allocator still holds. While a pass held
    // every arrival (~68 MB per c880 x64 pass), the other order made
    // the warm sweep benchmark re-fault tens of MB per group and lose
    // ~17 % of its throughput. Since a pass frees each arrival once it
    // has been read (~14 MB), the two orders measure alike: over 10
    // alternating 15 s pairs on a 2-vCPU VM, medians of 555 (sorted)
    // vs 556 corners/s, the sorted order ahead in 4, and 19.1k-19.7k
    // vs 19.1k-24.3k minor faults per run (medians 19.4k both).
    for group in &mut groups {
        group
            .buckets
            .sort_by_key(|b| b.mode == CorrelationMode::Proposed);
    }
    Plan { names, groups }
}

/// A saturating high-water-mark gauge over the number of full
/// `DesignTiming`s currently alive.
struct ResidencyGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl ResidencyGauge {
    fn new() -> Self {
        ResidencyGauge {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn acquire(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn release(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// The call-wide covariance/PCA basis cache.
///
/// `DesignVariables` depend on the die, the placed geometries and the
/// config's correlation/grid/PCA settings — *not* on sigma magnitudes —
/// and within one call the die and geometries are determined by the
/// spec plus those same config fields. So the cache key is the
/// serialized basis-relevant config subset, and sigma-scale axes hit
/// one shared eigendecomposition across all their groups.
struct BasisCache {
    entries: Mutex<HashMap<String, Arc<DesignVariables>>>,
}

impl BasisCache {
    fn new() -> Self {
        BasisCache {
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn key(config: &SstaConfig) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            serde_json::to_string(&config.correlation).expect("correlation serializes"),
            config.cell_pitch_um,
            config.grid_side_cells,
            serde_json::to_string(&config.pca).expect("pca options serialize"),
            config.parameters.len(),
        )
    }

    fn get(&self, key: &str) -> Option<Arc<DesignVariables>> {
        self.entries
            .lock()
            .expect("basis cache lock")
            .get(key)
            .cloned()
    }

    fn insert(&self, key: String, basis: Arc<DesignVariables>) {
        self.entries
            .lock()
            .expect("basis cache lock")
            .insert(key, basis);
    }
}

/// What one group hands to the fold.
struct GroupRun {
    /// How each of the group's distinct modules was resolved.
    resolutions: Vec<Resolution>,
    /// The group's distinct module fingerprint keys.
    distinct_keys: Vec<String>,
    /// `(scenario index, record, full timing when retained)` per
    /// scenario of the group.
    scenarios: Vec<(usize, ScenarioRecord, Option<Arc<DesignTiming>>)>,
}

/// Processes one group end to end: resolve the group's models through
/// the shared tiers, assemble the design once, then run one analysis
/// per mode bucket and write a record per scenario.
fn run_group(
    spec: &DesignSpec,
    plan: &Plan,
    group_index: usize,
    shared: &SharedState<'_>,
    basis_cache: &BasisCache,
    gauge: &ResidencyGauge,
    retain: bool,
) -> Result<GroupRun, EngineError> {
    let group = &plan.groups[group_index];
    shared.cancel.checkpoint()?;
    let group_plan = plan::plan_modules(spec, &group.config, &group.extract);
    let resolutions = resolve::resolve_models(
        spec,
        &group_plan.distinct,
        &group.config,
        &group.extract,
        shared,
    )?;

    // Checkpoint between resolve and assemble: everything resolved so
    // far is already published (session cache + library), so stopping
    // here wastes none of it.
    shared.cancel.checkpoint()?;
    let design = assemble::assemble(spec, &group_plan.keys, &group.config, shared.cache)?;

    // The shared covariance/PCA basis, built at most once per distinct
    // basis key across the whole call. Its phase cost is charged to the
    // first proposed-mode analysis below.
    let mut basis_phases = PhaseTimings::default();
    let needs_basis = group
        .buckets
        .iter()
        .any(|b| b.mode == CorrelationMode::Proposed);
    let basis: Option<Arc<DesignVariables>> = if needs_basis {
        let key = BasisCache::key(&group.config);
        match basis_cache.get(&key) {
            Some(basis) => Some(basis),
            None => {
                // Raced builders may duplicate this work; the result is
                // deterministic, so last-insert-wins is harmless.
                let (vars, phases) = DesignVariables::build_profiled(&design, shared.threads)?;
                basis_phases = phases;
                let basis = Arc::new(vars);
                basis_cache.insert(key, Arc::clone(&basis));
                Some(basis)
            }
        }
    } else {
        None
    };

    // One analysis per mode bucket; one level schedule serves every
    // bucket (the graph structure is mode-independent — only the delay
    // coefficients differ).
    let mut schedule: Option<LevelSchedule> = None;
    let mut scenarios = Vec::new();
    for bucket in &group.buckets {
        shared.cancel.checkpoint()?;
        let assembled = assemble_design_graph_with_basis(
            &design,
            bucket.mode,
            &AnalyzeOptions {
                threads: shared.threads,
            },
            basis.as_deref(),
        )?;
        if schedule.is_none() {
            schedule = Some(LevelSchedule::build(&assembled.graph).map_err(CoreError::from)?);
        }
        let level_schedule = schedule.as_ref().expect("schedule built above");
        gauge.acquire();
        let mut timing = propagate_assembled(&assembled, level_schedule, shared.threads)?;
        drop(assembled);
        if bucket.mode == CorrelationMode::Proposed {
            timing.phases.accumulate(&std::mem::take(&mut basis_phases));
            timing.elapsed_seconds = timing.phases.total_seconds();
        }
        let timing = Arc::new(timing);

        // Critical primary output: largest mean arrival, first index
        // wins ties (deterministic regardless of worker count).
        let mut critical_po = 0;
        let mut critical_mean = f64::NEG_INFINITY;
        for (i, arrival) in timing.po_arrivals.iter().enumerate() {
            if arrival.mean() > critical_mean {
                critical_mean = arrival.mean();
                critical_po = i;
            }
        }
        for (slot, &(index, yield_target)) in bucket.scenarios.iter().enumerate() {
            let leader = slot == 0;
            let record = ScenarioRecord {
                scenario: plan.names[index].clone(),
                group: group_index,
                mode: bucket.mode,
                mean_ps: timing.delay.mean(),
                sigma_ps: timing.delay.std_dev(),
                p9973_ps: timing.delay.quantile(0.9973),
                timing_yield: yield_target.map(|t| yield_analysis::timing_yield(&timing.delay, t)),
                critical_po,
                reused_analysis: !leader,
                phases: if leader {
                    timing.phases
                } else {
                    PhaseTimings::default()
                },
            };
            scenarios.push((index, record, retain.then(|| Arc::clone(&timing))));
        }
        // Streaming mode: the bucket is fully summarized, release the
        // full result now. Retained Arcs share the allocation, so in
        // retain mode the gauge stays held — that is the point of
        // measuring peak residency.
        if !retain {
            drop(timing);
            gauge.release();
        }
    }

    Ok(GroupRun {
        resolutions,
        distinct_keys: group_plan
            .distinct
            .into_iter()
            .map(|(key, _)| key)
            .collect(),
        scenarios,
    })
}

/// The backend stack's health now; quiet without a store.
fn store_health(shared: &SharedState<'_>) -> StoreHealth {
    shared.store.map(ModelStore::health).unwrap_or_default()
}

/// Plans `scenarios` over the engine's base setup and runs the plan
/// over shared engine state, with `shared.threads` as the whole call's
/// thread budget. See the [module docs](self) for the three layers.
///
/// Returns [`EngineError::Spec`] for wiring that no model could make
/// valid (see [`DesignSpec::check_wiring`]) before any module resolves,
/// and otherwise the error of the lowest-indexed failing group (groups
/// are numbered in first-scenario order).
pub(crate) fn run(
    spec: &DesignSpec,
    scenarios: impl IntoIterator<Item = Scenario>,
    base_config: &SstaConfig,
    base_extract: &ExtractOptions,
    base_mode: CorrelationMode,
    retain: bool,
    shared: SharedState<'_>,
) -> Result<SweepSummary, EngineError> {
    let started = Instant::now();
    spec.check_wiring()?;
    // Health is attributed at the call boundary: groups share one
    // backend stack, so per-group deltas would double-count.
    let health_before = store_health(&shared);
    let plan = plan(scenarios, base_config, base_extract, base_mode);

    // Each group gets the budget divided by the group fan-out, so a call
    // never oversubscribes to workers² OS threads; with fewer groups
    // than workers the per-group stages get the surplus.
    let workers = shared.threads;
    let group_workers = workers.min(plan.groups.len()).max(1);
    let shared = SharedState {
        threads: (workers / group_workers).max(1),
        ..shared
    };
    let abort = AtomicBool::new(false);
    let basis_cache = BasisCache::new();
    let gauge = ResidencyGauge::new();
    let runs = try_parallel_indexed(plan.groups.len(), group_workers, |g| {
        // A failed sibling makes further groups wasted work.
        if abort.load(Ordering::SeqCst) {
            return Ok(None);
        }
        run_group(spec, &plan, g, &shared, &basis_cache, &gauge, retain)
            .map(Some)
            .inspect_err(|_| abort.store(true, Ordering::SeqCst))
    })?;

    // Fold in group order: each resolution counts once, records and
    // retained results land at their scenario index.
    let n = plan.names.len();
    let mut summary = SweepSummary {
        scenarios: n,
        groups: plan.groups.len(),
        workers,
        ..SweepSummary::default()
    };
    let mut records: Vec<Option<ScenarioRecord>> = vec![None; n];
    let mut retained: Vec<Option<ScenarioRun>> =
        (0..if retain { n } else { 0 }).map(|_| None).collect();
    let mut distinct: BTreeSet<String> = BTreeSet::new();
    for (group, run) in plan.groups.iter().zip(runs) {
        // Groups skip only after a sibling failed, and then `runs` is
        // that failure.
        let run = run.expect("no group skipped without an error");
        summary.analyses += group.buckets.len();
        for how in &run.resolutions {
            summary.count(how);
        }
        distinct.extend(run.distinct_keys);
        for (index, record, timing) in run.scenarios {
            summary.phases.accumulate(&record.phases);
            if let Some(timing) = timing {
                retained[index] = Some(ScenarioRun {
                    scenario: record.scenario.clone(),
                    timing,
                    timing_yield: record.timing_yield,
                });
            }
            records[index] = Some(record);
        }
    }
    summary.records = records
        .into_iter()
        .map(|r| r.expect("every planned scenario has a record"))
        .collect();
    summary.retained = retained
        .into_iter()
        .map(|r| r.expect("every planned scenario is retained"))
        .collect();
    summary.distinct_fingerprints = distinct.len();
    summary.peak_retained_results = gauge.peak();
    summary.store_health = store_health(&shared).delta(&health_before);
    summary.elapsed_seconds = started.elapsed().as_secs_f64();
    Ok(summary)
}
