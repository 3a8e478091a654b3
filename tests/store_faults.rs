//! Fault tolerance of the tiered model store, end to end:
//!
//! * a corrupt store artifact is *counted* (`store_rejects`) and
//!   transparently recomputed — never silently dropped, never served;
//! * a store that goes unavailable degrades to re-extraction: analysis
//!   never fails because the store did, and the degradation is visible
//!   in the run's `SweepSummary`;
//! * the cold-tier circuit breaker trips into the run's `store_health`;
//! * the 512-corner acceptance sweep: under a fault plan injecting
//!   transient get/put failures plus one persistently corrupted
//!   artifact, a warm sweep completes bit-identical to the fault-free
//!   run, the corrupt artifact is quarantined, and retry/quarantine
//!   counters surface in the summary;
//! * chaos property test — random fault plans against a warm engine and
//!   an 8-thread sweep never change an answer (`SSTA_CHAOS_SEED`
//!   reseeds the schedules, as CI's store-chaos job does);
//! * the serving layer loses nothing over a faulty store and reports
//!   degradations and retries in its snapshot.

#[path = "support/quad_adder.rs"]
mod quad_adder;

use hier_ssta::core::SstaConfig;
use hier_ssta::engine::{
    BreakerState, CornerGrid, DesignSpec, Engine, EngineOptions, EngineRun, FaultInjectingBackend,
    FaultPlan, GridAxis, MemoryBackend, RemoteBackend, RetryPolicy, ScenarioSet, StorageBackend,
    SweepOptions, SweepSummary, TieredBackend, TieredOptions,
};
use hier_ssta::serve::{AnalyzeRequest, ServeOptions, Server};
use proptest::prelude::*;
use quad_adder::quad_adder_spec;
use std::sync::Arc;
use std::time::Duration;

/// The seed CI pins via `SSTA_CHAOS_SEED`; local runs use the default.
fn chaos_seed() -> u64 {
    std::env::var("SSTA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0520_CA05)
}

/// A retry policy tuned for tests: real backoff semantics, negligible
/// wall-clock.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_micros(50),
        multiplier: 2.0,
        max_delay: Duration::from_millis(1),
        jitter: 0.25,
        seed: chaos_seed(),
    }
}

/// Populates `backend` by running one fault-free analysis, returning
/// the reference run.
fn populate_store(spec: &DesignSpec, backend: Arc<MemoryBackend>) -> EngineRun {
    let mut engine = Engine::new(SstaConfig::paper()).with_backend(backend);
    let run = engine.analyze(spec).expect("fault-free analysis");
    assert!(run.stats.store_writes > 0, "populate must write artifacts");
    run
}

fn assert_bit_identical(clean: &EngineRun, faulty: &EngineRun) {
    assert_eq!(
        clean.timing.po_arrivals, faulty.timing.po_arrivals,
        "faults must change counters, never answers"
    );
    assert_eq!(
        clean.timing.delay.mean().to_bits(),
        faulty.timing.delay.mean().to_bits()
    );
    assert_eq!(
        clean.timing.delay.std_dev().to_bits(),
        faulty.timing.delay.std_dev().to_bits()
    );
}

fn assert_records_bit_identical(clean: &SweepSummary, faulty: &SweepSummary) {
    assert_eq!(clean.records.len(), faulty.records.len());
    for (c, f) in clean.records.iter().zip(&faulty.records) {
        assert_eq!(c.scenario, f.scenario);
        assert_eq!(
            c.mean_ps.to_bits(),
            f.mean_ps.to_bits(),
            "corner `{}` mean drifted under faults",
            c.scenario
        );
        assert_eq!(c.sigma_ps.to_bits(), f.sigma_ps.to_bits());
        assert_eq!(
            c.timing_yield.map(f64::to_bits),
            f.timing_yield.map(f64::to_bits)
        );
    }
}

// ---------------------------------------------------------------------
// Satellite regression: corrupt artifacts are counted and recomputed.
// ---------------------------------------------------------------------

#[test]
fn corrupt_artifact_is_counted_rejected_and_recomputed() {
    let spec = quad_adder_spec().0;
    let backend = Arc::new(MemoryBackend::new());
    let clean = populate_store(&spec, Arc::clone(&backend));

    // Flip one payload bit in every stored artifact: the envelope still
    // parses, the integrity stamp catches it.
    let keys = backend.list_keys().expect("list");
    assert!(!keys.is_empty());
    for key in &keys {
        let mut bytes = backend.get(key).expect("get").expect("artifact present");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        backend.put(key, &bytes).expect("put corrupt");
    }

    // A fresh engine over the poisoned store: the rejection is counted,
    // the model recomputed, the answer unchanged.
    let mut engine = Engine::new(SstaConfig::paper()).with_backend(Arc::clone(&backend));
    let recovered = engine.analyze(&spec).expect("analysis survives corruption");
    assert!(
        recovered.stats.store_rejects >= 1,
        "the rejection must be counted, not silently dropped: {:?}",
        recovered.stats
    );
    assert_eq!(recovered.stats.store_hits, 0, "corrupt bytes never serve");
    assert_eq!(
        recovered.stats.extractions, clean.stats.extractions,
        "every rejected artifact is re-extracted"
    );
    assert!(
        recovered.stats.store_writes >= 1,
        "the recomputed artifact is written back"
    );
    assert_bit_identical(&clean, &recovered);

    // The write-back healed the store: a third engine hits cleanly.
    let mut engine = Engine::new(SstaConfig::paper()).with_backend(backend);
    let healed = engine.analyze(&spec).expect("healed store");
    assert_eq!(healed.stats.store_rejects, 0);
    assert!(healed.stats.store_hits >= 1, "healed artifacts serve again");
    assert_bit_identical(&clean, &healed);
}

// ---------------------------------------------------------------------
// Graceful degradation: an unavailable store never fails analysis.
// ---------------------------------------------------------------------

#[test]
fn unavailable_store_degrades_to_reextraction_and_counts_it() {
    let spec = quad_adder_spec().0;
    let memory = Arc::new(MemoryBackend::new());
    let clean = populate_store(&spec, Arc::clone(&memory));

    // Every get fails every attempt: reads exhaust their retries and
    // the engine falls back to extraction.
    let plan = FaultPlan {
        get_error_rate: 1.0,
        seed: chaos_seed(),
        ..FaultPlan::none()
    };
    let remote = Arc::new(RemoteBackend::new(
        FaultInjectingBackend::new(memory, plan),
        fast_policy(),
    ));
    let mut engine = Engine::new(SstaConfig::paper()).with_backend(Arc::clone(&remote));
    let run = engine
        .analyze(&spec)
        .expect("analysis survives a dead store");
    assert!(
        run.stats.store_degraded >= 1,
        "the degradation must be counted: {:?}",
        run.stats
    );
    assert!(
        run.stats.store_health.retries >= 1,
        "the failed reads were retried first: {:?}",
        run.stats
    );
    assert_eq!(run.stats.store_hits, 0);
    assert_eq!(run.stats.extractions, clean.stats.extractions);
    assert_bit_identical(&clean, &run);
}

#[test]
fn cold_tier_breaker_trips_surface_in_run_stats() {
    let spec = quad_adder_spec().0;
    let memory = Arc::new(MemoryBackend::new());
    let clean = populate_store(&spec, Arc::clone(&memory));

    // Dead cold tier under an eager breaker: the first failed read
    // trips it, and analysis still completes from re-extraction.
    let plan = FaultPlan {
        get_error_rate: 1.0,
        seed: chaos_seed(),
        ..FaultPlan::none()
    };
    let remote = RemoteBackend::new(FaultInjectingBackend::new(memory, plan), fast_policy());
    let tiered = Arc::new(TieredBackend::new(
        remote,
        TieredOptions {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(30),
            ..TieredOptions::default()
        },
    ));
    let mut engine = Engine::new(SstaConfig::paper()).with_backend(Arc::clone(&tiered));
    let run = engine
        .analyze(&spec)
        .expect("analysis survives a tripped breaker");
    assert!(
        run.stats.store_health.breaker_trips >= 1,
        "the trip must be counted: {:?}",
        run.stats
    );
    assert_ne!(
        run.stats.store_health.breaker,
        BreakerState::Closed,
        "the gauge shows the breaker is not closed"
    );
    assert!(run.stats.store_degraded >= 1);
    assert_bit_identical(&clean, &run);
}

// ---------------------------------------------------------------------
// The 512-corner acceptance sweep.
// ---------------------------------------------------------------------

/// The engine the sweeps below run on: eight threads, whatever the
/// machine.
fn eight_thread_engine() -> Engine {
    Engine::with_options(
        SstaConfig::paper(),
        EngineOptions {
            threads: 8,
            ..EngineOptions::default()
        },
    )
}

fn acceptance_grid() -> CornerGrid {
    let clocks: Vec<f64> = (0..32).map(|i| 800.0 + 25.0 * i as f64).collect();
    CornerGrid::builder()
        .axis(GridAxis::sigma_scales(
            "process",
            &[0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2],
        ))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets("clock", &clocks))
        .finish()
        .expect("grid")
}

#[test]
fn faulty_warm_512_corner_sweep_is_bit_identical_and_quarantines_corruption() {
    let spec = quad_adder_spec().0;
    let grid = acceptance_grid();
    assert_eq!(grid.len(), 512);
    let options = SweepOptions::default();

    // The fault-free reference: a cold sweep that also warms the store.
    let memory = Arc::new(MemoryBackend::new());
    let reference = eight_thread_engine()
        .with_backend(Arc::clone(&memory))
        .analyze_sweep(&spec, &grid, &options)
        .expect("fault-free sweep");
    assert_eq!(reference.scenarios, 512);
    assert!(reference.extractions >= 1);

    // The faulty stack: hot tier over retrying remote over a transport
    // injecting transient failures on well over 10% of gets and puts —
    // plus one artifact corrupted at rest.
    let plan = FaultPlan {
        get_error_rate: 0.25,
        put_error_rate: 0.25,
        corrupt_read_rate: 0.10,
        seed: chaos_seed(),
        ..FaultPlan::none()
    };
    let remote = Arc::new(RemoteBackend::new(
        FaultInjectingBackend::new(Arc::clone(&memory), plan),
        fast_policy(),
    ));
    let stack = Arc::new(TieredBackend::with_defaults(Arc::clone(&remote)));
    let poisoned = memory.list_keys().expect("list")[0].clone();
    assert!(
        remote
            .transport()
            .corrupt_stored(&poisoned)
            .expect("corrupt at rest"),
        "the poisoned key exists"
    );

    // The warm sweep over the faulty stack: same answers, bit for bit.
    let faulty = eight_thread_engine()
        .with_backend(Arc::clone(&stack))
        .analyze_sweep(&spec, &grid, &options)
        .expect("sweep survives the fault plan");
    assert_eq!(faulty.scenarios, 512);
    assert_records_bit_identical(&reference, &faulty);

    // The injuries are visible, not silent.
    assert!(
        faulty.store_health.quarantined >= 1,
        "the corrupt artifact was quarantined: {faulty}"
    );
    assert!(
        faulty.store_health.retries >= 1,
        "transient failures were retried: {faulty}"
    );
    assert!(
        remote.transport().counters().total() >= 1,
        "the plan injected faults"
    );
    // The quarantined bytes were never served (the bit-identity above
    // already proves it); re-extraction re-put a clean artifact, which
    // supersedes the quarantine entry and decodes again.
    let healed = remote
        .get(&poisoned)
        .expect("healed get")
        .expect("re-put artifact present");
    assert!(!healed.is_empty());
    assert!(remote.quarantined_bytes(&poisoned).is_none());
}

// ---------------------------------------------------------------------
// Chaos property test: no fault plan changes an answer.
// ---------------------------------------------------------------------

fn chaos_grid() -> CornerGrid {
    CornerGrid::builder()
        .axis(GridAxis::sigma_scales("process", &[1.0, 1.15]))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets("clock", &[900.0, 1000.0, 1100.0]))
        .finish()
        .expect("grid")
}

/// Strategy: permille-drawn fault rates (the vendored proptest has no
/// float ranges) plus a per-case seed folded into `SSTA_CHAOS_SEED`.
fn random_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0u32..450, 0u32..450, 0u32..300),
        (0u32..300, 0u32..250, 0u32..u32::MAX),
    )
        .prop_map(|((get, put, corrupt), (torn, stuck, seed))| FaultPlan {
            seed: chaos_seed() ^ u64::from(seed),
            get_error_rate: f64::from(get) / 1000.0,
            put_error_rate: f64::from(put) / 1000.0,
            corrupt_read_rate: f64::from(corrupt) / 1000.0,
            torn_write_rate: f64::from(torn) / 1000.0,
            stuck_key_rate: f64::from(stuck) / 1000.0,
            latency: Duration::ZERO,
        })
}

proptest! {
    // Each case runs a fault-free and a faulty 8-thread sweep.
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn random_fault_plans_never_change_sweep_answers(plan in random_plan()) {
        let spec = quad_adder_spec().0;
        let grid = chaos_grid();
        let options = SweepOptions::default();

        let memory = Arc::new(MemoryBackend::new());
        let reference = eight_thread_engine()
            .with_backend(Arc::clone(&memory))
            .analyze_sweep(&spec, &grid, &options)
            .expect("fault-free sweep");

        let stack = Arc::new(TieredBackend::with_defaults(RemoteBackend::new(
            FaultInjectingBackend::new(memory, plan),
            fast_policy(),
        )));
        let faulty = eight_thread_engine()
            .with_backend(stack)
            .analyze_sweep(&spec, &grid, &options)
            .expect("sweep survives any fault plan");

        prop_assert_eq!(faulty.scenarios, grid.len());
        assert_records_bit_identical(&reference, &faulty);
    }
}

// ---------------------------------------------------------------------
// Serving: a faulty store loses no requests.
// ---------------------------------------------------------------------

#[test]
fn serving_over_a_faulty_store_loses_nothing_and_reports_degradations() {
    let spec = Arc::new(quad_adder_spec().0);
    let memory = Arc::new(MemoryBackend::new());
    populate_store(&spec, Arc::clone(&memory));

    // A dead read path: every store get degrades to re-extraction.
    let plan = FaultPlan {
        get_error_rate: 1.0,
        seed: chaos_seed(),
        ..FaultPlan::none()
    };
    let stack = Arc::new(RemoteBackend::new(
        FaultInjectingBackend::new(memory, plan),
        fast_policy(),
    ));
    let server = Server::start(
        SstaConfig::paper(),
        stack,
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
    );

    let tickets: Vec<_> = (0..6)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(&spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    for ticket in tickets {
        let response = ticket.wait();
        assert!(
            response.outcome.is_completed(),
            "a faulty store must not fail requests: {:?}",
            response.outcome.label()
        );
        let run = response.outcome.run().expect("completed batch");
        assert_eq!(run.scenarios.len(), 1);
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.lost(), 0, "no request is ever lost: {snapshot}");
    assert_eq!(snapshot.completed, snapshot.submitted);
    assert!(
        snapshot.degraded >= 1,
        "degradations surface in the snapshot: {snapshot}"
    );
    assert!(
        snapshot.store_health.retries >= 1,
        "retries surface in the snapshot: {snapshot}"
    );
}
