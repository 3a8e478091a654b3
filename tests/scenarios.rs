//! The scenario-sweep batch contract, end to end:
//!
//! * fingerprint disjointness matrix — scenarios differing only in
//!   analysis-level (non-extract) knobs share store keys; scenarios
//!   differing in extraction-relevant config get distinct keys;
//! * a parallel batch of 8 scenarios sharing one module fingerprint
//!   collapses into one group and performs exactly one extraction, and
//!   batch results are bit-identical to running the scenarios serially;
//! * a warm sweep over ISCAS-85 c880 performs at least one and at most
//!   `distinct_fingerprints` extractions and matches serial runs bit
//!   for bit;
//! * analysis-level overlays (correlation mode, yield target) actually
//!   change the *analysis*, just never the cache keys.

#[path = "support/quad_adder.rs"]
mod quad_adder;

use hier_ssta::core::{
    module_fingerprint, yield_analysis, CorrelationMode, ExtractOptions, ScenarioOverlay,
    SstaConfig,
};
use hier_ssta::engine::{
    DesignSpec, Engine, EngineError, EngineOptions, MemoryBackend, Scenario, ScenarioSet,
    StorageBackend, SweepSummary,
};
use hier_ssta::netlist::{generators, DieRect, Netlist};
use quad_adder::quad_adder_spec;
use std::sync::Arc;

/// A single-instance spec wrapping one netlist, all ports exposed, on a
/// die rounded up to whole grid pitches.
fn single_module_spec(netlist: Netlist) -> DesignSpec {
    let config = SstaConfig::paper();
    let placed = hier_ssta::netlist::Placement::rows(&netlist, config.cell_pitch_um).die();
    let pitch = config.grid_pitch_um();
    let die = DieRect {
        width: (placed.width / pitch).ceil().max(1.0) * pitch,
        height: (placed.height / pitch).ceil().max(1.0) * pitch,
    };
    let n_inputs = netlist.n_inputs();
    let n_outputs = netlist.n_outputs();
    let mut b = DesignSpec::builder(netlist.name().to_owned(), die);
    let m = b.add_module(netlist);
    let inst = b.add_instance("u0", m, (0.0, 0.0)).expect("place");
    for k in 0..n_inputs {
        b.expose_input(vec![(inst, k)]);
    }
    for k in 0..n_outputs {
        b.expose_output(inst, k);
    }
    b.finish().expect("spec")
}

/// A config variant with 1.5x sigmas (extraction-relevant).
fn high_sigma_config() -> SstaConfig {
    let mut config = SstaConfig::paper();
    for p in &mut config.parameters {
        p.sigma_rel = (p.sigma_rel * 1.5).min(0.9);
    }
    config
}

/// Extraction options with a looser pruning threshold
/// (extraction-relevant).
fn loose_delta_options() -> ExtractOptions {
    ExtractOptions {
        delta: 0.08,
        ..ExtractOptions::default()
    }
}

/// Runs each scenario of `set` serially on its own fresh engine (shared
/// backend optional), via the plain single-run `analyze` path with the
/// overlay resolved by hand — the reference the batch must match bit for
/// bit.
fn serial_reference(
    spec: &DesignSpec,
    set: &ScenarioSet,
    backend: Option<Arc<MemoryBackend>>,
) -> Vec<hier_ssta::engine::EngineRun> {
    let base_config = SstaConfig::paper();
    let base_options = EngineOptions::default();
    set.iter()
        .map(|s| {
            let (config, extract, mode) =
                s.overlay
                    .resolve(&base_config, &base_options.extract, base_options.mode);
            let options = EngineOptions {
                extract,
                mode,
                ..EngineOptions::default()
            };
            let mut engine = Engine::with_options(config, options);
            if let Some(b) = &backend {
                engine = engine.with_backend(Arc::clone(b));
            }
            engine.analyze(spec).expect("serial scenario analysis")
        })
        .collect()
}

#[test]
fn fingerprint_disjointness_matrix() {
    // Scenario -> expected key group. Same group = same store keys.
    let netlist = generators::ripple_carry_adder(4).expect("adder");
    let base_config = SstaConfig::paper();
    let base_extract = ExtractOptions::default();
    let matrix: Vec<(&str, ScenarioOverlay, usize)> = vec![
        ("nominal", ScenarioOverlay::new(), 0),
        (
            "global-only",
            ScenarioOverlay::new().with_mode(CorrelationMode::GlobalOnly),
            0,
        ),
        ("yield", ScenarioOverlay::new().with_yield_target(1500.0), 0),
        (
            "same-config-restated",
            // Replacing the config with an *equal* value must not re-key:
            // keys are content-derived, never identity-derived.
            ScenarioOverlay::new().with_config(SstaConfig::paper()),
            0,
        ),
        (
            "high-sigma",
            ScenarioOverlay::new().with_config(high_sigma_config()),
            1,
        ),
        (
            "loose-delta",
            ScenarioOverlay::new().with_extract(loose_delta_options()),
            2,
        ),
        (
            "high-sigma-loose-delta",
            ScenarioOverlay::new()
                .with_config(high_sigma_config())
                .with_extract(loose_delta_options()),
            3,
        ),
    ];

    let keys: Vec<(usize, String)> = matrix
        .iter()
        .map(|(_, overlay, group)| {
            let (config, extract, _) =
                overlay.resolve(&base_config, &base_extract, CorrelationMode::Proposed);
            (
                *group,
                module_fingerprint(&netlist, &config, &extract).to_hex(),
            )
        })
        .collect();
    for (i, (gi, ki)) in keys.iter().enumerate() {
        for (j, (gj, kj)) in keys.iter().enumerate().skip(i + 1) {
            if gi == gj {
                assert_eq!(
                    ki, kj,
                    "{} and {} must share store keys",
                    matrix[i].0, matrix[j].0
                );
            } else {
                assert_ne!(
                    ki, kj,
                    "{} and {} must have disjoint store keys",
                    matrix[i].0, matrix[j].0
                );
            }
        }
    }

    // The engine agrees: a batch over the full matrix resolves exactly
    // one fingerprint per group and extracts each group once.
    let (spec, _) = quad_adder_spec();
    let set: ScenarioSet = matrix
        .iter()
        .map(|(name, overlay, _)| Scenario::with_overlay(*name, overlay.clone()))
        .collect();
    let mut engine = Engine::new(SstaConfig::paper());
    let batch = engine.analyze_batch(&spec, &set).expect("batch");
    assert_eq!(batch.stats.scenarios, 7);
    assert_eq!(batch.stats.distinct_fingerprints, 4);
    assert_eq!(batch.stats.extractions, 4, "one extraction per key group");
}

#[test]
fn eight_parallel_scenarios_extract_once() {
    // Eight scenarios, all resolving to the same extraction inputs
    // (overlays touch only analysis-level knobs): the planner must
    // collapse them into one group with exactly one extraction.
    let (spec, _) = quad_adder_spec();
    let mut set = ScenarioSet::new();
    for i in 0..8 {
        let mut s = Scenario::new(format!("s{i}")).with_yield_target(1200.0 + 50.0 * i as f64);
        if i % 2 == 1 {
            s = s.with_mode(CorrelationMode::GlobalOnly);
        }
        set.push(s);
    }

    let mut engine = Engine::with_options(
        SstaConfig::paper(),
        EngineOptions {
            threads: 8,
            ..EngineOptions::default()
        },
    );
    let batch = engine.analyze_batch(&spec, &set).expect("batch");
    assert_eq!(batch.stats.scenarios, 8);
    assert_eq!(batch.stats.distinct_fingerprints, 1);
    assert_eq!(
        batch.stats.extractions, 1,
        "one extraction for the whole parallel batch"
    );
    // One group resolves its one fingerprint once: nothing to coalesce
    // onto and no second lookup to hit the session cache. The two
    // correlation modes are the group's two analyses.
    assert_eq!(batch.stats.groups, 1);
    assert_eq!(batch.stats.coalesced, 0);
    assert_eq!(batch.stats.memory_hits, 0);
    assert_eq!(batch.stats.analyses, 2);

    // Bit-identical to running the scenarios serially on fresh engines.
    let serial = serial_reference(&spec, &set, None);
    for (batch_run, serial_run) in batch.scenarios.iter().zip(&serial) {
        assert_eq!(batch_run.timing.po_arrivals, serial_run.timing.po_arrivals);
        assert_eq!(
            batch_run.timing.delay.mean().to_bits(),
            serial_run.timing.delay.mean().to_bits()
        );
        assert_eq!(
            batch_run.timing.delay.std_dev().to_bits(),
            serial_run.timing.delay.std_dev().to_bits()
        );
    }

    // The mode overlays were applied: proposed and global-only scenarios
    // disagree on sigma, while equal-mode scenarios agree bit-exactly.
    let proposed = &batch.scenarios[0].timing;
    let global_only = &batch.scenarios[1].timing;
    assert_eq!(proposed.mode, CorrelationMode::Proposed);
    assert_eq!(global_only.mode, CorrelationMode::GlobalOnly);
    assert_ne!(
        proposed.delay.std_dev().to_bits(),
        global_only.delay.std_dev().to_bits()
    );
    assert_eq!(
        batch.scenarios[0].timing.po_arrivals,
        batch.scenarios[2].timing.po_arrivals
    );

    // Yield targets were read off the final distribution per scenario.
    for (i, run) in batch.scenarios.iter().enumerate() {
        let y = run.timing_yield.expect("yield requested");
        let expected = yield_analysis::timing_yield(&run.timing.delay, 1200.0 + 50.0 * i as f64);
        assert_eq!(y.to_bits(), expected.to_bits());
    }
}

#[test]
fn warm_sweep_over_c880_extracts_at_most_distinct_fingerprints() {
    let spec = single_module_spec(generators::iscas85("c880").expect("c880"));
    let backend = Arc::new(MemoryBackend::new());

    // Warm the store with the nominal configuration.
    let warmup = Engine::new(SstaConfig::paper())
        .with_backend(Arc::clone(&backend))
        .analyze(&spec)
        .expect("warmup");
    assert_eq!(warmup.stats.extractions, 1);
    assert_eq!(warmup.stats.store_writes, 1);

    // Four scenarios: three share the nominal fingerprint (analysis-level
    // overlays only), one re-keys via a looser pruning threshold.
    let set = ScenarioSet::new()
        .with(Scenario::new("nominal"))
        .with(Scenario::new("global-only").with_mode(CorrelationMode::GlobalOnly))
        .with(Scenario::new("yield").with_yield_target(2000.0))
        .with(Scenario::new("loose-delta").with_extract(loose_delta_options()));

    let mut engine = Engine::new(SstaConfig::paper()).with_backend(Arc::clone(&backend));
    let batch = engine.analyze_batch(&spec, &set).expect("warm sweep");
    assert_eq!(batch.stats.scenarios, 4);
    assert_eq!(batch.stats.distinct_fingerprints, 2);
    assert!(
        batch.stats.extractions >= 1,
        "the re-keyed scenario must extract"
    );
    assert!(
        batch.stats.extractions <= batch.stats.distinct_fingerprints,
        "a batch never extracts more than its distinct fingerprints"
    );
    // The nominal fingerprint family is served from the warm store, not
    // re-extracted.
    assert!(batch.stats.store_hits >= 1);

    // Bit-identical to running the scenarios serially against the same
    // library.
    let serial = serial_reference(&spec, &set, Some(Arc::clone(&backend)));
    for (batch_run, serial_run) in batch.scenarios.iter().zip(&serial) {
        assert_eq!(
            batch_run.timing.po_arrivals, serial_run.timing.po_arrivals,
            "scenario `{}` must match its serial run bit for bit",
            batch_run.scenario
        );
        assert_eq!(
            batch_run.timing.delay.mean().to_bits(),
            serial_run.timing.delay.mean().to_bits()
        );
    }

    // The loose-delta model is a genuinely different artifact.
    assert_ne!(
        batch
            .scenario("nominal")
            .expect("nominal run")
            .timing
            .delay
            .mean()
            .to_bits(),
        batch
            .scenario("loose-delta")
            .expect("loose-delta run")
            .timing
            .delay
            .mean()
            .to_bits()
    );
}

#[test]
fn batch_with_config_overlays_matches_serial_runs() {
    let (spec, _) = quad_adder_spec();
    let set = ScenarioSet::new()
        .with(Scenario::new("nominal").with_yield_target(1500.0))
        .with(Scenario::new("high-sigma").with_config(high_sigma_config()))
        .with(Scenario::new("loose-delta").with_extract(loose_delta_options()))
        .with(Scenario::new("global-only").with_mode(CorrelationMode::GlobalOnly));

    let mut engine = Engine::new(SstaConfig::paper());
    let batch = engine.analyze_batch(&spec, &set).expect("batch");
    assert_eq!(batch.stats.distinct_fingerprints, 3);
    assert_eq!(batch.stats.extractions, 3);

    let serial = serial_reference(&spec, &set, None);
    for (batch_run, serial_run) in batch.scenarios.iter().zip(&serial) {
        assert_eq!(
            batch_run.timing.po_arrivals, serial_run.timing.po_arrivals,
            "scenario `{}` must match its serial run bit for bit",
            batch_run.scenario
        );
    }

    // Higher sigmas must widen the distribution.
    let nominal = batch.scenario("nominal").expect("nominal");
    let high = batch.scenario("high-sigma").expect("high-sigma");
    assert!(high.timing.delay.std_dev() > nominal.timing.delay.std_dev());

    // Scenario labels and order are preserved.
    let names: Vec<&str> = batch
        .scenarios
        .iter()
        .map(|s| s.scenario.as_str())
        .collect();
    assert_eq!(
        names,
        ["nominal", "high-sigma", "loose-delta", "global-only"]
    );
}

#[test]
fn session_cache_is_shared_across_batches() {
    // A second sweep on the same engine resolves everything from memory.
    let (spec, _) = quad_adder_spec();
    let set = ScenarioSet::new()
        .with(Scenario::new("nominal"))
        .with(Scenario::new("global-only").with_mode(CorrelationMode::GlobalOnly));
    let mut engine = Engine::new(SstaConfig::paper());
    let cold = engine.analyze_batch(&spec, &set).expect("cold batch");
    assert_eq!(cold.stats.extractions, 1);

    let warm = engine.analyze_batch(&spec, &set).expect("warm batch");
    assert_eq!(warm.stats.extractions, 0);
    assert_eq!(warm.stats.coalesced, 0);
    assert_eq!(warm.stats.memory_hits, 1, "one session-cache hit per group");
    for (c, w) in cold.scenarios.iter().zip(&warm.scenarios) {
        assert_eq!(c.timing.po_arrivals, w.timing.po_arrivals);
    }
}

#[test]
fn invalidate_drops_overlay_keyed_models_too() {
    // A module resolved under several scenario overlays is cached under
    // several keys; invalidating it must drop all of them from both
    // tiers, not just the base-configuration key.
    let (spec, m) = quad_adder_spec();
    let backend = Arc::new(MemoryBackend::new());
    let set = ScenarioSet::new()
        .with(Scenario::new("nominal"))
        .with(Scenario::new("high-sigma").with_config(high_sigma_config()))
        .with(Scenario::new("loose-delta").with_extract(loose_delta_options()));

    let mut engine = Engine::new(SstaConfig::paper()).with_backend(Arc::clone(&backend));
    let first = engine.analyze_batch(&spec, &set).expect("first batch");
    assert_eq!(first.stats.extractions, 3);
    assert_eq!(backend.len().expect("store len"), 3);

    assert!(engine.invalidate(&spec, m).expect("invalidate"));
    assert_eq!(
        backend.len().expect("store len"),
        0,
        "every overlay's artifact is removed"
    );

    let second = engine.analyze_batch(&spec, &set).expect("second batch");
    assert_eq!(
        second.stats.extractions, 3,
        "no scenario may be served a stale invalidated model"
    );
    assert_eq!(second.stats.memory_hits, 0);
    assert_eq!(second.stats.store_hits, 0);
    for (a, b) in first.scenarios.iter().zip(&second.scenarios) {
        assert_eq!(a.timing.po_arrivals, b.timing.po_arrivals);
    }
}

#[test]
fn empty_scenario_sets_are_rejected() {
    let (spec, _) = quad_adder_spec();
    let mut engine = Engine::new(SstaConfig::paper());
    assert!(matches!(
        engine.analyze_batch(&spec, &ScenarioSet::new()),
        Err(EngineError::Spec { .. })
    ));
}

#[test]
fn analyze_is_a_single_scenario_batch() {
    // The thin-wrapper contract: `analyze` and a one-scenario batch
    // produce bit-identical timing and the same accounting — `analyze`
    // reports the baseline batch's summary itself, store health included.
    let (spec, _) = quad_adder_spec();
    let mut a = Engine::new(SstaConfig::paper()).with_backend(MemoryBackend::new());
    let plain = a.analyze(&spec).expect("plain analyze");

    let mut b = Engine::new(SstaConfig::paper()).with_backend(MemoryBackend::new());
    let batch = b
        .analyze_batch(&spec, &ScenarioSet::baseline())
        .expect("baseline batch");
    assert_eq!(
        plain.timing.po_arrivals,
        batch.scenarios[0].timing.po_arrivals
    );

    let counters = |s: &SweepSummary| {
        (
            [
                s.scenarios,
                s.groups,
                s.analyses,
                s.distinct_fingerprints,
                s.extractions,
                s.coalesced,
                s.memory_hits,
                s.store_hits,
                s.store_misses,
                s.store_rejects,
                s.store_degraded,
                s.store_writes,
                s.store_write_failures,
                s.workers,
                s.peak_retained_results,
            ],
            [s.store_bytes_written, s.store_bytes_read],
            s.store_health,
        )
    };
    assert_eq!(counters(&plain.stats), counters(&batch.stats));
    // Both runs went through a fresh store, so its counters are live.
    assert_eq!(plain.stats.store_misses, 1);
    assert_eq!(plain.stats.store_writes, 1);
    assert!(plain.stats.store_bytes_written > 0);
}
