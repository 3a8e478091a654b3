//! The corner-grid mega-sweep contract, end to end:
//!
//! * fingerprint-collapsed planning — a cold sweep over N corners
//!   performs exactly `distinct_fingerprints` extractions, however many
//!   corners the analysis-level axes multiply in;
//! * bit-identity — every retained corner result matches a fresh
//!   one-scenario engine run with the corner's overlay resolved by
//!   hand, bit for bit, and the same corners run as a scenario batch
//!   match the sweep bit for bit with the same collapse (both
//!   property-tested over random grids);
//! * streaming aggregation — peak resident full results stay bounded by
//!   the worker count unless `retain_results` asks for everything;
//! * warm re-sweeps resolve every group from session memory and
//!   reproduce the cold records exactly;
//! * duplicate scenario names are rejected up front with a clear spec
//!   error;
//! * the serving layer runs sweeps: `AnalyzeRequest::sweep` resolves to
//!   `Outcome::Completed` with sane counters.

#[path = "support/quad_adder.rs"]
mod quad_adder;

use hier_ssta::core::{yield_analysis, CorrelationModel, SstaConfig};
use hier_ssta::engine::{
    CornerGrid, DesignSpec, Engine, EngineError, EngineOptions, EngineRun, GridAxis, MemoryBackend,
    Scenario, ScenarioSet, SweepOptions,
};
use hier_ssta::serve::{AnalyzeRequest, ServeOptions, Server};
use proptest::prelude::*;
use quad_adder::quad_adder_spec;
use std::sync::Arc;

/// Runs every corner of `grid` serially on its own fresh engine via the
/// plain single-run `analyze` path with the overlay resolved by hand —
/// the reference a sweep must match bit for bit.
fn serial_reference(spec: &DesignSpec, grid: &CornerGrid) -> Vec<EngineRun> {
    let base_config = SstaConfig::paper();
    let base_options = EngineOptions::default();
    grid.iter()
        .map(|s| {
            let (config, extract, mode) =
                s.overlay
                    .resolve(&base_config, &base_options.extract, base_options.mode);
            let options = EngineOptions {
                extract,
                mode,
                ..EngineOptions::default()
            };
            Engine::with_options(config, options)
                .analyze(spec)
                .expect("serial corner analysis")
        })
        .collect()
}

/// Asserts one sweep (with `retain_results`) matches its serial
/// reference bit for bit, corner by corner.
fn assert_sweep_matches_serial(
    summary: &hier_ssta::engine::SweepSummary,
    grid: &CornerGrid,
    serial: &[EngineRun],
) {
    assert_eq!(summary.records.len(), grid.len());
    assert_eq!(summary.retained.len(), grid.len());
    for (index, (corner, serial_run)) in grid.iter().zip(serial).enumerate() {
        let record = &summary.records[index];
        assert_eq!(
            record.scenario, corner.name,
            "records must follow grid index order"
        );
        assert_eq!(
            record.mean_ps.to_bits(),
            serial_run.timing.delay.mean().to_bits(),
            "corner `{}` mean drifted from its serial run",
            corner.name
        );
        assert_eq!(
            record.sigma_ps.to_bits(),
            serial_run.timing.delay.std_dev().to_bits(),
            "corner `{}` sigma drifted from its serial run",
            corner.name
        );
        match corner.overlay.yield_target_ps {
            Some(target) => {
                let want = yield_analysis::timing_yield(&serial_run.timing.delay, target);
                assert_eq!(
                    record.timing_yield.expect("yield requested").to_bits(),
                    want.to_bits()
                );
            }
            None => assert!(record.timing_yield.is_none()),
        }

        let kept = &summary.retained[index];
        assert_eq!(kept.scenario, corner.name);
        assert_eq!(
            kept.timing.po_arrivals, serial_run.timing.po_arrivals,
            "corner `{}` must match its serial run bit for bit",
            corner.name
        );
        assert_eq!(
            kept.timing.delay.mean().to_bits(),
            serial_run.timing.delay.mean().to_bits()
        );
        assert_eq!(
            kept.timing.delay.std_dev().to_bits(),
            serial_run.timing.delay.std_dev().to_bits()
        );
        assert!(record.critical_po < kept.timing.po_arrivals.len());
    }
}

#[test]
fn cold_sweep_extracts_once_per_distinct_fingerprint() {
    // 2 sigma × 2 corr × 2 modes × 4 clocks = 32 corners. Only the
    // sigma and correlation axes are extraction-relevant: 4 distinct
    // fingerprints, and the planner must schedule exactly 4 extractions
    // without ever racing the single-flight table.
    let spec = quad_adder_spec().0;
    let paper = CorrelationModel::paper();
    let short_range = CorrelationModel {
        cutoff_grids: 8.0,
        ..paper
    };
    let grid = CornerGrid::builder()
        .axis(GridAxis::sigma_scales("process", &[1.0, 1.2]))
        .axis(GridAxis::correlations(
            "corr",
            [("paper", paper), ("short-range", short_range)],
        ))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets(
            "clock",
            &[900.0, 1000.0, 1100.0, 1200.0],
        ))
        .finish()
        .expect("grid");
    assert_eq!(grid.len(), 32);

    let mut engine = Engine::new(SstaConfig::paper());
    let cold = engine
        .analyze_sweep(&spec, &grid, &SweepOptions::default())
        .expect("cold sweep");
    assert_eq!(cold.scenarios, 32);
    assert_eq!(cold.groups, 4, "sigma × corr fingerprint groups");
    assert_eq!(cold.distinct_fingerprints, 4);
    assert_eq!(
        cold.extractions, cold.distinct_fingerprints,
        "a cold sweep extracts exactly once per distinct fingerprint"
    );
    assert_eq!(cold.analyses, 8, "one analysis per group × mode bucket");
    // Streaming (the default): no full results retained, peak residency
    // bounded by the worker count.
    assert!(cold.retained.is_empty());
    assert!(
        cold.peak_retained_results <= cold.workers,
        "streaming sweep retained {} full results with {} workers",
        cold.peak_retained_results,
        cold.workers
    );

    // Warm re-sweep on the same engine: zero extractions, every group
    // from session memory, records bit-identical to the cold pass.
    let warm = engine
        .analyze_sweep(&spec, &grid, &SweepOptions::default())
        .expect("warm sweep");
    assert_eq!(warm.extractions, 0);
    assert_eq!(warm.memory_hits, warm.distinct_fingerprints);
    for (c, w) in cold.records.iter().zip(&warm.records) {
        assert_eq!(c.scenario, w.scenario);
        assert_eq!(c.mean_ps.to_bits(), w.mean_ps.to_bits());
        assert_eq!(c.sigma_ps.to_bits(), w.sigma_ps.to_bits());
    }
}

#[test]
fn retained_sweep_matches_serial_runs_bit_for_bit() {
    // 2 sigma × 2 modes × 2 clocks = 8 corners, 2 fingerprint groups.
    let spec = quad_adder_spec().0;
    let grid = CornerGrid::builder()
        .axis(GridAxis::sigma_scales("process", &[1.0, 1.15]))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets("clock", &[950.0, 1150.0]))
        .finish()
        .expect("grid");

    let options = SweepOptions {
        retain_results: true,
    };
    let summary = Engine::new(SstaConfig::paper())
        .analyze_sweep(&spec, &grid, &options)
        .expect("retained sweep");
    assert_eq!(summary.extractions, summary.distinct_fingerprints);
    assert_eq!(summary.distinct_fingerprints, 2);

    let serial = serial_reference(&spec, &grid);
    assert_sweep_matches_serial(&summary, &grid, &serial);

    // The named accessors agree with positional order.
    let name = &grid.scenario(3).name;
    assert_eq!(
        summary.record(name).expect("record by name").scenario,
        summary.records[3].scenario
    );
    assert_eq!(
        summary
            .retained_result(name)
            .expect("retained by name")
            .scenario,
        summary.retained[3].scenario
    );
}

#[test]
fn duplicate_scenario_names_are_rejected_up_front() {
    let spec = quad_adder_spec().0;
    let set = ScenarioSet::new()
        .with(Scenario::new("nominal"))
        .with(Scenario::new("other"))
        .with(Scenario::new("nominal"));
    let err = Engine::new(SstaConfig::paper())
        .analyze_batch(&spec, &set)
        .expect_err("duplicate names must be rejected");
    assert!(
        matches!(err, EngineError::Spec { .. }),
        "expected a spec error, got {err}"
    );
    assert!(
        err.to_string().contains("\"nominal\""),
        "the error must name the duplicate: {err}"
    );
}

#[test]
fn serving_layer_runs_sweeps() {
    let spec = Arc::new(quad_adder_spec().0);
    let grid = CornerGrid::builder()
        .axis(GridAxis::sigma_scales("process", &[1.0, 1.2]))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets("clock", &[900.0, 1100.0]))
        .finish()
        .expect("grid");

    let server = Server::start(
        SstaConfig::paper(),
        Arc::new(MemoryBackend::new()),
        ServeOptions::default(),
    );
    let ticket = server.submit(AnalyzeRequest::sweep(
        Arc::clone(&spec),
        grid.clone(),
        SweepOptions::default(),
    ));
    let response = ticket.wait();
    assert!(
        response.outcome.is_completed(),
        "sweep request must complete"
    );
    let summary = response.outcome.summary().expect("completed outcome");
    assert_eq!(summary.scenarios, grid.len());
    assert_eq!(summary.extractions, summary.distinct_fingerprints);
    assert_eq!(summary.records.len(), grid.len());

    let snapshot = server.shutdown();
    assert_eq!(snapshot.completed, 1);
    assert_eq!(snapshot.lost(), 0);
}

/// Strategy: a random 1–3-axis grid mixing one extraction-relevant axis
/// (sigma scaling) with analysis-level axes (mode, clock target), up to
/// 3 × 2 × 2 = 12 corners. Axis points are contiguous windows into
/// fixed pools (the vendored proptest has no subsequence strategy).
fn random_grid() -> impl Strategy<Value = CornerGrid> {
    const SIGMAS: [f64; 5] = [0.85, 0.95, 1.0, 1.1, 1.25];
    const CLOCKS: [f64; 3] = [850.0, 1000.0, 1200.0];
    (1usize..4, 0usize..3, 0u32..2, 0usize..3, 0usize..2).prop_map(
        |(n_sigmas, sigma_at, with_modes, n_clocks, clock_at)| {
            let sigmas = &SIGMAS[sigma_at..sigma_at + n_sigmas];
            let mut b = CornerGrid::builder().axis(GridAxis::sigma_scales("process", sigmas));
            if with_modes == 1 {
                b = b.axis(GridAxis::modes("mode"));
            }
            if n_clocks > 0 {
                let clocks = &CLOCKS[clock_at..(clock_at + n_clocks).min(CLOCKS.len())];
                b = b.axis(GridAxis::yield_targets("clock", clocks));
            }
            b.finish().expect("random grid is valid by construction")
        },
    )
}

proptest! {
    // Each case runs a full sweep plus one serial engine per corner;
    // keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_grid_sweeps_match_one_by_one_analyses(grid in random_grid()) {
        let spec = quad_adder_spec().0;
        let options = SweepOptions { retain_results: true };
        let summary = Engine::new(SstaConfig::paper())
            .analyze_sweep(&spec, &grid, &options)
            .expect("sweep");

        // The planner's collapse: one extraction per distinct sigma
        // scale, no matter which analysis-level axes multiplied in.
        prop_assert_eq!(summary.scenarios, grid.len());
        prop_assert_eq!(summary.extractions, summary.distinct_fingerprints);
        prop_assert_eq!(summary.distinct_fingerprints, grid.axes()[0].len());

        let serial = serial_reference(&spec, &grid);
        assert_sweep_matches_serial(&summary, &grid, &serial);

        // The other front-end: the same corners as a scenario set run
        // through the same planner, with the same collapse and the same
        // bits.
        let batch = Engine::new(SstaConfig::paper())
            .analyze_batch(&spec, &grid.to_scenario_set())
            .expect("batch");
        prop_assert_eq!(batch.stats.extractions, summary.extractions);
        prop_assert_eq!(batch.stats.distinct_fingerprints, summary.distinct_fingerprints);
        prop_assert_eq!(batch.stats.analyses, summary.analyses);
        prop_assert_eq!(batch.scenarios.len(), summary.retained.len());
        for (run, kept) in batch.scenarios.iter().zip(&summary.retained) {
            prop_assert_eq!(&run.scenario, &kept.scenario);
            prop_assert_eq!(
                run.timing.delay.mean().to_bits(),
                kept.timing.delay.mean().to_bits()
            );
            prop_assert_eq!(
                run.timing.delay.std_dev().to_bits(),
                kept.timing.delay.std_dev().to_bits()
            );
            prop_assert_eq!(&run.timing.po_arrivals, &kept.timing.po_arrivals);
        }
    }
}
