//! Machine-readable corner-grid mega-sweep benchmark.
//!
//! Emits `BENCH_sweep.json` (override the path with `SSTA_BENCH_OUT`)
//! with one row per grid size over a chained module-array workload.
//! Each row sweeps the grid twice on
//! [`Engine::analyze_sweep`](ssta_engine::Engine::analyze_sweep):
//!
//! * **cold** — a fresh engine: the fingerprint-collapsed planner must
//!   schedule exactly `distinct_fingerprints` extractions, however many
//!   corners the grid has (asserted, every profile);
//! * **warm** — the same engine again, swept at least 5 times and, in
//!   the full profile, until at least 1 s has passed: zero extractions,
//!   every group resolves from session memory (asserted on every sweep).
//!
//! Every run streams: peak resident full results must stay bounded by
//! the worker count (asserted), which is what lets a 2 048-corner grid
//! run in O(workers) result memory. Rows report corners/second (schema
//! 2: the median sweep's, with the slowest and fastest sweep's beside
//! it), the collapse ratio (corners per extraction) and the aggregate
//! per-phase time shares of the last sweep.
//!
//! `--tiny` (or `SSTA_BENCH_PROFILE=tiny`) shrinks the grid list for CI
//! smoke; the tiny profile defaults to its own gitignored output path.
//!
//! Run with `cargo run -p ssta-bench --release --bin bench_sweep`.

use serde::Serialize;
use ssta_bench::{module_array_spec, BenchProfile};
use ssta_core::{CorrelationModel, ExtractOptions, PhaseTimings, ScenarioOverlay, SstaConfig};
use ssta_engine::{CornerGrid, Engine, GridAxis, SweepOptions, SweepSummary};
use ssta_math::parallel::effective_threads;
use std::time::{Duration, Instant};

/// Warm sweeps timed per row, at least.
const WARM_SWEEPS: usize = 5;

/// Wall-clock time the full profile keeps sweeping warm, at least.
const WARM_BUDGET: Duration = Duration::from_secs(1);

#[derive(Serialize)]
struct Report {
    schema: u32,
    profile: String,
    module: String,
    instances: usize,
    /// Resolved sweep worker count (`effective_threads(0)`).
    effective_threads: usize,
    grids: Vec<GridRow>,
}

#[derive(Serialize)]
struct GridRow {
    corners: usize,
    axes: Vec<String>,
    /// Extraction-fingerprint groups the corners collapsed into.
    groups: usize,
    /// Design analyses actually run (distinct group × mode pairs).
    analyses: usize,
    distinct_fingerprints: usize,
    /// Corners served per extraction — the collapse the planner buys.
    corners_per_extraction: f64,
    cold: SweepPoint,
    warm: SweepPoint,
}

#[derive(Serialize)]
struct SweepPoint {
    /// Sweeps timed: one cold, or every warm one.
    sweeps: usize,
    /// Median wall-clock seconds of one sweep.
    seconds: f64,
    extractions: usize,
    memory_hits: usize,
    /// Corners per second of the median sweep.
    scenarios_per_sec: f64,
    /// Corners per second of the slowest sweep.
    scenarios_per_sec_min: f64,
    /// Corners per second of the fastest sweep.
    scenarios_per_sec_max: f64,
    peak_retained_results: usize,
    phases: PhaseTimings,
    /// `replace / total` share of the aggregate phase time.
    replace_share: f64,
    /// `propagate / total` share of the aggregate phase time.
    propagate_share: f64,
    /// `(covariance + eigen) / total` share of the aggregate phase time
    /// — bounded by the shared-basis cache, not by the corner count.
    basis_share: f64,
}

fn main() {
    let bench = BenchProfile::from_env("BENCH_sweep");
    let tiny = bench.tiny;
    let (module, instances, corner_counts): (&str, usize, &[usize]) = if tiny {
        ("c432", 2, &[8])
    } else {
        ("c432", 4, &[64, 512, 2048])
    };
    let workers = effective_threads(0);

    println!("sweep workload: {module} x{instances} ({workers} workers)");
    let spec = module_array_spec(module, instances);

    let mut rows = Vec::new();
    for &corners in corner_counts {
        let grid = grid_for(corners, tiny);
        assert_eq!(grid.len(), corners, "grid construction drifted");
        let axes: Vec<String> = grid.axes().iter().map(|a| a.name().to_owned()).collect();

        let mut engine = Engine::new(SstaConfig::paper());
        let options = SweepOptions::default();

        let started = Instant::now();
        let cold = engine
            .analyze_sweep(&spec, &grid, &options)
            .expect("cold sweep");
        let cold_seconds = started.elapsed().as_secs_f64();
        // The planner's contract: N corners, exactly one extraction per
        // distinct fingerprint — the single-flight table never even has
        // to race.
        assert_eq!(
            cold.extractions, cold.distinct_fingerprints,
            "cold sweep must extract exactly once per distinct fingerprint"
        );
        assert!(
            cold.peak_retained_results <= workers,
            "streaming sweep retained {} full results with {workers} workers",
            cold.peak_retained_results
        );

        let started = Instant::now();
        let mut warm_seconds = Vec::new();
        let warm = loop {
            let sweep_started = Instant::now();
            let warm = engine
                .analyze_sweep(&spec, &grid, &options)
                .expect("warm sweep");
            warm_seconds.push(sweep_started.elapsed().as_secs_f64());
            assert_eq!(warm.extractions, 0, "warm sweep must not extract");
            assert_eq!(
                warm.memory_hits, warm.distinct_fingerprints,
                "every distinct fingerprint must resolve from session memory when warm"
            );
            assert!(warm.peak_retained_results <= workers);
            if warm_seconds.len() >= WARM_SWEEPS && (tiny || started.elapsed() >= WARM_BUDGET) {
                break warm;
            }
        };

        let row = GridRow {
            corners,
            axes,
            groups: cold.groups,
            analyses: cold.analyses,
            distinct_fingerprints: cold.distinct_fingerprints,
            corners_per_extraction: corners as f64 / cold.extractions.max(1) as f64,
            cold: point(&cold, &[cold_seconds]),
            warm: point(&warm, &warm_seconds),
        };
        println!(
            "{corners} corners -> {} groups / {} analyses / {} extractions ({:.0} corners per extraction)",
            row.groups, row.analyses, cold.extractions, row.corners_per_extraction
        );
        println!(
            "  cold {:.2} s ({:.0}/s), warm {:.3} s ({:.0}/s, {:.0}-{:.0} over {} sweeps), \
             peak {} resident",
            row.cold.seconds,
            row.cold.scenarios_per_sec,
            row.warm.seconds,
            row.warm.scenarios_per_sec,
            row.warm.scenarios_per_sec_min,
            row.warm.scenarios_per_sec_max,
            row.warm.sweeps,
            row.cold
                .peak_retained_results
                .max(row.warm.peak_retained_results),
        );
        rows.push(row);
    }

    bench.write(&Report {
        schema: 2,
        profile: bench.name(),
        module: module.into(),
        instances,
        effective_threads: workers,
        grids: rows,
    });
}

/// Builds the corner grid for one row. Extraction-relevant axes (sigma
/// scaling, correlation structure, extraction δ) multiply the group
/// count; analysis-level axes (mode, clock target) multiply only the
/// corner count — that asymmetry is the whole benchmark.
fn grid_for(corners: usize, tiny: bool) -> CornerGrid {
    if tiny {
        // 2 sigma × 2 modes × 2 clocks = 8 corners, 2 groups.
        assert_eq!(corners, 8);
        return CornerGrid::builder()
            .axis(GridAxis::sigma_scales("process", &[1.0, 1.2]))
            .axis(GridAxis::modes("mode"))
            .axis(GridAxis::yield_targets("clock", &[900.0, 1100.0]))
            .finish()
            .expect("tiny grid");
    }
    let paper = CorrelationModel::paper();
    let short_range = CorrelationModel {
        cutoff_grids: 8.0,
        ..paper
    };
    match corners {
        // 4 sigma × 2 corr × 2 modes × 4 clocks = 64 corners, 8 groups.
        64 => CornerGrid::builder()
            .axis(GridAxis::sigma_scales("process", &[0.8, 0.9, 1.0, 1.2]))
            .axis(GridAxis::correlations(
                "corr",
                [("paper", paper), ("short-range", short_range)],
            ))
            .axis(GridAxis::modes("mode"))
            .axis(GridAxis::yield_targets(
                "clock",
                &[800.0, 900.0, 1000.0, 1100.0],
            ))
            .finish()
            .expect("64-corner grid"),
        // 8 sigma × 2 corr × 2 modes × 16 clocks = 512 corners, 16 groups.
        512 => CornerGrid::builder()
            .axis(GridAxis::sigma_scales(
                "process",
                &[0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2],
            ))
            .axis(GridAxis::correlations(
                "corr",
                [("paper", paper), ("short-range", short_range)],
            ))
            .axis(GridAxis::modes("mode"))
            .axis(GridAxis::yield_targets("clock", &clock_targets(16)))
            .finish()
            .expect("512-corner grid"),
        // 8 sigma × 2 corr × 2 δ × 2 modes × 32 clocks = 2048 corners,
        // 32 groups.
        2048 => CornerGrid::builder()
            .axis(GridAxis::sigma_scales(
                "process",
                &[0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2],
            ))
            .axis(GridAxis::correlations(
                "corr",
                [("paper", paper), ("short-range", short_range)],
            ))
            .axis(GridAxis::new(
                "delta",
                [
                    ("d0.05", ScenarioOverlay::new()),
                    (
                        "d0.02",
                        ScenarioOverlay::new().with_extract(ExtractOptions {
                            delta: 0.02,
                            ..ExtractOptions::default()
                        }),
                    ),
                ],
            ))
            .axis(GridAxis::modes("mode"))
            .axis(GridAxis::yield_targets("clock", &clock_targets(32)))
            .finish()
            .expect("2048-corner grid"),
        other => panic!("no grid shape defined for {other} corners"),
    }
}

/// `n` clock targets spread over 700–1800 ps.
fn clock_targets(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| 700.0 + 1100.0 * k as f64 / (n - 1) as f64)
        .collect()
}

/// One row's figures: the median, fastest and slowest of the timed
/// sweeps `seconds`, and the phases of the sweep `summary` describes.
fn point(summary: &SweepSummary, seconds: &[f64]) -> SweepPoint {
    let mut sorted = seconds.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
    let rate = |seconds: f64| summary.scenarios as f64 / seconds.max(1e-9);
    let total = summary.phases.total_seconds();
    let share = |phase: f64| if total > 0.0 { phase / total } else { 0.0 };
    SweepPoint {
        sweeps: n,
        seconds: median,
        extractions: summary.extractions,
        memory_hits: summary.memory_hits,
        scenarios_per_sec: rate(median),
        scenarios_per_sec_min: rate(sorted[n - 1]),
        scenarios_per_sec_max: rate(sorted[0]),
        peak_retained_results: summary.peak_retained_results,
        phases: summary.phases,
        replace_share: share(summary.phases.replace_seconds),
        propagate_share: share(summary.phases.propagate_seconds),
        basis_share: share(summary.phases.covariance_seconds + summary.phases.eigen_seconds),
    }
}
