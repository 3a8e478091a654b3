//! Machine-readable assembly-performance benchmark.
//!
//! Emits `BENCH_assembly.json` (override the path with `SSTA_BENCH_OUT`)
//! with two sections:
//!
//! * **assembly** — design-level analysis scaling over many-instance
//!   arrays (4/16/64 instances of c880 by default): a cold run, the
//!   min-of-reps warm run, the per-phase breakdown of the last warm run
//!   (the eigensolve is `phases.eigen_seconds`), and the assembled
//!   design graph's level count and widest level. Every warm run is
//!   asserted to give the cold run's bits.
//! * **sequential** (schema 5) — registered-pipeline scaling rows:
//!   characterize + registered extraction wall-clock per chain, then
//!   the min-of-reps stage-by-stage `analyze_sequential` (every rep
//!   asserted to give the first one's bits) with per-stage
//!   required-period/slack means.
//!
//! The harness asserts equivalences only, never a wall-clock ordering.
//! Schema 8 added each assembly row's `propagate_peak_bytes` and
//! `propagate_allocations`: the heap high-water mark above the starting
//! level, and the number of allocation requests, of one warm
//! `propagate_assembled` on the row's Proposed assembly, counted by this
//! binary's global allocator on the calling thread. Schema 9 drops the
//! threaded columns (`warm_seconds`, `parallel_speedup`,
//! `analyze_parallel_seconds`): a design analysis runs on the calling
//! thread, so there is no second path to time.
//!
//! `--tiny` (or `SSTA_BENCH_PROFILE=tiny`) shrinks every size so CI can
//! exercise the whole path in seconds.
//!
//! Run with `cargo run -p ssta-bench --release --bin bench_json`.

#[path = "../../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use serde::Serialize;
use ssta_bench::{
    characterize, module_array_from_model, registered_chain_design, registered_pipeline_models,
    BenchProfile,
};
use ssta_core::{
    analyze, analyze_sequential, assemble_design_graph, propagate_assembled, CorrelationMode,
    ExtractOptions, PhaseTimings, SequentialAnalyzeOptions, SstaConfig,
};
use ssta_timing::LevelSchedule;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

/// Runs `work` on the calling thread and returns its heap high-water
/// mark above the starting level, in bytes, and its allocation
/// requests.
fn heap_during<T>(work: impl FnOnce() -> T) -> (usize, u64) {
    let live = counting_alloc::reset_peak();
    let requests = counting_alloc::requests();
    drop(work());
    let peak = counting_alloc::peak() - live;
    (peak.max(0) as usize, counting_alloc::requests() - requests)
}

/// The emitted `BENCH_assembly.json` document.
#[derive(Serialize)]
struct Report {
    schema: u32,
    profile: String,
    /// `effective_threads(0)`: the thread count at which the sequential
    /// rows' registered extraction runs its criticality sweep. Every
    /// design analysis runs on one thread.
    effective_threads: usize,
    assembly: Vec<ScalingPoint>,
    /// Schema 5: the registered-pipeline scaling rows — sequential
    /// extraction plus stage-by-stage propagation through registered
    /// boundaries.
    sequential: Vec<SequentialPoint>,
}

#[derive(Serialize)]
struct ScalingPoint {
    instances: usize,
    n_grids: usize,
    n_local_components: usize,
    /// Min-of-reps wall clock of a warm analysis.
    serial_seconds: f64,
    /// Wall clock of the first analysis (first-touch page faults and
    /// all).
    cold_seconds: f64,
    phases: PhaseTimings,
    /// `replace / total` share of the warm run's phase time: building
    /// the per-instance replacement matrices and flattening the
    /// instance graphs. Edges are rewritten into the design variable
    /// space as propagation pulls them, so that rewrite counts in
    /// `propagate_share`.
    replace_share: f64,
    /// `propagate / total` share of the warm run's phase time,
    /// including the rewrite of each edge into the design variable
    /// space.
    propagate_share: f64,
    /// Wavefront levels of the assembled design graph.
    n_levels: usize,
    /// Vertices in its widest level.
    max_level_width: usize,
    /// Schema 8: heap high-water mark of one warm propagation pass
    /// above its starting level, in bytes.
    propagate_peak_bytes: usize,
    /// Schema 8: allocation requests of that pass.
    propagate_allocations: u64,
}

/// One registered-pipeline scaling row: a chain of register-bounded
/// stage models analyzed with `analyze_sequential`. Extraction time
/// covers characterize + registered extraction for every stage; the
/// analyze time is min-of-reps over the whole stage-by-stage
/// propagation.
#[derive(Serialize)]
struct SequentialPoint {
    cores: Vec<String>,
    n_stages: usize,
    extract_seconds: f64,
    analyze_serial_seconds: f64,
    /// Mean / sigma of the design's statistical minimum clock period (ps).
    min_period_ps_mean: f64,
    min_period_ps_sigma: f64,
    stages: Vec<StagePoint>,
}

/// Per-stage slice of the sequential row.
#[derive(Serialize)]
struct StagePoint {
    instance: String,
    required_period_ps_mean: f64,
    setup_slack_ps_mean: f64,
    /// `None` (JSON `null`) for stages whose model ships no hold arcs.
    hold_slack_ps_mean: Option<f64>,
}

fn main() {
    let bench = BenchProfile::from_env("BENCH_assembly");
    let tiny = bench.tiny;
    let (instance_counts, reps): (&[usize], usize) = if tiny {
        (&[2, 4], 1)
    } else {
        (&[4, 16, 64], 3)
    };

    println!("characterizing c880 once (model shared across all array sizes)...");
    let ctx = characterize("c880");
    let model = Arc::new(
        ctx.extract_model(&ExtractOptions::default())
            .expect("extraction"),
    );

    let mut points = Vec::new();
    for &n in instance_counts {
        let design = module_array_from_model("c880", Arc::clone(&model), n, SstaConfig::paper());
        let point = scaling_point(&design, n, reps);
        println!(
            "c880 x{n}: {} grids, cold {:.1} ms, warm {:.1} ms | {}",
            point.n_grids,
            1e3 * point.cold_seconds,
            1e3 * point.serial_seconds,
            point.phases,
        );
        println!(
            "         {} levels, widest {}; a pass peaks at {:.2} MB over {} allocations",
            point.n_levels,
            point.max_level_width,
            point.propagate_peak_bytes as f64 / 1e6,
            point.propagate_allocations,
        );
        points.push(point);
    }

    // Registered-pipeline rows: short chain and (full profile) an
    // ISCAS-85-class chain. Clock periods are comfortable for each
    // chain's logic depth so slacks stay meaningfully positive.
    let sequential_rows: &[(&[&str], f64)] = if tiny {
        &[(&["rca4", "rca4"], 1500.0)]
    } else {
        &[
            (&["rca4", "rca4", "rca4"], 1500.0),
            (&["c432", "c880", "c432"], 3000.0),
        ]
    };
    let mut sequential = Vec::new();
    for &(cores, period) in sequential_rows {
        let point = sequential_point(cores, period, reps);
        println!(
            "pipeline {:?}: extract {:.1} ms, analyze {:.1} ms, min period {:.1} ps (sigma {:.1})",
            cores,
            1e3 * point.extract_seconds,
            1e3 * point.analyze_serial_seconds,
            point.min_period_ps_mean,
            point.min_period_ps_sigma,
        );
        for stage in &point.stages {
            println!(
                "         {}: required {:.1} ps, setup slack {:.1} ps, hold slack {}",
                stage.instance,
                stage.required_period_ps_mean,
                stage.setup_slack_ps_mean,
                stage
                    .hold_slack_ps_mean
                    .map_or("n/a".into(), |v| format!("{v:.1} ps")),
            );
        }
        sequential.push(point);
    }

    bench.write(&Report {
        schema: 9,
        profile: bench.name(),
        effective_threads: ssta_math::parallel::effective_threads(0),
        assembly: points,
        sequential,
    });
}

/// Measures one instance count: a cold run first (first-touch page
/// faults and all), then `reps` warm runs (min-of-reps), each asserted
/// to give the cold run's bits. Last, the heap of one propagation pass
/// is counted after a warm-up pass.
fn scaling_point(design: &ssta_core::Design, instances: usize, reps: usize) -> ScalingPoint {
    let run = || analyze(design, CorrelationMode::Proposed).expect("analysis");

    let t = Instant::now();
    let cold = run();
    let cold_seconds = t.elapsed().as_secs_f64();

    let mut serial_seconds = f64::INFINITY;
    let mut warm = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = run();
        serial_seconds = serial_seconds.min(t.elapsed().as_secs_f64());
        assert_eq!(r.po_arrivals, cold.po_arrivals, "warm run diverged");
        assert_eq!(r.delay, cold.delay, "warm design delay diverged");
        warm = Some(r);
    }
    let warm = warm.expect("at least one rep");

    // Neither the grid count nor the wavefront shape is part of the
    // analysis result: rebuild the partition and the assembled graph.
    let partition = ssta_core::hier::DesignPartition::build(
        design.die(),
        &design.translated_geometries(),
        design.config().grid_pitch_um(),
    );
    let assembled = assemble_design_graph(design, CorrelationMode::Proposed).expect("assembly");
    let schedule = LevelSchedule::build(&assembled.graph).expect("levelize");
    let propagate = || propagate_assembled(&assembled, &schedule, 1).expect("propagate");
    drop(propagate());
    let (propagate_peak_bytes, propagate_allocations) = heap_during(propagate);

    let total = warm.phases.total_seconds();
    let share = |phase: f64| if total > 0.0 { phase / total } else { 0.0 };
    ScalingPoint {
        instances,
        n_grids: partition.n_grids(),
        n_local_components: warm.n_local_components,
        serial_seconds,
        cold_seconds,
        replace_share: share(warm.phases.replace_seconds),
        propagate_share: share(warm.phases.propagate_seconds),
        phases: warm.phases,
        n_levels: schedule.n_levels(),
        max_level_width: schedule.max_width(),
        propagate_peak_bytes,
        propagate_allocations,
    }
}

/// Measures one registered-pipeline chain: stage extraction once, then
/// min-of-reps stage-by-stage sequential analysis, each rep asserted to
/// give the first one's bits.
fn sequential_point(cores: &[&str], clock_period_ps: f64, reps: usize) -> SequentialPoint {
    let config = SstaConfig::paper();
    let (models, extract_seconds) = registered_pipeline_models(cores, "DFF", &config);
    let design = registered_chain_design(&format!("pipe-{}", cores.join("-")), &models, config);
    let options = SequentialAnalyzeOptions::with_period(clock_period_ps);

    let mut analyze_serial_seconds = f64::INFINITY;
    let mut reps_run = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        reps_run.push(analyze_sequential(&design, &options).expect("sequential analysis"));
        analyze_serial_seconds = analyze_serial_seconds.min(t.elapsed().as_secs_f64());
    }
    let (timing, later) = reps_run.split_first().expect("at least one rep");
    for r in later {
        assert_eq!(r.min_period, timing.min_period, "sequential rep diverged");
        for (a, b) in r.stages.iter().zip(&timing.stages) {
            assert_eq!(
                a.setup_slack, b.setup_slack,
                "stage {} diverged",
                a.instance
            );
            assert_eq!(a.hold_slack, b.hold_slack, "stage {} diverged", a.instance);
        }
    }

    SequentialPoint {
        cores: cores.iter().map(|c| c.to_string()).collect(),
        n_stages: models.len(),
        extract_seconds,
        analyze_serial_seconds,
        min_period_ps_mean: timing.min_period.mean(),
        min_period_ps_sigma: timing.min_period.std_dev(),
        stages: timing
            .stages
            .iter()
            .map(|s| StagePoint {
                instance: s.instance.clone(),
                required_period_ps_mean: s.required_period.mean(),
                setup_slack_ps_mean: s.setup_slack.mean(),
                hold_slack_ps_mean: s.hold_slack.as_ref().map(|h| h.mean()),
            })
            .collect(),
    }
}
