//! Machine-readable assembly-performance benchmark.
//!
//! Emits `BENCH_assembly.json` (override the path with `SSTA_BENCH_OUT`)
//! with two sections:
//!
//! * **assembly** — design-level analysis scaling over many-instance
//!   arrays (4/16/64 instances of c880 by default): serial vs parallel
//!   wall-clock, cold vs warm, the per-phase breakdown of the warm
//!   parallel run (the eigensolve is `phases.eigen_seconds`), and the
//!   assembled design graph's level count and widest level. Serial and
//!   parallel results are asserted bit-identical. Passes run on the
//!   calling thread, so `parallel_speedup` measures the assembly
//!   fan-outs alone.
//! * **sequential** (schema 5) — registered-pipeline scaling rows:
//!   characterize + registered extraction wall-clock per chain, then
//!   stage-by-stage `analyze_sequential` serial vs threaded (asserted
//!   bit-identical) with per-stage required-period/slack means.
//!
//! Schema 7 has no solver or engine duels: the harness asserts
//! equivalences only, never a wall-clock ordering. Schema 8 adds each
//! assembly row's `propagate_peak_bytes` and `propagate_allocations`:
//! the heap high-water mark above the starting level, and the number of
//! allocation requests, of one warm serial `propagate_assembled` on the
//! row's Proposed assembly, counted by this binary's global allocator
//! on the calling thread.
//!
//! `--tiny` (or `SSTA_BENCH_PROFILE=tiny`) shrinks every size so CI can
//! exercise the whole path in seconds.
//!
//! Run with `cargo run -p ssta-bench --release --bin bench_json`.

use serde::Serialize;
use ssta_bench::{
    characterize, module_array_from_model, registered_chain_design, registered_pipeline_models,
    BenchProfile,
};
use ssta_core::{
    analyze_sequential, analyze_with, assemble_design_graph, propagate_assembled, AnalyzeOptions,
    CorrelationMode, DesignTiming, ExtractOptions, PhaseTimings, SequentialAnalyzeOptions,
    SstaConfig,
};
use ssta_timing::LevelSchedule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Bytes this thread has allocated and not freed (negative when it
    /// frees what another thread allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The largest `LIVE` since the last [`heap_during`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocation requests (`alloc`, `alloc_zeroed`, `realloc`) on this
    /// thread.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting live bytes and requests on the
/// calling thread.
struct Counting;

fn note(delta: isize, request: bool) {
    // `try_with` fails only while the thread's locals are torn down;
    // allocations then go unrecorded.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if request {
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates
// thread-local `Cell`s with const initializers, which neither allocate
// nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize, true);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize, true);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            note(new_size as isize - layout.size() as isize, true);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), false);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` on the calling thread and returns its heap high-water
/// mark above the starting level, in bytes, and its allocation
/// requests.
fn heap_during<T>(work: impl FnOnce() -> T) -> (usize, u64) {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    let requests = REQUESTS.with(Cell::get);
    drop(work());
    let peak = PEAK.with(Cell::get) - live;
    (peak.max(0) as usize, REQUESTS.with(Cell::get) - requests)
}

/// The emitted `BENCH_assembly.json` document.
#[derive(Serialize)]
struct Report {
    schema: u32,
    profile: String,
    /// Resolved worker count the parallel rows ran with
    /// (`effective_threads(0)`) — without it, speedups from different
    /// machines are not comparable.
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
    serial_seconds: f64,
    cold_seconds: f64,
    warm_seconds: f64,
    parallel_speedup: f64,
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
    /// Schema 8: heap high-water mark of one warm serial propagation
    /// pass above its starting level, in bytes.
    propagate_peak_bytes: usize,
    /// Schema 8: allocation requests of that pass.
    propagate_allocations: u64,
}

/// One registered-pipeline scaling row: a chain of register-bounded
/// stage models analyzed with `analyze_sequential`. Extraction time
/// covers characterize + registered extraction for every stage; the
/// analyze times are min-of-reps over the whole stage-by-stage
/// propagation (serial vs default threads, asserted bit-identical).
#[derive(Serialize)]
struct SequentialPoint {
    cores: Vec<String>,
    n_stages: usize,
    extract_seconds: f64,
    analyze_serial_seconds: f64,
    analyze_parallel_seconds: f64,
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
            "c880 x{n}: {} grids, serial {:.1} ms, parallel cold {:.1} ms / warm {:.1} ms ({:.2}x) | {}",
            point.n_grids,
            1e3 * point.serial_seconds,
            1e3 * point.cold_seconds,
            1e3 * point.warm_seconds,
            point.parallel_speedup,
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
            "pipeline {:?}: extract {:.1} ms, analyze serial {:.1} ms / parallel {:.1} ms, min period {:.1} ps (sigma {:.1})",
            cores,
            1e3 * point.extract_seconds,
            1e3 * point.analyze_serial_seconds,
            1e3 * point.analyze_parallel_seconds,
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
        schema: 8,
        profile: bench.name(),
        effective_threads: ssta_math::parallel::effective_threads(0),
        assembly: points,
        sequential,
    });
}

/// Measures one instance count: a cold parallel run first (first-touch
/// page faults and all), then `reps` warmed serial and parallel runs
/// (min-of-reps each), asserting parallel ≡ serial bit-identically.
/// `parallel_speedup` compares the two *warm* paths, so it reads ~1.0 on
/// a single-core machine and scales with cores elsewhere. Last, the heap
/// of one serial propagation pass is counted after a warm-up pass.
fn scaling_point(design: &ssta_core::Design, instances: usize, reps: usize) -> ScalingPoint {
    let serial_opts = AnalyzeOptions { threads: 1 };
    let parallel_opts = AnalyzeOptions::default();

    let t = Instant::now();
    let cold = analyze_with(design, CorrelationMode::Proposed, &parallel_opts).expect("parallel");
    let cold_seconds = t.elapsed().as_secs_f64();

    let mut serial_seconds = f64::INFINITY;
    let mut serial = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = analyze_with(design, CorrelationMode::Proposed, &serial_opts).expect("serial");
        serial_seconds = serial_seconds.min(t.elapsed().as_secs_f64());
        serial = Some(r);
    }
    let serial = serial.expect("at least one rep");
    assert_bit_identical(&serial, &cold);

    let mut warm_seconds = f64::INFINITY;
    let mut warm = cold;
    for _ in 0..reps {
        let t = Instant::now();
        warm = analyze_with(design, CorrelationMode::Proposed, &parallel_opts).expect("parallel");
        warm_seconds = warm_seconds.min(t.elapsed().as_secs_f64());
    }
    assert_bit_identical(&serial, &warm);

    // Neither the grid count nor the wavefront shape is part of the
    // analysis result: rebuild the partition and the assembled graph.
    let partition = ssta_core::hier::DesignPartition::build(
        design.die(),
        &design.translated_geometries(),
        design.config().grid_pitch_um(),
    );
    let assembled =
        assemble_design_graph(design, CorrelationMode::Proposed, &parallel_opts).expect("assembly");
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
        warm_seconds,
        parallel_speedup: serial_seconds / warm_seconds,
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
/// min-of-reps stage-by-stage sequential analysis, serial and with the
/// default thread count, asserted bit-identical before either is
/// reported.
fn sequential_point(cores: &[&str], clock_period_ps: f64, reps: usize) -> SequentialPoint {
    let config = SstaConfig::paper();
    let (models, extract_seconds) = registered_pipeline_models(cores, "DFF", &config);
    let design = registered_chain_design(&format!("pipe-{}", cores.join("-")), &models, config);

    let serial_opts = SequentialAnalyzeOptions {
        threads: 1,
        ..SequentialAnalyzeOptions::with_period(clock_period_ps)
    };
    let parallel_opts = SequentialAnalyzeOptions::with_period(clock_period_ps);

    let mut analyze_serial_seconds = f64::INFINITY;
    let mut serial = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = analyze_sequential(&design, &serial_opts).expect("serial sequential");
        analyze_serial_seconds = analyze_serial_seconds.min(t.elapsed().as_secs_f64());
        serial = Some(r);
    }
    let serial = serial.expect("at least one rep");

    let mut analyze_parallel_seconds = f64::INFINITY;
    let mut parallel = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = analyze_sequential(&design, &parallel_opts).expect("parallel sequential");
        analyze_parallel_seconds = analyze_parallel_seconds.min(t.elapsed().as_secs_f64());
        parallel = Some(r);
    }
    let parallel = parallel.expect("at least one rep");

    assert_eq!(
        parallel.min_period, serial.min_period,
        "threaded sequential analysis diverged from serial"
    );
    for (a, b) in serial.stages.iter().zip(&parallel.stages) {
        assert_eq!(
            a.setup_slack, b.setup_slack,
            "stage {} diverged",
            a.instance
        );
        assert_eq!(a.hold_slack, b.hold_slack, "stage {} diverged", a.instance);
    }

    SequentialPoint {
        cores: cores.iter().map(|c| c.to_string()).collect(),
        n_stages: models.len(),
        extract_seconds,
        analyze_serial_seconds,
        analyze_parallel_seconds,
        min_period_ps_mean: serial.min_period.mean(),
        min_period_ps_sigma: serial.min_period.std_dev(),
        stages: serial
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

fn assert_bit_identical(a: &DesignTiming, b: &DesignTiming) {
    assert_eq!(
        a.po_arrivals, b.po_arrivals,
        "parallel assembly diverged from serial"
    );
    assert_eq!(a.delay, b.delay, "parallel design delay diverged");
}
