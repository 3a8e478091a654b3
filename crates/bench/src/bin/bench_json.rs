//! Machine-readable assembly-performance benchmark.
//!
//! Emits `BENCH_assembly.json` (override the path with `SSTA_BENCH_OUT`)
//! with two sections:
//!
//! * **eigen** — the QL-vs-Jacobi eigensolver duel on a spatial
//!   covariance matrix (200×200 by default). In full mode the run
//!   *asserts* the ≥5× speedup the fast solver exists for, after
//!   cross-checking both spectra against each other and both
//!   reconstructions against the input.
//! * **assembly** — design-level analysis scaling over many-instance
//!   arrays (4/16/64 instances of c880 by default): serial vs parallel
//!   wall-clock, cold vs warm, the per-phase breakdown of the warm
//!   parallel run, and (schema 3) a **propagate** duel on the assembled
//!   design graph — push-based topo-order propagation vs the levelized
//!   pull engine, plus the schedule's level count and maximum level
//!   width. Serial and parallel results are asserted bit-identical; in
//!   full mode the pull engine must beat push on the 16- and
//!   64-instance rows. Schema 6 drops the threaded-pull column: passes
//!   run on the calling thread, so `parallel_speedup` measures the
//!   assembly fan-outs alone.
//! * **sequential** (schema 5) — registered-pipeline scaling rows:
//!   characterize + registered extraction wall-clock per chain, then
//!   stage-by-stage `analyze_sequential` serial vs threaded (asserted
//!   bit-identical) with per-stage required-period/slack means.
//!
//! `--tiny` (or `SSTA_BENCH_PROFILE=tiny`) shrinks every size so CI can
//! exercise the whole path in seconds; speed assertions are relaxed to
//! equivalence-only there, because tiny graphs measure mostly overhead.
//!
//! Run with `cargo run -p ssta-bench --release --bin bench_json`.

use serde::Serialize;
use ssta_bench::{
    characterize, module_array_from_model, registered_chain_design, registered_pipeline_models,
    BenchProfile,
};
use ssta_core::{
    analyze_sequential, analyze_with, assemble_design_graph, AnalyzeOptions, CorrelationMode,
    CorrelationModel, DesignTiming, ExtractOptions, PhaseTimings, SequentialAnalyzeOptions,
    SstaConfig,
};
use ssta_math::eigen::{symmetric_eigen, symmetric_eigen_jacobi};
use ssta_math::tridiag::symmetric_eigen_ql;
use ssta_math::Matrix;
use ssta_timing::{levels, LevelSchedule};
use std::sync::Arc;
use std::time::Instant;

/// The emitted `BENCH_assembly.json` document.
#[derive(Serialize)]
struct Report {
    schema: u32,
    profile: String,
    /// Resolved worker count the parallel rows ran with
    /// (`effective_threads(0)`) — without it, speedups from different
    /// machines are not comparable.
    effective_threads: usize,
    eigen: EigenDuel,
    assembly: Vec<ScalingPoint>,
    /// Schema 5: the registered-pipeline scaling rows — sequential
    /// extraction plus stage-by-stage propagation through registered
    /// boundaries.
    sequential: Vec<SequentialPoint>,
}

#[derive(Serialize)]
struct EigenDuel {
    n: usize,
    jacobi_seconds: f64,
    ql_seconds: f64,
    speedup: f64,
    max_relative_eigenvalue_diff: f64,
    max_reconstruction_error: f64,
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
    /// `replace / total` share of the warm run's phase time — the
    /// committed gate on the "serial tail" (ROADMAP): the per-instance
    /// replacement matmuls this schema revision cache-blocks.
    replace_share: f64,
    /// `propagate / total` share of the warm run's phase time.
    propagate_share: f64,
    /// The push-vs-pull propagation duel on this row's assembled graph.
    propagate: PropagateDuel,
}

/// Propagation-engine duel on one assembled design graph. The pull rows
/// share one `LevelSchedule` (timed separately in
/// `schedule_build_seconds`) — the engine levelizes once per graph and
/// amortizes it over every pass, while push re-runs its Kahn sort inside
/// each call, which is exactly the serial tail this engine kills.
#[derive(Serialize)]
struct PropagateDuel {
    n_levels: usize,
    max_level_width: usize,
    schedule_build_seconds: f64,
    push_serial_seconds: f64,
    pull_serial_seconds: f64,
    pull_vs_push_speedup: f64,
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
    let (eigen_n, instance_counts, reps): (usize, &[usize], usize) = if tiny {
        (64, &[2, 4], 1)
    } else {
        (200, &[4, 16, 64], 3)
    };

    let duel = eigen_duel(eigen_n, reps);
    println!(
        "eigen {0}x{0}: jacobi {1:.1} ms, ql {2:.1} ms -> {3:.1}x (max rel dλ {4:.1e})",
        duel.n,
        1e3 * duel.jacobi_seconds,
        1e3 * duel.ql_seconds,
        duel.speedup,
        duel.max_relative_eigenvalue_diff,
    );
    assert!(
        duel.max_relative_eigenvalue_diff < 1e-6,
        "QL spectrum diverged from the Jacobi oracle: {:.3e}",
        duel.max_relative_eigenvalue_diff
    );
    assert!(
        duel.max_reconstruction_error < 1e-9,
        "eigendecomposition failed to reconstruct the covariance: {:.3e}",
        duel.max_reconstruction_error
    );
    let speedup_floor = if tiny { 1.0 } else { 5.0 };
    assert!(
        duel.speedup >= speedup_floor,
        "QL speedup {:.2}x below the {speedup_floor}x floor on {1}x{1}",
        duel.speedup,
        duel.n
    );

    println!("characterizing c880 once (model shared across all array sizes)...");
    let ctx = characterize("c880");
    let model = Arc::new(
        ctx.extract_model(&ExtractOptions::default())
            .expect("extraction"),
    );

    let mut points = Vec::new();
    for &n in instance_counts {
        let design = module_array_from_model("c880", Arc::clone(&model), n, SstaConfig::paper());
        // Pull must beat push once the graph is big enough to matter; the
        // tiny profile (and the small full rows) only assert equivalence.
        let assert_pull_wins = !tiny && n >= 16;
        let point = scaling_point(&design, n, reps, assert_pull_wins);
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
            "         propagate ({} levels, widest {}): push {:.1} ms, pull {:.1} ms ({:.2}x)",
            point.propagate.n_levels,
            point.propagate.max_level_width,
            1e3 * point.propagate.push_serial_seconds,
            1e3 * point.propagate.pull_serial_seconds,
            point.propagate.pull_vs_push_speedup,
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
        schema: 6,
        profile: bench.name(),
        effective_threads: ssta_math::parallel::effective_threads(0),
        eigen: duel,
        assembly: points,
        sequential,
    });
}

/// Times both eigensolvers on the paper's spatial correlation over an
/// `n`-grid die and cross-checks their results.
fn eigen_duel(n: usize, reps: usize) -> EigenDuel {
    // A wide-die grid layout with ~n grids, so the matrix has the same
    // banded-with-cutoff structure the design-level assembly produces.
    let cols = (n as f64).sqrt().ceil() as usize * 2;
    let centers: Vec<(f64, f64)> = (0..n)
        .map(|k| {
            let (r, c) = (k / cols, k % cols);
            ((c as f64 + 0.5) * 20.0, (r as f64 + 0.5) * 20.0)
        })
        .collect();
    let cov = CorrelationModel::paper().covariance_matrix(&centers, 20.0);

    let mut ql_seconds = f64::INFINITY;
    let mut ql = None;
    for _ in 0..reps {
        let t = Instant::now();
        let e = symmetric_eigen_ql(&cov).expect("QL eigensolve");
        ql_seconds = ql_seconds.min(t.elapsed().as_secs_f64());
        ql = Some(e);
    }
    let ql = ql.expect("at least one rep");

    let mut jacobi_seconds = f64::INFINITY;
    let mut jacobi = None;
    for _ in 0..reps.min(2) {
        let t = Instant::now();
        let e = symmetric_eigen_jacobi(&cov).expect("Jacobi eigensolve");
        jacobi_seconds = jacobi_seconds.min(t.elapsed().as_secs_f64());
        jacobi = Some(e);
    }
    let jacobi = jacobi.expect("at least one rep");

    let max_relative_eigenvalue_diff = ql
        .eigenvalues
        .iter()
        .zip(&jacobi.eigenvalues)
        .map(|(a, b)| (a - b).abs() / a.abs().max(1.0))
        .fold(0.0, f64::max);
    let max_reconstruction_error =
        reconstruction_error(&ql, &cov).max(reconstruction_error(&jacobi, &cov));

    // The default entry point must be the fast path.
    let via_default = symmetric_eigen(&cov).expect("default eigensolve");
    assert_eq!(
        via_default.eigenvalues, ql.eigenvalues,
        "symmetric_eigen no longer dispatches to the QL solver"
    );

    EigenDuel {
        n,
        jacobi_seconds,
        ql_seconds,
        speedup: jacobi_seconds / ql_seconds,
        max_relative_eigenvalue_diff,
        max_reconstruction_error,
    }
}

fn reconstruction_error(e: &ssta_math::eigen::SymmetricEigen, a: &Matrix) -> f64 {
    let n = e.eigenvalues.len();
    let mut lam = Matrix::zeros(n, n);
    for i in 0..n {
        lam[(i, i)] = e.eigenvalues[i];
    }
    e.eigenvectors
        .matmul(&lam)
        .expect("shape")
        .matmul(&e.eigenvectors.transposed())
        .expect("shape")
        .max_abs_diff(a)
        .expect("shape")
}

/// Measures one instance count: a cold parallel run first (first-touch
/// page faults and all), then `reps` warmed serial and parallel runs
/// (min-of-reps each), asserting parallel ≡ serial bit-identically.
/// `parallel_speedup` compares the two *warm* paths, so it reads ~1.0 on
/// a single-core machine and scales with cores elsewhere.
fn scaling_point(
    design: &ssta_core::Design,
    instances: usize,
    reps: usize,
    assert_pull_wins: bool,
) -> ScalingPoint {
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

    // The partition alone is enough for the grid count — rebuilding the
    // full variable space would redo the covariance + eigensolve.
    let partition = ssta_core::hier::DesignPartition::build(
        design.die(),
        &design.translated_geometries(),
        design.config().grid_pitch_um(),
    );
    let propagate = propagate_duel(design, reps, assert_pull_wins);

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
        propagate,
    }
}

/// Races the push-based reference propagation against the levelized pull
/// engine on the row's assembled design graph (min of `reps` each). The
/// pull passes share one schedule, timed separately — that once-per-graph
/// amortization is the engine's contract (all-pairs extraction and
/// criticality run hundreds of passes per schedule), while push re-sorts
/// inside every call. Asserts pull ≈ push within working precision at
/// every primary output and — when `assert_pull_wins` — that pull is
/// strictly faster.
fn propagate_duel(
    design: &ssta_core::Design,
    reps: usize,
    assert_pull_wins: bool,
) -> PropagateDuel {
    let assembled = assemble_design_graph(
        design,
        CorrelationMode::Proposed,
        &AnalyzeOptions::default(),
    )
    .expect("assembly");
    let graph = &assembled.graph;
    let sources = &assembled.sources;

    let mut push_serial_seconds = f64::INFINITY;
    let mut push = None;
    for _ in 0..reps {
        let t = Instant::now();
        let arr = ssta_timing::propagate::forward(graph, sources).expect("push forward");
        push_serial_seconds = push_serial_seconds.min(t.elapsed().as_secs_f64());
        push = Some(arr);
    }
    let push = push.expect("at least one rep");

    let mut schedule_build_seconds = f64::INFINITY;
    let mut built = None;
    for _ in 0..reps {
        let t = Instant::now();
        let s = LevelSchedule::build(graph).expect("levelize");
        schedule_build_seconds = schedule_build_seconds.min(t.elapsed().as_secs_f64());
        built = Some(s);
    }
    let schedule = built.expect("at least one rep");

    let mut pull_serial_seconds = f64::INFINITY;
    let mut pull = None;
    for _ in 0..reps {
        let t = Instant::now();
        let arr = levels::forward(graph, &schedule, sources).expect("pull forward");
        pull_serial_seconds = pull_serial_seconds.min(t.elapsed().as_secs_f64());
        pull = Some(arr);
    }
    let pull = pull.expect("at least one rep");

    // Pull re-associates Clark's order-sensitive max, so against push it
    // agrees to working precision, not bit-exactly.
    for &v in graph.outputs() {
        let a = pull[v.0 as usize].as_ref().expect("PO reachable");
        let b = push[v.0 as usize].as_ref().expect("PO reachable");
        let rel = (a.mean() - b.mean()).abs() / b.mean().abs().max(1.0);
        assert!(rel < 1e-3, "pull vs push mean drift {rel:.3e} at a PO");
    }
    if assert_pull_wins {
        assert!(
            pull_serial_seconds < push_serial_seconds,
            "levelized pull ({:.3} ms) failed to beat push ({:.3} ms)",
            1e3 * pull_serial_seconds,
            1e3 * push_serial_seconds,
        );
    }

    PropagateDuel {
        n_levels: schedule.n_levels(),
        max_level_width: schedule.max_width(),
        schedule_build_seconds,
        push_serial_seconds,
        pull_serial_seconds,
        pull_vs_push_speedup: push_serial_seconds / pull_serial_seconds,
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
