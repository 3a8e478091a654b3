//! End-to-end and per-layer benchmark of the hierarchical SSTA system.
//!
//! Three workloads, each run through the public APIs of `ssta-engine`,
//! `ssta-serve` and `ssta-core` with default options on every core:
//!
//! * `extract_cold` — `Engine::analyze` of an eight-module ISCAS-85 SoC
//!   on a fresh engine with an empty store: every module misses, so
//!   characterization, criticality, pruning and merging, encoding and
//!   the store write do the work;
//! * `sweep_warm` — repeated `Engine::analyze_sweep` of a 256-corner
//!   grid over a 64-instance c880 array whose models are all in the
//!   session cache: only design-level replacement and propagation run;
//! * `serve_warm` — a fresh `Server` over a warm shared store: an open
//!   loop of Poisson arrivals from one generator, then a closed loop of
//!   one client per server worker, each with one request outstanding.
//!
//! A plain run (`--trace 0`) reports the end-to-end metrics of
//! [`END_TO_END`]; a traced run (`--trace 1`) replays the workload layer
//! by layer (see [`layers`]) and reports [`PER_LAYER`]. Every output is
//! checked; a failed check counts as a failed operation.

pub mod layers;
pub mod stats;
pub mod topology;
pub mod trace;

mod extract_cold;
mod serve_warm;
mod sweep_warm;

use layers::Counts;
use ssta_core::{ModuleContext, SstaConfig, TimingModel};
use ssta_netlist::Netlist;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use trace::{self_seconds, Tracer};

/// The end-to-end metrics every plain run reports, with their units.
/// Each workload defines its own operation (see the README); the
/// `model_*` metrics cover the models that workload's operations use.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("model_edge_ratio", "ratio"),
    ("model_mean_err", "ratio"),
    ("model_sigma_err", "ratio"),
];

/// The per-layer metrics every traced run reports, with their units.
/// Times and counts are means per traced operation, except the graph
/// shape rows (local components, levels, widest level), which are means
/// per assembled graph; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.characterize_s", "s"),
    ("core.criticality_s", "s"),
    ("core.criticality.pairs", "count"),
    ("core.extract.prune_merge_s", "s"),
    ("core.extract.repaired_pairs", "count"),
    ("core.extract.merge_rounds", "count"),
    ("core.extract.model_edges", "count"),
    ("core.codec.encode_s", "s"),
    ("core.codec.decode_s", "s"),
    ("core.codec.bytes", "bytes"),
    ("engine.store.save_s", "s"),
    ("engine.store.load_s", "s"),
    ("engine.store.writes", "count"),
    ("engine.store.hits", "count"),
    ("engine.plan_s", "s"),
    ("engine.resolve.extractions", "count"),
    ("engine.resolve.hit_ratio", "ratio"),
    ("core.hier.basis_s", "s"),
    ("core.hier.replace_s", "s"),
    ("core.hier.local_components", "count"),
    ("timing.levels.schedule_s", "s"),
    ("timing.levels.propagate_s", "s"),
    ("timing.levels.propagate_serial_s", "s"),
    ("timing.levels.levels", "count"),
    ("timing.levels.max_width", "count"),
    ("engine.sweep.analyses", "count"),
    ("engine.sweep.corners_per_analysis", "count"),
    ("engine.sweep.peak_retained", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.generator_late_p99_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.lost", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// A plain run times its set-up at least this many times, and keeps
/// repeating it (up to [`SETUP_MAX_REPEATS`]) until
/// [`SETUP_MIN_SECONDS`] of repeats have passed; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 15;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExtractCold,
    SweepWarm,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExtractCold,
        Workload::SweepWarm,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExtractCold => "extract_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Every generated input is a pure function of this.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Replay layer by layer and report [`PER_LAYER`].
    pub trace: bool,
    /// Small designs, for the self-test.
    pub short: bool,
}

/// Operations after which a plain run reads its peak memory. A fixed
/// amount of work keeps the figure independent of how many operations
/// fit in the run: each extra operation is one more chance for the
/// allocator to strand a freed arena, which adds a worker's whole
/// working set at once.
const PEAK_MEMORY_AFTER_OPS: usize = 3;

/// Starts a run's measurement: resets the process's peak memory, so that
/// set-up and the benchmark's own reference work do not count toward
/// `peak_rss_mb`.
fn start_measuring(report: &mut Report) {
    if !stats::reset_peak_rss() {
        report
            .notes
            .push("peak memory could not be reset: peak_rss_mb includes set-up".into());
    }
}

/// Reads `peak_rss_mb` once `ops_done` reaches [`PEAK_MEMORY_AFTER_OPS`].
fn note_peak_memory(report: &mut Report, ops_done: usize) {
    if ops_done == PEAK_MEMORY_AFTER_OPS {
        report.metrics.insert("peak_rss_mb", stats::peak_rss_mb());
    }
}

/// Runs a workload's set-up once, timed in steal-corrected seconds.
fn timed_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let watch = stats::Stopwatch::start();
    let state = setup()?;
    Ok((state, watch.seconds()))
}

/// Ends a plain run: records the process's peak memory unless
/// [`note_peak_memory`] already did, then repeats the set-up — only now,
/// so the repeats disturb neither the measurement nor the memory peak —
/// and records the median set-up time as `setup_s`.
fn finish_setup<T>(
    report: &mut Report,
    first_seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) {
    report
        .metrics
        .entry("peak_rss_mb")
        .or_insert_with(stats::peak_rss_mb);
    let started = std::time::Instant::now();
    let mut times = vec![first_seconds];
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        match timed_setup(&mut setup) {
            Ok((_, seconds)) => times.push(seconds),
            Err(why) => return report.wrong(why),
        }
    }
    report.metrics.insert("setup_s", stats::median(&times));
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a completed operation's output differed from its
    /// reference (or a metric could not be computed).
    pub wrong_outputs: u64,
    /// [`END_TO_END`] (plain run) or [`PER_LAYER`] (traced run) values.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's metrics under their per-workload names, with
    /// units (plain runs only).
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Sizes, disciplines and derived shares, one line each.
    pub notes: Vec<String>,
    /// Where the traced run wrote its Chrome trace.
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// Records one failed operation and why.
    fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// Records a completed operation whose output was wrong.
    fn wrong(&mut self, why: impl Into<String>) {
        self.wrong_outputs += 1;
        self.fail(why);
    }

    /// Outputs were all correct and every metric of the run's catalogue
    /// is a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        self.wrong_outputs == 0
            && catalogue
                .iter()
                .all(|(name, _)| self.metrics.get(name).is_some_and(|v| v.is_finite()))
    }

    /// The `fail_ratio` the workload reports.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// every metric with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    serde::Value::Map(vec![
                        ("value".into(), serde::Value::F64(value)),
                        ("unit".into(), serde::Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = serde::Value::Map(vec![
            ("correct".into(), serde::Value::Bool(self.correct(trace))),
            ("attempted".into(), serde::Value::U64(self.attempted.max(1))),
            ("failed".into(), serde::Value::U64(self.failed)),
            ("metrics".into(), serde::Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a JSON value renders")
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Report {
    let mut report = match args.workload {
        Workload::ExtractCold => extract_cold::run(args),
        Workload::SweepWarm => sweep_warm::run(args),
        Workload::ServeWarm => serve_warm::run(args),
    };
    if !args.trace {
        for &(name, unit) in &[("setup_s", "s"), ("peak_rss_mb", "MB")] {
            let value = report.metrics.get(name).copied().unwrap_or(f64::NAN);
            report.named.push((name, value, unit));
        }
        report
            .named
            .push(("fail_ratio", report.fail_ratio(), "ratio"));
    }
    report
}

/// `ssta_engine`'s default thread budget: the available parallelism.
fn default_threads() -> usize {
    ssta_math::parallel::effective_threads(0)
}

/// Where a traced run writes its Chrome trace.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ))
}

/// A module's unpruned delay matrix, reduced to what the model metrics
/// compare — its shape and each connected pair's mean and σ — so that
/// holding it costs next to no memory during a measurement.
struct ReferenceDelays {
    shape: (usize, usize),
    pairs: Vec<(usize, usize, f64, f64)>,
}

impl ReferenceDelays {
    /// Characterizes `netlist` under `config` and keeps its delay
    /// matrix's means and σs.
    fn of(netlist: &Netlist, config: &SstaConfig) -> Result<Self, String> {
        let matrix = ModuleContext::characterize(netlist.clone(), config)
            .and_then(|ctx| ctx.delay_matrix())
            .map_err(|e| format!("reference delay matrix of {}: {e}", netlist.name()))?;
        Ok(ReferenceDelays {
            shape: (matrix.n_inputs(), matrix.n_outputs()),
            pairs: matrix
                .iter()
                .map(|(i, j, d)| (i, j, d.mean(), d.std_dev()))
                .collect(),
        })
    }
}

/// An extracted model with its module's reference delays.
type ModelWithReference = (Arc<TimingModel>, ReferenceDelays);

/// Size and accuracy of extracted models against their unpruned
/// modules: `(ΣEm/ΣEo, worst relative mean error, worst relative σ
/// error)` over every input/output pair of every model.
fn model_quality(models: &[ModelWithReference]) -> Result<(f64, f64, f64), String> {
    let (mut kept, mut original) = (0usize, 0usize);
    let (mut mean_err, mut sigma_err) = (0.0f64, 0.0f64);
    for (model, reference) in models {
        kept += model.stats().model_edges;
        original += model.stats().original_edges;
        let matrix = model
            .delay_matrix()
            .map_err(|e| format!("model delay matrix of {}: {e}", model.name()))?;
        let same_pairs = (matrix.n_inputs(), matrix.n_outputs()) == reference.shape
            && matrix.n_connected() == reference.pairs.len()
            && reference
                .pairs
                .iter()
                .all(|&(i, j, ..)| matrix.get(i, j).is_some());
        if !same_pairs {
            return Err(format!(
                "model {} connects its inputs and outputs differently from its module",
                model.name()
            ));
        }
        for &(i, j, mean, sigma) in &reference.pairs {
            let approx = matrix.get(i, j).expect("same connectivity");
            mean_err = mean_err.max((approx.mean() - mean).abs() / mean.abs());
            sigma_err = sigma_err.max((approx.std_dev() - sigma).abs() / sigma);
        }
    }
    Ok((kept as f64 / original as f64, mean_err, sigma_err))
}

/// Records the `model_*` metrics (or a wrong output when they cannot be
/// computed).
fn record_model_quality(report: &mut Report, models: Result<Vec<ModelWithReference>, String>) {
    match models.and_then(|m| model_quality(&m)) {
        Ok((edge_ratio, mean_err, sigma_err)) => {
            report.metrics.insert("model_edge_ratio", edge_ratio);
            report.metrics.insert("model_mean_err", mean_err);
            report.metrics.insert("model_sigma_err", sigma_err);
        }
        Err(why) => report.wrong(why),
    }
}

/// Layer spans that make up an operation's own work (the one-thread
/// propagation is a second measurement, not part of the operation).
const LAYER_SPANS: &[&str] = &[
    "engine.plan",
    "engine.resolve",
    "engine.store.load",
    "engine.store.save",
    "core.codec.decode",
    "core.codec.encode",
    "core.characterize",
    "core.criticality",
    "core.extract",
    "core.hier.design",
    "core.hier.basis",
    "core.hier.replace",
    "timing.levels.schedule",
    "timing.levels.propagate",
];

/// The engine, core and timing rows of [`PER_LAYER`] from the traced
/// operations `ops` (op id and counts): self times and counts, each a
/// mean per operation. Rows the workload does not touch read 0. Also
/// notes the workload's shape: criticality's share of the extraction
/// layers' time, or replacement and propagation's share of all layer
/// time.
fn layer_metrics(tracer: &Tracer, ops: &[(u64, Counts)], own_threads: usize, report: &mut Report) {
    for &(name, _) in PER_LAYER {
        report.metrics.insert(name, 0.0);
    }
    if ops.is_empty() {
        return;
    }
    let per_op = self_seconds(&tracer.spans());
    let n = ops.len() as f64;
    let time = |span: &str| -> f64 {
        ops.iter()
            .map(|(op, _)| per_op.get(&(*op, span)).copied().unwrap_or(0.0))
            .sum::<f64>()
            / n
    };
    let count = |f: fn(&Counts) -> u64| ops.iter().map(|(_, c)| f(c) as f64).sum::<f64>() / n;
    let m = &mut report.metrics;
    m.insert("core.characterize_s", time("core.characterize"));
    m.insert("core.criticality_s", time("core.criticality"));
    m.insert("core.criticality.pairs", count(|c| c.criticality_pairs));
    m.insert(
        "core.extract.prune_merge_s",
        time("core.extract") - time("core.criticality"),
    );
    m.insert("core.extract.repaired_pairs", count(|c| c.repaired_pairs));
    m.insert("core.extract.merge_rounds", count(|c| c.merge_rounds));
    m.insert("core.extract.model_edges", count(|c| c.model_edges));
    m.insert("core.codec.encode_s", time("core.codec.encode"));
    m.insert("core.codec.decode_s", time("core.codec.decode"));
    m.insert("core.codec.bytes", count(|c| c.codec_bytes));
    m.insert("engine.store.save_s", time("engine.store.save"));
    m.insert("engine.store.load_s", time("engine.store.load"));
    m.insert("engine.store.writes", count(|c| c.store_writes));
    m.insert("engine.store.hits", count(|c| c.store_hits));
    m.insert("engine.plan_s", time("engine.plan"));
    m.insert("engine.resolve.extractions", count(|c| c.extractions));
    let resolutions: u64 = ops.iter().map(|(_, c)| c.resolutions).sum();
    let memory_hits: u64 = ops.iter().map(|(_, c)| c.memory_hits).sum();
    m.insert(
        "engine.resolve.hit_ratio",
        memory_hits as f64 / resolutions.max(1) as f64,
    );
    m.insert("core.hier.basis_s", time("core.hier.basis"));
    m.insert("core.hier.replace_s", time("core.hier.replace"));
    let per = |total: f64, of: f64| if of > 0.0 { total / of } else { 0.0 };
    m.insert(
        "core.hier.local_components",
        per(count(|c| c.local_components), count(|c| c.analyses)),
    );
    m.insert("timing.levels.schedule_s", time("timing.levels.schedule"));
    let propagate = time("timing.levels.propagate");
    m.insert("timing.levels.propagate_s", propagate);
    m.insert(
        "timing.levels.propagate_serial_s",
        if own_threads > 1 {
            time("timing.levels.propagate_serial")
        } else {
            propagate
        },
    );
    let schedules = count(|c| c.schedules);
    m.insert("timing.levels.levels", per(count(|c| c.levels), schedules));
    m.insert(
        "timing.levels.max_width",
        per(count(|c| c.max_width), schedules),
    );

    let total: f64 = LAYER_SPANS.iter().map(|s| time(s)).sum();
    let share = |x: f64| 100.0 * x / total.max(f64::MIN_POSITIVE);
    // characterize + criticality + prune/merge + encode + save, where
    // prune/merge is `core.extract` minus criticality.
    let extraction: f64 = [
        "core.characterize",
        "core.extract",
        "core.codec.encode",
        "engine.store.save",
    ]
    .iter()
    .map(|s| time(s))
    .sum();
    if extraction > 0.0 {
        report.notes.push(format!(
            "shape: core.criticality_s is {:.1} % of the extraction layers' time ({:.3} s per op)",
            100.0 * time("core.criticality") / extraction,
            extraction
        ));
    } else {
        report.notes.push(format!(
            "shape: core.hier.replace_s + timing.levels.propagate_s is {:.1} % of layer time ({:.4} s per op)",
            share(time("core.hier.replace") + propagate),
            total
        ));
    }
}

/// Writes the Chrome trace and notes where it went.
fn write_trace(tracer: &Tracer, args: &Args, report: &mut Report) {
    let path = trace_path(args);
    match tracer.write_chrome_trace(&path) {
        Ok(()) => report.trace_file = Some(path),
        Err(e) => report
            .notes
            .push(format!("trace file {} not written: {e}", path.display())),
    }
}
