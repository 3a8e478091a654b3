//! `extract_cold`: one design extraction at a time (closed loop, one
//! outstanding), each `Engine::analyze` on a fresh engine with an empty
//! in-memory store, over an eight-module SoC. Every module misses every
//! cache, so characterize → criticality → prune/repair/merge → encode →
//! store write do almost all the work; c2670's 233 × 140-port
//! criticality sweep is the step that blocks the result. It is the only
//! workload that writes the store.

use crate::layers::{self, Counts, Session};
use crate::stats::{form_bits, median, quantile, Stopwatch};
use crate::topology::Topology;
use crate::trace::Tracer;
use crate::{default_threads, layer_metrics, record_model_quality, Args, ReferenceDelays, Report};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ssta_core::SstaConfig;
use ssta_engine::{DesignSpec, Engine, EngineOptions, EngineRun, MemoryBackend};
use std::time::{Duration, Instant};

/// The SoC: every ISCAS-85 circuit whose extraction costs seconds, not
/// tens of seconds (c5315 and c7552 are left out for that reason).
const SOC: &[&str] = &[
    "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c6288",
];
const SOC_SHORT: &[&str] = &["c432", "c499"];

struct Setup {
    topology: Topology,
    spec: DesignSpec,
    /// Each module's unpruned delays, for the `model_*` metrics.
    references: Vec<ReferenceDelays>,
}

/// Builds the SoC and the reference delay matrix of every module. The
/// seed draws where each module sits along the die; the module
/// definitions, and so the engine's resolve order, stay fixed.
fn prepare(modules: &[&str], seed: u64, config: &SstaConfig) -> Result<Setup, String> {
    let mut slots: Vec<usize> = (0..modules.len()).collect();
    slots.shuffle(&mut StdRng::seed_from_u64(seed));
    let topology = Topology::soc(modules, &slots, config);
    let spec = topology.spec();
    let references = topology
        .modules
        .iter()
        .map(|n| ReferenceDelays::of(n, config))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        topology,
        spec,
        references,
    })
}

/// One operation: a cold analysis on a fresh engine.
fn cold_analyze(spec: &DesignSpec, config: &SstaConfig) -> (Result<EngineRun, String>, Engine) {
    let mut engine = Engine::new(config.clone()).with_backend(MemoryBackend::new());
    let run = engine.analyze(spec).map_err(|e| e.to_string());
    (run, engine)
}

/// Checks one operation against the run's first: every module extracted
/// and written once, and the design delay bit-identical.
fn check(run: &EngineRun, modules: usize, first: &[u64]) -> Result<(), String> {
    if run.stats.extractions != modules || run.stats.store_writes != modules {
        return Err(format!(
            "expected {modules} extractions and store writes, got {} and {}",
            run.stats.extractions, run.stats.store_writes
        ));
    }
    if form_bits(&run.timing.delay) != first {
        return Err("design delay differs from the run's first operation".into());
    }
    Ok(())
}

pub(crate) fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = SstaConfig::paper();
    let modules = if args.short { SOC_SHORT } else { SOC };
    let (mut setup, setup_s) = match crate::timed_setup(|| prepare(modules, args.seed, &config)) {
        Ok(done) => done,
        Err(why) => {
            report.attempted = 1;
            report.wrong(why);
            return report;
        }
    };
    report.notes.push(format!(
        "design: {} ({} modules, {} design inputs, {} outputs, die {} x {} um)",
        setup.spec.name(),
        modules.len(),
        setup.topology.pi_bindings.len(),
        setup.topology.po_sources.len(),
        setup.topology.die.width,
        setup.topology.die.height
    ));
    report.notes.push(
        "discipline: closed loop, 1 operation outstanding; each operation is Engine::analyze \
         on a fresh engine with an empty in-memory store"
            .into(),
    );

    // The first operation fixes the reference delay and, through its
    // engine's models, the model metrics.
    // It pays the process's one-time costs, so it is not timed.
    report.attempted += 1;
    let (first, mut engine) = cold_analyze(&setup.spec, &config);
    let first = match first {
        Ok(run) => run,
        Err(why) => {
            report.fail(why);
            return report;
        }
    };
    let first_bits = form_bits(&first.timing.delay);
    if let Err(why) = check(&first, modules.len(), &first_bits) {
        report.wrong(why);
    }
    if !args.trace {
        let models = setup
            .topology
            .modules
            .iter()
            .zip(std::mem::take(&mut setup.references))
            .map(|(netlist, reference)| {
                engine
                    .model_for(netlist)
                    .map(|(model, _)| (model, reference))
                    .map_err(|e| e.to_string())
            })
            .collect();
        record_model_quality(&mut report, models);
    }
    drop(engine);
    crate::start_measuring(&mut report);

    let mut seconds = Vec::new();
    let tracer = Tracer::default();
    let mut traced: Vec<(u64, Counts)> = Vec::new();
    let mut traced_seconds = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut rounds = 0;
    while measuring.elapsed() < budget || rounds == 0 {
        rounds += 1;
        if args.trace {
            report.attempted += 1;
            let op = traced.len() as u64;
            let watch = Stopwatch::start();
            match traced_op(&tracer, op, &setup, &config) {
                Ok((bits, counts)) => {
                    traced_seconds.push(watch.seconds());
                    if bits != first_bits {
                        report.wrong("traced replay's design delay differs from the engine's");
                    }
                    traced.push((op, counts));
                }
                Err(why) => report.fail(why),
            }
        }
        report.attempted += 1;
        let watch = Stopwatch::start();
        let (run, _) = cold_analyze(&setup.spec, &config);
        let elapsed = watch.seconds();
        match run.map(|run| check(&run, modules.len(), &first_bits)) {
            Ok(Ok(())) => {
                seconds.push(elapsed);
                crate::note_peak_memory(&mut report, seconds.len());
            }
            Ok(Err(why)) => report.wrong(why),
            Err(why) => report.fail(why),
        }
    }

    if args.trace {
        layer_metrics(&tracer, &traced, default_threads(), &mut report);
        let untraced = median(&seconds);
        report.metrics.insert(
            "trace.overhead_frac",
            (median(&traced_seconds) - untraced) / untraced,
        );
        report.notes.push(format!(
            "traced {} operations, modules resolved one at a time; criticality runs standalone and again inside extract_model",
            traced.len()
        ));
        crate::write_trace(&tracer, args, &mut report);
        return report;
    }

    let p50 = median(&seconds);
    crate::finish_setup(&mut report, setup_s, || {
        prepare(modules, args.seed, &config)
    });
    report
        .metrics
        .insert("throughput_per_s", modules.len() as f64 / p50);
    report.notes.push(format!(
        "measured {} operations (p99 {:.3} s); throughput_per_s counts module extractions",
        seconds.len(),
        quantile(&seconds, 0.99)
    ));
    report.named.push(("cold_design_s", p50, "s"));
    for name in ["model_edge_ratio", "model_mean_err", "model_sigma_err"] {
        if let Some(&v) = report.metrics.get(name) {
            report.named.push((name, v, "ratio"));
        }
    }
    report
}

/// The traced replay of one operation on a fresh session and a fresh
/// store. Modules resolve one at a time, so each extraction layer's time
/// is its own rather than shared with a concurrent extraction (the
/// engine runs two at once); the design analysis keeps the engine's
/// default thread budget.
fn traced_op(
    tracer: &Tracer,
    op: u64,
    setup: &Setup,
    config: &SstaConfig,
) -> Result<(Vec<u64>, Counts), String> {
    let options = EngineOptions::default();
    let threads = default_threads();
    tracer.op(op).span("extract_cold.op", |scope| {
        let mut counts = Counts::default();
        let keys = layers::plan(scope, &setup.spec, config, &options.extract);
        let store = MemoryBackend::new();
        let models = layers::resolve(
            scope,
            &setup.spec,
            &keys,
            &Session::default(),
            Some(&store),
            config,
            &options.extract,
            1,
            &mut counts,
        )?;
        let design = scope
            .span("core.hier.design", |_| {
                setup.topology.design(&models, config)
            })
            .map_err(|e| format!("design: {e}"))?;
        let timing = layers::analyze(scope, &design, options.mode, threads, &mut counts)?;
        Ok((form_bits(&timing.delay), counts))
    })
}
