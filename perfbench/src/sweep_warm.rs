//! `sweep_warm`: repeated `Engine::analyze_sweep` calls (closed loop,
//! one sweep outstanding, default `SweepOptions`) of a 256-corner grid
//! over a 64-instance chained c880 array. A cold sweep during set-up
//! puts every fingerprint in the session cache, so a measured sweep does
//! no extraction and no store traffic: design-level replacement and
//! wide-form propagation over ~11k vertices do all the work, on a
//! working set far larger than the L2 cache.

use crate::layers::{self, Counts, Session};
use crate::stats::{median, quantile, Stopwatch};
use crate::topology::Topology;
use crate::trace::{Scope, Tracer};
use crate::{default_threads, layer_metrics, record_model_quality, Args, ReferenceDelays, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssta_core::{
    extraction_signature, CorrelationMode, CorrelationModel, DesignVariables, ExtractOptions,
    SstaConfig,
};
use ssta_engine::{
    CornerGrid, DesignSpec, Engine, EngineOptions, GridAxis, MemoryBackend, ScenarioRecord,
    SweepOptions, SweepSummary,
};
use ssta_math::parallel::parallel_indexed;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Setup {
    topology: Topology,
    spec: DesignSpec,
    grid: CornerGrid,
    store: Arc<MemoryBackend>,
    engine: Engine,
    /// The cold set-up sweep's records: every measured sweep must
    /// reproduce them bit for bit.
    reference: Vec<ScenarioRecord>,
}

/// The grid: 4 sigma scales × 2 spatial-correlation models × 2 modes ×
/// 16 clock targets drawn from the seed — 8 extraction fingerprints,
/// 16 design analyses, 256 corners. The short grid has 2 × 1 × 2 × 2.
fn grid(seed: u64, short: bool) -> CornerGrid {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = 1500.0 + (500.0 * rng.gen::<f64>()).round();
    let step = 10.0 + (30.0 * rng.gen::<f64>()).round();
    let paper = CorrelationModel::paper();
    let short_range = CorrelationModel {
        cutoff_grids: 8.0,
        ..paper
    };
    let (sigmas, correlations, clocks): (&[f64], Vec<_>, usize) = if short {
        (&[1.0, 1.2], vec![("paper", paper)], 2)
    } else {
        (
            &[0.8, 0.9, 1.0, 1.2],
            vec![("paper", paper), ("short-range", short_range)],
            16,
        )
    };
    let targets: Vec<f64> = (0..clocks).map(|k| base + step * k as f64).collect();
    CornerGrid::builder()
        .axis(GridAxis::sigma_scales("process", sigmas))
        .axis(GridAxis::correlations("corr", correlations))
        .axis(GridAxis::modes("mode"))
        .axis(GridAxis::yield_targets("clock", &targets))
        .finish()
        .expect("the benchmark grid is valid")
}

fn prepare(seed: u64, short: bool, config: &SstaConfig) -> Result<Setup, String> {
    let topology = Topology::array("c880", if short { 4 } else { 64 }, config);
    let spec = topology.spec();
    let grid = grid(seed, short);
    let store = Arc::new(MemoryBackend::new());
    let mut engine = Engine::new(config.clone()).with_backend(Arc::clone(&store));
    let cold = engine
        .analyze_sweep(&spec, &grid, &SweepOptions::default())
        .map_err(|e| format!("cold set-up sweep: {e}"))?;
    if cold.extractions != cold.groups {
        return Err(format!(
            "cold sweep extracted {} models for {} fingerprint groups",
            cold.extractions, cold.groups
        ));
    }
    Ok(Setup {
        topology,
        spec,
        grid,
        store,
        engine,
        reference: cold.records,
    })
}

/// A record's result fields as bits (its phase timings are not results).
fn record_bits(r: &ScenarioRecord) -> (String, usize, bool, Vec<u64>, usize) {
    let mut bits = vec![
        r.mean_ps.to_bits(),
        r.sigma_ps.to_bits(),
        r.p9973_ps.to_bits(),
    ];
    bits.extend(r.timing_yield.map(f64::to_bits));
    (
        r.scenario.clone(),
        r.group,
        r.mode == CorrelationMode::Proposed,
        bits,
        r.critical_po,
    )
}

/// A warm sweep must extract nothing and reproduce the set-up records.
fn check(summary: &SweepSummary, reference: &[ScenarioRecord]) -> Result<(), String> {
    if summary.extractions != 0 || summary.store_hits != 0 {
        return Err(format!(
            "warm sweep extracted {} and read {} models from the store",
            summary.extractions, summary.store_hits
        ));
    }
    let same = summary.records.len() == reference.len()
        && summary
            .records
            .iter()
            .zip(reference)
            .all(|(a, b)| record_bits(a) == record_bits(b));
    if !same {
        return Err("warm sweep records differ from the set-up sweep".into());
    }
    Ok(())
}

/// One extraction-fingerprint group of the grid: its resolved
/// configuration and its corners bucketed by correlation mode, in first
/// appearance order (the sweep planner's grouping).
struct Group {
    config: SstaConfig,
    extract: ExtractOptions,
    buckets: Vec<(CorrelationMode, Vec<usize>)>,
}

fn plan_groups(grid: &CornerGrid, config: &SstaConfig) -> Vec<Group> {
    let options = EngineOptions::default();
    let mut groups: Vec<Group> = Vec::new();
    let mut by_signature: HashMap<String, usize> = HashMap::new();
    for index in 0..grid.len() {
        let (config, extract, mode) =
            grid.scenario(index)
                .overlay
                .resolve(config, &options.extract, options.mode);
        let signature = extraction_signature(&config, &extract);
        let g = *by_signature.entry(signature).or_insert_with(|| {
            groups.push(Group {
                config,
                extract,
                buckets: Vec::new(),
            });
            groups.len() - 1
        });
        let buckets = &mut groups[g].buckets;
        match buckets.iter_mut().find(|(m, _)| *m == mode) {
            Some((_, corners)) => corners.push(index),
            None => buckets.push((mode, vec![index])),
        }
    }
    groups
}

pub(crate) fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = SstaConfig::paper();
    let (mut setup, setup_s) = match crate::timed_setup(|| prepare(args.seed, args.short, &config))
    {
        Ok(done) => done,
        Err(why) => {
            report.attempted = 1;
            report.wrong(why);
            return report;
        }
    };
    let groups = plan_groups(&setup.grid, &config);
    let analyses: usize = groups.iter().map(|g| g.buckets.len()).sum();
    report.notes.push(format!(
        "design: {} ({} instances, {} design inputs, {} outputs); grid: {} corners -> {} fingerprint groups, {} analyses",
        setup.spec.name(),
        setup.topology.instances.len(),
        setup.topology.pi_bindings.len(),
        setup.topology.po_sources.len(),
        setup.grid.len(),
        groups.len(),
        analyses
    ));
    report.notes.push(
        "discipline: closed loop, 1 sweep outstanding, default SweepOptions, every fingerprint \
         in the session cache"
            .into(),
    );

    // The models every measured sweep uses, out of the set-up store: the
    // traced replay's warm session, and what the model metrics measure.
    let session = Session::default();
    let models = groups
        .iter()
        .map(|g| {
            let key = layers::fingerprints(&setup.spec, &g.config, &g.extract).remove(0);
            let model = layers::stored_model(&*setup.store, &key)?;
            session
                .lock()
                .expect("session lock")
                .insert(key, Arc::clone(&model));
            Ok((model, g))
        })
        .collect::<Result<Vec<_>, String>>();
    if !args.trace {
        let netlist = &setup.topology.modules[0];
        let with_references = models.and_then(|models| {
            models
                .into_iter()
                .map(|(model, g)| Ok((model, ReferenceDelays::of(netlist, &g.config)?)))
                .collect()
        });
        record_model_quality(&mut report, with_references);
    } else if let Err(why) = models {
        report.attempted = 1;
        report.wrong(why);
        return report;
    }
    crate::start_measuring(&mut report);

    let mut seconds = Vec::new();
    let mut peak_retained = 0usize;
    let mut last_summary: Option<SweepSummary> = None;
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
            match traced_sweep(tracer.op(op), &setup, &groups, &session) {
                Ok((results, counts)) => {
                    traced_seconds.push(watch.seconds());
                    let reproduced = results.iter().all(|(corner, mean, sigma)| {
                        let r = &setup.reference[*corner];
                        r.mean_ps.to_bits() == *mean && r.sigma_ps.to_bits() == *sigma
                    });
                    if !reproduced {
                        report.wrong("traced replay differs from the engine's sweep records");
                    }
                    traced.push((op, counts));
                }
                Err(why) => report.fail(why),
            }
        }
        report.attempted += 1;
        let watch = Stopwatch::start();
        let outcome =
            setup
                .engine
                .analyze_sweep(&setup.spec, &setup.grid, &SweepOptions::default());
        let elapsed = watch.seconds();
        match outcome {
            Ok(summary) => match check(&summary, &setup.reference) {
                Ok(()) => {
                    seconds.push(elapsed);
                    crate::note_peak_memory(&mut report, seconds.len());
                    peak_retained = peak_retained.max(summary.peak_retained_results);
                    last_summary = Some(summary);
                }
                Err(why) => report.wrong(why),
            },
            Err(e) => report.fail(e.to_string()),
        }
    }

    if args.trace {
        let workers = default_threads();
        let own_threads = (workers / workers.min(groups.len()).max(1)).max(1);
        layer_metrics(&tracer, &traced, own_threads, &mut report);
        if let Some(summary) = &last_summary {
            let m = &mut report.metrics;
            m.insert("engine.sweep.analyses", summary.analyses as f64);
            m.insert(
                "engine.sweep.corners_per_analysis",
                summary.scenarios as f64 / summary.analyses.max(1) as f64,
            );
            m.insert("engine.sweep.peak_retained", peak_retained as f64);
        }
        let untraced = median(&seconds);
        report.metrics.insert(
            "trace.overhead_frac",
            (median(&traced_seconds) - untraced) / untraced,
        );
        report.notes.push(format!(
            "traced {} sweeps over {} group workers x {} analysis thread(s)",
            traced.len(),
            workers.min(groups.len()),
            own_threads
        ));
        crate::write_trace(&tracer, args, &mut report);
        return report;
    }

    let corners_per_s = setup.grid.len() as f64 / median(&seconds);
    crate::finish_setup(&mut report, setup_s, || {
        prepare(args.seed, args.short, &config)
    });
    report.metrics.insert("throughput_per_s", corners_per_s);
    report.notes.push(format!(
        "measured {} sweeps (median {:.3} s, p99 {:.3} s); throughput_per_s counts corners",
        seconds.len(),
        median(&seconds),
        quantile(&seconds, 0.99)
    ));
    report
        .named
        .push(("sweep_corners_per_s", corners_per_s, "1/s"));
    report
}

/// `(first corner of a mode bucket, delay mean bits, delay σ bits)`.
type BucketResult = (usize, u64, u64);

/// The traced replay of one sweep: planning, then the groups on the
/// sweep's own worker count, each resolving from the warm session,
/// sharing one basis per correlation model and one level schedule
/// across its mode buckets.
fn traced_sweep(
    root: Scope<'_>,
    setup: &Setup,
    groups: &[Group],
    session: &Session,
) -> Result<(Vec<BucketResult>, Counts), String> {
    let config = SstaConfig::paper();
    root.span("sweep_warm.op", |scope| {
        let planned = scope.span("engine.plan", |scope| {
            let replanned = plan_groups(&setup.grid, &config);
            replanned
                .iter()
                .map(|g| layers::plan(scope, &setup.spec, &g.config, &g.extract))
                .collect::<Vec<_>>()
        });
        let workers = default_threads();
        let group_workers = workers.min(groups.len()).max(1);
        let threads = (workers / group_workers).max(1);
        let bases: Mutex<HashMap<String, Arc<DesignVariables>>> = Mutex::new(HashMap::new());
        let outcomes = parallel_indexed(groups.len(), group_workers, |g| {
            let group = &groups[g];
            let mut counts = Counts::default();
            let models = layers::resolve(
                scope,
                &setup.spec,
                &planned[g],
                session,
                None,
                &group.config,
                &group.extract,
                threads,
                &mut counts,
            )?;
            let design = scope
                .span("core.hier.design", |_| {
                    setup.topology.design(&models, &group.config)
                })
                .map_err(|e| format!("design: {e}"))?;
            let needs_basis = group
                .buckets
                .iter()
                .any(|(mode, _)| *mode == CorrelationMode::Proposed);
            let basis = if needs_basis {
                let key = format!("{:?}", group.config.correlation);
                let cached = bases.lock().expect("basis cache lock").get(&key).cloned();
                match cached {
                    Some(basis) => Some(basis),
                    None => {
                        let basis = Arc::new(layers::basis(scope, &design, threads)?);
                        bases
                            .lock()
                            .expect("basis cache lock")
                            .insert(key, Arc::clone(&basis));
                        Some(basis)
                    }
                }
            } else {
                None
            };
            let mut schedule = None;
            let mut results = Vec::new();
            for (mode, corners) in &group.buckets {
                let assembled = layers::replace(
                    scope,
                    &design,
                    *mode,
                    threads,
                    basis.as_deref(),
                    &mut counts,
                )?;
                if schedule.is_none() {
                    schedule = Some(layers::schedule(scope, &assembled, &mut counts)?);
                }
                let levels = schedule.as_ref().expect("built above");
                let timing = layers::propagate(scope, &assembled, levels, threads)?;
                results.push((
                    corners[0],
                    timing.delay.mean().to_bits(),
                    timing.delay.std_dev().to_bits(),
                ));
            }
            Ok::<_, String>((results, counts))
        });
        let mut all = Vec::new();
        let mut counts = Counts::default();
        for outcome in outcomes {
            let (results, group_counts) = outcome?;
            all.extend(results);
            counts.absorb(&group_counts);
        }
        Ok((all, counts))
    })
}
