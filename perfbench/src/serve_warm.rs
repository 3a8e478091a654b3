//! `serve_warm`: a fresh default `Server` per run over a shared
//! in-memory store filled during set-up.
//!
//! Phase 1 is an open loop: one generator thread submits Poisson
//! arrivals at a fixed offered rate, and collector threads wait on the
//! tickets and note when each response arrives, so a request's latency
//! runs from the moment it was due to the moment its client holds the
//! response, generator lateness included. Phase 2 is a closed loop: one
//! client thread per server worker submits a request, waits for it and
//! submits the next, which measures capacity. Requests are interactive
//! and single-scenario, drawn from 1- and 4-instance arrays of five
//! small ISCAS-85 modules. On designs this small the fixed cost of a
//! request dominates: queueing, planning and fingerprinting, resolve
//! (one store read and decode per worker on first touch, then
//! session-cache hits), basis and replacement on small covariances, and
//! threaded propagation. It is the only workload that reads the store or
//! has arrivals.

use crate::layers::{self, Counts, Session};
use crate::stats::{form_bits, median, peak_rss_mb, process_cpu_seconds, quantile, Stopwatch};
use crate::topology::Topology;
use crate::trace::Tracer;
use crate::{default_threads, layer_metrics, record_model_quality, Args, ReferenceDelays, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssta_core::SstaConfig;
use ssta_engine::{DesignSpec, Engine, EngineOptions, MemoryBackend, ScenarioSet};
use ssta_serve::{AnalyzeRequest, AnalyzeResponse, Outcome, ServeOptions, Server, Ticket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const MODULES: &[&str] = &["c432", "c499", "c880", "c1355", "c1908"];
const MODULES_SHORT: &[&str] = &["c432", "c499"];
const SIZES: &[usize] = &[1, 4];

/// Offered rate of the open-loop phase in requests per second: about a
/// quarter of a default server's closed-loop capacity on two cores.
const OPEN_RATE: f64 = 70.0;
/// Share of `--seconds` given to the open-loop phase; the closed loop
/// gets the rest.
const OPEN_SHARE: f64 = 0.5;
/// Length of one closed-loop window: capacity is the median of the
/// windows' completion rates.
const WINDOW: Duration = Duration::from_secs(1);
/// Requests the traced run replays layer by layer, from the start of the
/// open-loop schedule.
const REPLAYED: usize = 256;

struct Setup {
    topologies: Vec<Topology>,
    specs: Vec<Arc<DesignSpec>>,
    store: Arc<MemoryBackend>,
    /// Design delay of every spec from a one-thread engine; threaded
    /// serving must match it bit for bit.
    references: Vec<Vec<u64>>,
    /// Open-loop schedule: `(due offset in seconds, spec index)`.
    arrivals: Vec<(f64, usize)>,
}

fn prepare(args: &Args, config: &SstaConfig) -> Result<Setup, String> {
    let modules = if args.short { MODULES_SHORT } else { MODULES };
    let topologies: Vec<Topology> = modules
        .iter()
        .flat_map(|m| SIZES.iter().map(move |&n| Topology::array(m, n, config)))
        .collect();
    let specs: Vec<Arc<DesignSpec>> = topologies.iter().map(|t| Arc::new(t.spec())).collect();
    let store = Arc::new(MemoryBackend::new());
    let mut filler = Engine::new(config.clone()).with_backend(Arc::clone(&store));
    for (t, spec) in topologies.iter().zip(&specs) {
        if t.instances.len() == 1 {
            filler
                .analyze(spec)
                .map_err(|e| format!("filling the store with {}: {e}", t.name))?;
        }
    }
    let mut serial = Engine::with_options(
        config.clone(),
        EngineOptions {
            threads: 1,
            ..EngineOptions::default()
        },
    )
    .with_backend(Arc::clone(&store));
    let mut references = Vec::new();
    for (t, spec) in topologies.iter().zip(&specs) {
        let run = serial
            .analyze(spec)
            .map_err(|e| format!("reference analysis of {}: {e}", t.name))?;
        if run.stats.extractions != 0 {
            return Err(format!("{} missed the filled store", t.name));
        }
        references.push(form_bits(&run.timing.delay));
    }
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut arrivals = Vec::new();
    let mut due = 0.0;
    loop {
        due += -(1.0 - rng.gen::<f64>()).ln() / OPEN_RATE;
        if due >= OPEN_SHARE * args.seconds {
            break;
        }
        arrivals.push((due, rng.gen_range(0..specs.len())));
    }
    Ok(Setup {
        topologies,
        specs,
        store,
        references,
        arrivals,
    })
}

fn request(spec: &Arc<DesignSpec>) -> AnalyzeRequest {
    AnalyzeRequest::new(Arc::clone(spec), ScenarioSet::baseline())
}

/// Why a request did not count as served.
enum Fault {
    /// It completed, with a design delay other than the reference's.
    Wrong(String),
    /// It ended without a result: an error, rejection or cancellation.
    Failed(String),
}

impl Fault {
    fn record(self, report: &mut Report) {
        match self {
            Fault::Wrong(why) => report.wrong(why),
            Fault::Failed(why) => report.fail(why),
        }
    }
}

/// Checks a response against the spec's reference; `Ok` carries its
/// queue wait and service time.
fn check(response: &AnalyzeResponse, reference: &[u64]) -> Result<(Duration, Duration), Fault> {
    match &response.outcome {
        Outcome::Completed(run) if form_bits(&run.scenarios[0].timing.delay) == reference => {
            Ok((response.stats.queue_wait, response.stats.service_time))
        }
        Outcome::Completed(_) => Err(Fault::Wrong(
            "served design delay differs from the one-thread reference".into(),
        )),
        other => Err(Fault::Failed(format!("request ended {}", other.label()))),
    }
}

/// One open-loop request as its collector saw it.
struct Answered {
    /// Due → submitted.
    late: Duration,
    /// Due → response in the client's hands.
    latency: Duration,
    checked: Result<(Duration, Duration), Fault>,
}

/// Phase 1: the generator submits each request when it is due and hands
/// its ticket to a pool of collectors, each of which waits on one ticket
/// at a time and notes when the response arrives. The queue is first in,
/// first out, so with one collector more than the server has workers,
/// every request in service has a collector waiting on it.
fn open_loop(server: &Server, setup: &Setup) -> Vec<Answered> {
    let (tickets, inbox) = mpsc::channel::<(Instant, Duration, usize, Ticket)>();
    let inbox = Mutex::new(inbox);
    std::thread::scope(|s| {
        let collectors: Vec<_> = (0..=server.worker_count())
            .map(|_| {
                s.spawn(|| {
                    let mut answered = Vec::new();
                    loop {
                        // The lock is released at the end of this
                        // statement, before the wait for the response.
                        let next = inbox.lock().expect("collector lock").recv();
                        let Ok((due, late, spec, ticket)) = next else {
                            return answered;
                        };
                        let response = ticket.wait();
                        answered.push(Answered {
                            late,
                            latency: due.elapsed(),
                            checked: check(&response, &setup.references[spec]),
                        });
                    }
                })
            })
            .collect();
        let start = Instant::now();
        for &(offset, spec) in &setup.arrivals {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late = due.elapsed();
            let ticket = server.submit(request(&setup.specs[spec]));
            tickets
                .send((due, late, spec, ticket))
                .expect("collectors outlive the generator");
        }
        drop(tickets);
        collectors
            .into_iter()
            .flat_map(|c| c.join().expect("collector thread"))
            .collect()
    })
}

/// What the closed loop measured.
#[derive(Default)]
struct Capacity {
    /// Steal-corrected correct completions per second, one per window.
    windows: Vec<f64>,
    /// Correct completions per second of wall time over all windows,
    /// and per second of the whole machine's CPU the process used.
    wall: f64,
    per_cpu: f64,
    attempted: u64,
    faults: Vec<Fault>,
}

/// Phase 2: one client thread per server worker, each submitting a
/// request, waiting for its response and submitting the next, for
/// `duration`. Meanwhile the calling thread counts correct completions
/// in back-to-back windows of about [`WINDOW`], each timed by its own
/// [`Stopwatch`], so a burst of steal spoils one window, not the figure.
fn closed_loop(server: &Server, setup: &Setup, seed: u64, duration: Duration) -> Capacity {
    let completed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..server.worker_count() as u64)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xc105_ed10_0b00 + c));
                let (completed, stop) = (&completed, &stop);
                s.spawn(move || {
                    let (mut attempted, mut faults) = (0u64, Vec::new());
                    while !stop.load(Ordering::Relaxed) {
                        let spec = rng.gen_range(0..setup.specs.len());
                        let response = server.submit(request(&setup.specs[spec])).wait();
                        attempted += 1;
                        match check(&response, &setup.references[spec]) {
                            Ok(_) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(fault) => faults.push(fault),
                        }
                    }
                    (attempted, faults)
                })
            })
            .collect();
        let mut capacity = Capacity::default();
        let windows = (duration.as_secs_f64() / WINDOW.as_secs_f64())
            .round()
            .max(1.0);
        let window = duration.div_f64(windows);
        let cpu_before = process_cpu_seconds();
        let wall = Instant::now();
        let mut counted = completed.load(Ordering::Relaxed);
        for _ in 0..windows as usize {
            let watch = Stopwatch::start();
            std::thread::sleep(window);
            let now = completed.load(Ordering::Relaxed);
            capacity
                .windows
                .push((now - counted) as f64 / watch.seconds());
            counted = now;
        }
        let (wall, cpu) = (
            wall.elapsed().as_secs_f64(),
            process_cpu_seconds() - cpu_before,
        );
        stop.store(true, Ordering::Relaxed);
        for client in clients {
            let (attempted, faults) = client.join().expect("client thread");
            capacity.attempted += attempted;
            capacity.faults.extend(faults);
        }
        let counted = counted as f64;
        capacity.wall = counted / wall;
        capacity.per_cpu = counted * default_threads() as f64 / cpu;
        capacity
    })
}

/// What the two server phases measured.
#[derive(Default)]
struct Served {
    /// Open loop, per request, in steal-corrected seconds: due →
    /// response in hand (∞ if it failed), queue wait, service time and
    /// generator lateness.
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    service: Vec<f64>,
    late: Vec<f64>,
    /// Unstolen CPU share of the open-loop phase.
    open_kept_share: f64,
    capacity: Capacity,
    rejected: u64,
    lost: u64,
}

/// Drives one fresh server through both phases, recording failures and
/// wrong outputs into `report`.
fn serve(setup: &Setup, args: &Args, config: &SstaConfig, report: &mut Report) -> Served {
    let mut served = Served::default();
    let server = Server::start(
        config.clone(),
        Arc::clone(&setup.store),
        ServeOptions::default(),
    );

    // Every open-loop time is scaled by the phase's unstolen CPU share
    // (see `Stopwatch`), like every other time the benchmark reports.
    let phase = Stopwatch::start();
    let answered = open_loop(&server, setup);
    // Peak memory is read after the seeded schedule, a fixed amount of
    // work; the closed loop's work grows with the server's speed.
    report.metrics.insert("peak_rss_mb", peak_rss_mb());
    let kept = phase.kept_share();
    served.open_kept_share = kept;
    for a in answered {
        report.attempted += 1;
        served.late.push(kept * a.late.as_secs_f64());
        match a.checked {
            Ok((queue_wait, service)) => {
                served.latency.push(kept * a.latency.as_secs_f64());
                served.queue_wait.push(kept * queue_wait.as_secs_f64());
                served.service.push(kept * service.as_secs_f64());
            }
            Err(fault) => {
                served.latency.push(f64::INFINITY);
                fault.record(report);
            }
        }
    }

    let closed = Duration::from_secs_f64((1.0 - OPEN_SHARE) * args.seconds);
    let mut capacity = closed_loop(&server, setup, args.seed, closed);
    report.attempted += capacity.attempted;
    for fault in capacity.faults.drain(..) {
        fault.record(report);
    }
    served.capacity = capacity;

    let snapshot = server.shutdown();
    served.rejected = snapshot.rejected_queue_full + snapshot.shed;
    served.lost = snapshot.lost();
    if served.lost > 0 {
        report.failed += served.lost;
        report
            .notes
            .push(format!("FAILED: {} requests lost", served.lost));
    }
    served
}

pub(crate) fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = SstaConfig::paper();
    let (setup, setup_s) = match crate::timed_setup(|| prepare(args, &config)) {
        Ok(done) => done,
        Err(why) => {
            report.attempted = 1;
            report.wrong(why);
            return report;
        }
    };
    let workers = default_threads();
    report.notes.push(format!(
        "designs: 1- and 4-instance arrays of {} ({} specs, drawn uniformly by the seeded generator); {} workers",
        setup
            .topologies
            .iter()
            .filter(|t| t.instances.len() == 1)
            .map(|t| t.name.trim_end_matches("-array-1"))
            .collect::<Vec<_>>()
            .join(", "),
        setup.specs.len(),
        workers
    ));

    crate::start_measuring(&mut report);
    let served = serve(&setup, args, &config, &mut report);
    let capacity = &served.capacity;
    let rps = median(&capacity.windows);
    report.notes.push(format!(
        "discipline: open loop, Poisson arrivals at {OPEN_RATE} req/s for {:.1} s ({} requests), \
         then closed loop with {workers} clients, one request outstanding each, for {:.1} s \
         ({} requests)",
        OPEN_SHARE * args.seconds,
        setup.arrivals.len(),
        (1.0 - OPEN_SHARE) * args.seconds,
        capacity.attempted
    ));
    let ms = |v: &[f64], q: f64| 1e3 * quantile(v, q);

    if args.trace {
        let tracer = Tracer::default();
        let replayed = replay(&setup, &config, &tracer, &mut report);
        let m = &mut report.metrics;
        m.insert("serve.queue_wait_p50_ms", ms(&served.queue_wait, 0.5));
        m.insert("serve.queue_wait_p99_ms", ms(&served.queue_wait, 0.99));
        m.insert("serve.service_p50_ms", ms(&served.service, 0.5));
        m.insert("serve.service_p99_ms", ms(&served.service, 0.99));
        m.insert("serve.generator_late_p99_ms", ms(&served.late, 0.99));
        m.insert("serve.latency_p50_ms", ms(&served.latency, 0.5));
        m.insert("serve.latency_p99_ms", ms(&served.latency, 0.99));
        m.insert("serve.rejected", served.rejected as f64);
        m.insert("serve.lost", served.lost as f64);
        report.notes.push(format!(
            "traced {replayed} requests of the open-loop schedule over {workers} emulated worker sessions"
        ));
        crate::write_trace(&tracer, args, &mut report);
        return report;
    }

    let models = setup
        .topologies
        .iter()
        .zip(&setup.specs)
        .filter(|(t, _)| t.instances.len() == 1)
        .map(|(t, spec)| {
            let key =
                layers::fingerprints(spec, &config, &EngineOptions::default().extract).remove(0);
            let model = layers::stored_model(&*setup.store, &key)?;
            Ok((model, ReferenceDelays::of(&t.modules[0], &config)?))
        })
        .collect();
    record_model_quality(&mut report, models);

    let p50 = ms(&served.latency, 0.5);
    let p99 = ms(&served.latency, 0.99);
    crate::finish_setup(&mut report, setup_s, || prepare(args, &config));
    report.metrics.insert("throughput_per_s", rps);
    report.notes.push(format!(
        "open-loop latency over {} requests ({} beyond p99); generator late p99 {:.3} ms; \
         unstolen CPU share {:.3}",
        served.latency.len(),
        served.latency.len() / 100,
        ms(&served.late, 0.99),
        served.open_kept_share,
    ));
    report.notes.push(format!(
        "closed-loop capacity over {} windows: p25 {:.1}, median {:.1}, p75 {:.1} req/s \
         (steal-corrected); {:.1} req/s of wall time; {:.1} req/s per second of machine CPU used",
        capacity.windows.len(),
        quantile(&capacity.windows, 0.25),
        rps,
        quantile(&capacity.windows, 0.75),
        capacity.wall,
        capacity.per_cpu
    ));
    report.named.push(("serve_p50_ms", p50, "ms"));
    report.named.push(("serve_p99_ms", p99, "ms"));
    report.named.push(("serve_capacity_rps", rps, "1/s"));
    report
}

/// Replays the head of the open-loop schedule layer by layer, as one
/// server worker would serve each request (requests dealt round-robin
/// to one emulated session per worker), alternating with the same
/// request through `Engine::analyze_batch` on a per-worker engine for
/// the untraced time. Returns how many requests were replayed.
fn replay(setup: &Setup, config: &SstaConfig, tracer: &Tracer, report: &mut Report) -> usize {
    let options = EngineOptions::default();
    // A worker's engine gives its one scenario the whole thread budget.
    let workers = default_threads();
    let threads = default_threads();
    let sessions: Vec<Session> = (0..workers).map(|_| Session::default()).collect();
    let mut engines: Vec<Engine> = (0..workers)
        .map(|_| Engine::new(config.clone()).with_backend(Arc::clone(&setup.store)))
        .collect();
    let mut traced = Vec::new();
    let (mut traced_seconds, mut untraced_seconds) = (Vec::new(), Vec::new());
    for (k, &(_, spec)) in setup.arrivals.iter().take(REPLAYED).enumerate() {
        let w = k % workers;
        let reference = &setup.references[spec];
        report.attempted += 2;
        let watch = Stopwatch::start();
        match engines[w].analyze_batch(&setup.specs[spec], &ScenarioSet::baseline()) {
            Ok(run) if form_bits(&run.scenarios[0].timing.delay) == *reference => {
                untraced_seconds.push(watch.seconds())
            }
            Ok(_) => report.wrong("analyze_batch differs from the one-thread reference"),
            Err(e) => report.fail(e.to_string()),
        }
        let watch = Stopwatch::start();
        let outcome = tracer.op(k as u64).span("serve_warm.request", |scope| {
            let mut counts = Counts::default();
            let spec_ref = &setup.specs[spec];
            let keys = layers::plan(scope, spec_ref, config, &options.extract);
            let models = layers::resolve(
                scope,
                spec_ref,
                &keys,
                &sessions[w],
                Some(&*setup.store),
                config,
                &options.extract,
                threads,
                &mut counts,
            )?;
            let design = scope
                .span("core.hier.design", |_| {
                    setup.topologies[spec].design(&models, config)
                })
                .map_err(|e| format!("design: {e}"))?;
            let timing = layers::analyze(scope, &design, options.mode, threads, &mut counts)?;
            Ok::<_, String>((form_bits(&timing.delay), counts))
        });
        match outcome {
            Ok((bits, counts)) => {
                traced_seconds.push(watch.seconds());
                if bits != *reference {
                    report.wrong("traced replay differs from the one-thread reference");
                }
                traced.push((k as u64, counts));
            }
            Err(why) => report.fail(why),
        }
    }
    layer_metrics(tracer, &traced, threads, report);
    let untraced = median(&untraced_seconds);
    report.metrics.insert(
        "trace.overhead_frac",
        (median(&traced_seconds) - untraced) / untraced,
    );
    traced.len()
}
