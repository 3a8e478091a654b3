//! Machine-readable serving-layer benchmark.
//!
//! Emits `BENCH_serving.json` (override the path with `SSTA_BENCH_OUT`)
//! with five sections over one module-array workload:
//!
//! * **closed_loop** — C client threads, each submitting and waiting
//!   sequentially, against a cold store (first section extracts) and a
//!   warm one (everything served from cache). Asserts every request
//!   completed, cold extractions stayed ≤ the distinct fingerprint
//!   count (concurrent identical requests coalesce), warm runs extract
//!   nothing, and the warm p50 service time beats the slowest cold
//!   request.
//! * **open_loop** — every request submitted up front, workers drain;
//!   measures queue wait under backlog.
//! * **admission** — a deliberate burst past the queue bound against a
//!   paused server: the surplus is rejected `queue_full` immediately
//!   (no deadlock, no loss), the admitted prefix completes after
//!   resume.
//! * **shedding** — a deadline request submitted behind a backlog whose
//!   estimated wait exceeds the budget: shed at admission, zero CPU
//!   spent.
//! * **cancellation** — of two identical requests staged on a paused
//!   server, one is cancelled before resume: it terminates `cancelled`
//!   with zero service time while the identical survivor completes,
//!   extracting once.
//!
//! Every section asserts `lost() == 0`: each submitted request got
//! exactly one terminal response.
//!
//! `--tiny` (or `SSTA_BENCH_PROFILE=tiny`) shrinks sizes for CI smoke;
//! the tiny profile defaults to its own gitignored output path.
//!
//! Run with `cargo run -p ssta-bench --release --bin bench_serving`.

use serde::Serialize;
use ssta_bench::{module_array_spec, BenchProfile};
use ssta_core::SstaConfig;
use ssta_engine::{DesignSpec, MemoryBackend, ScenarioSet};
use ssta_serve::{AnalyzeRequest, AnalyzeResponse, ServeOptions, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Report {
    schema: u32,
    profile: String,
    workers: usize,
    /// The pool size the profile's `workers` request resolved to
    /// (`effective_threads`), which is what actually served requests.
    effective_threads: usize,
    module: String,
    instances: usize,
    distinct_fingerprints: usize,
    closed_loop: Vec<ClosedLoopPoint>,
    open_loop: OpenLoop,
    admission: Admission,
    shedding: Shedding,
    cancellation: Cancellation,
}

#[derive(Serialize)]
struct ClosedLoopPoint {
    store: String,
    concurrency: usize,
    requests: usize,
    completed: u64,
    lost: u64,
    extractions: u64,
    coalesced: u64,
    memory_hits: u64,
    store_hits: u64,
    p50_service_ms: f64,
    p95_service_ms: f64,
    max_service_ms: f64,
    p50_queue_ms: f64,
    throughput_rps: f64,
}

#[derive(Serialize)]
struct OpenLoop {
    requests: usize,
    completed: u64,
    lost: u64,
    p50_queue_ms: f64,
    p95_queue_ms: f64,
    p50_service_ms: f64,
    throughput_rps: f64,
}

#[derive(Serialize)]
struct Admission {
    queue_depth: usize,
    submitted: u64,
    completed: u64,
    rejected_queue_full: u64,
    lost: u64,
}

#[derive(Serialize)]
struct Shedding {
    backlog: usize,
    deadline_ms: f64,
    shed: u64,
    completed: u64,
    lost: u64,
}

#[derive(Serialize)]
struct Cancellation {
    cancelled: u64,
    completed: u64,
    extractions: u64,
    lost: u64,
}

struct Profile {
    tiny: bool,
    module: &'static str,
    instances: usize,
    workers: usize,
    levels: &'static [usize],
    per_client: usize,
    open_loop_requests: usize,
}

fn main() {
    let bench = BenchProfile::from_env("BENCH_serving");
    let tiny = bench.tiny;
    let profile = if tiny {
        Profile {
            tiny,
            module: "c432",
            instances: 2,
            workers: 2,
            levels: &[2],
            per_client: 1,
            open_loop_requests: 4,
        }
    } else {
        Profile {
            tiny,
            module: "c432",
            instances: 4,
            workers: 4,
            levels: &[1, 2, 4],
            per_client: 3,
            open_loop_requests: 12,
        }
    };

    println!(
        "serving workload: {} x{} ({} workers)",
        profile.module, profile.instances, profile.workers
    );
    let spec = Arc::new(module_array_spec(profile.module, profile.instances));

    let mut closed = Vec::new();
    // Cold sections get a fresh store each so every concurrency level
    // demonstrates the coalesce-under-race path; the warm sections all
    // share one pre-warmed store.
    for &concurrency in profile.levels {
        let backend = Arc::new(MemoryBackend::new());
        let point = closed_loop("cold", &profile, &spec, concurrency, Arc::clone(&backend));
        assert!(point.extractions >= 1, "cold run must extract");
        closed.push(point);
    }
    let warm_backend = Arc::new(MemoryBackend::new());
    // Pre-warm: one request populates the store.
    closed_loop("prewarm", &profile, &spec, 1, Arc::clone(&warm_backend));
    let cold_worst_ms = closed.iter().map(|p| p.max_service_ms).fold(0.0, f64::max);
    for &concurrency in profile.levels {
        let point = closed_loop(
            "warm",
            &profile,
            &spec,
            concurrency,
            Arc::clone(&warm_backend),
        );
        assert_eq!(point.extractions, 0, "warm store must not extract");
        assert!(
            point.p50_service_ms <= cold_worst_ms,
            "warm p50 {:.1} ms not under the worst cold request {:.1} ms",
            point.p50_service_ms,
            cold_worst_ms
        );
        closed.push(point);
    }
    for point in &closed {
        assert_eq!(point.lost, 0, "no request may go unanswered");
        assert!(
            point.extractions as usize <= 1,
            "identical requests must coalesce to <= 1 distinct-fingerprint extraction, got {}",
            point.extractions
        );
    }

    let open_loop = open_loop(&profile, &spec);
    let admission = admission_burst(&profile, &spec);
    let shedding = shedding(&profile, &spec);
    let cancellation = cancellation(&profile, &spec);

    bench.write(&Report {
        schema: 2,
        profile: bench.name(),
        workers: profile.workers,
        effective_threads: ssta_math::parallel::effective_threads(profile.workers),
        module: profile.module.into(),
        instances: profile.instances,
        distinct_fingerprints: 1,
        closed_loop: closed,
        open_loop,
        admission,
        shedding,
        cancellation,
    });
}

fn options(profile: &Profile) -> ServeOptions {
    ServeOptions {
        workers: profile.workers,
        ..ServeOptions::default()
    }
}

/// C clients, each submitting `per_client` requests sequentially and
/// waiting for each response before the next.
fn closed_loop(
    label: &str,
    profile: &Profile,
    spec: &Arc<DesignSpec>,
    concurrency: usize,
    backend: Arc<MemoryBackend>,
) -> ClosedLoopPoint {
    let server = Server::start(SstaConfig::paper(), backend, options(profile));
    let started = Instant::now();
    let responses: Vec<AnalyzeResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let server = &server;
                s.spawn(move || {
                    (0..profile.per_client)
                        .map(|_| {
                            server
                                .submit(AnalyzeRequest::new(
                                    Arc::clone(spec),
                                    ScenarioSet::baseline(),
                                ))
                                .wait()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let snapshot = server.shutdown();

    for response in &responses {
        assert!(
            response.outcome.is_completed(),
            "closed-loop request {} ended {}",
            response.id,
            response.outcome.label()
        );
    }
    let service: Vec<Duration> = responses.iter().map(|r| r.stats.service_time).collect();
    let queue: Vec<Duration> = responses.iter().map(|r| r.stats.queue_wait).collect();
    let point = ClosedLoopPoint {
        store: label.into(),
        concurrency,
        requests: responses.len(),
        completed: snapshot.completed,
        lost: snapshot.lost(),
        extractions: snapshot.extractions,
        coalesced: snapshot.coalesced,
        memory_hits: snapshot.memory_hits,
        store_hits: snapshot.store_hits,
        p50_service_ms: percentile_ms(&service, 50.0),
        p95_service_ms: percentile_ms(&service, 95.0),
        max_service_ms: percentile_ms(&service, 100.0),
        p50_queue_ms: percentile_ms(&queue, 50.0),
        throughput_rps: responses.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    };
    println!(
        "closed/{label} c={concurrency}: p50 {:.1} ms, p95 {:.1} ms, {:.1} req/s | {snapshot}",
        point.p50_service_ms, point.p95_service_ms, point.throughput_rps
    );
    point
}

/// Everything submitted up front against a warm store; workers drain.
fn open_loop(profile: &Profile, spec: &Arc<DesignSpec>) -> OpenLoop {
    let backend = Arc::new(MemoryBackend::new());
    closed_loop("prewarm", profile, spec, 1, Arc::clone(&backend));
    let server = Server::start(SstaConfig::paper(), backend, options(profile));
    let started = Instant::now();
    let tickets: Vec<_> = (0..profile.open_loop_requests)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    let responses: Vec<AnalyzeResponse> = tickets.into_iter().map(|t| t.wait()).collect();
    let elapsed = started.elapsed();
    let snapshot = server.shutdown();
    for response in &responses {
        assert!(response.outcome.is_completed(), "open-loop request failed");
    }
    let queue: Vec<Duration> = responses.iter().map(|r| r.stats.queue_wait).collect();
    let service: Vec<Duration> = responses.iter().map(|r| r.stats.service_time).collect();
    let result = OpenLoop {
        requests: responses.len(),
        completed: snapshot.completed,
        lost: snapshot.lost(),
        p50_queue_ms: percentile_ms(&queue, 50.0),
        p95_queue_ms: percentile_ms(&queue, 95.0),
        p50_service_ms: percentile_ms(&service, 50.0),
        throughput_rps: responses.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    };
    assert_eq!(result.lost, 0);
    println!(
        "open loop: queue p50 {:.1} ms / p95 {:.1} ms, {:.1} req/s",
        result.p50_queue_ms, result.p95_queue_ms, result.throughput_rps
    );
    result
}

/// A burst past the queue bound against a paused server: the surplus is
/// rejected immediately — backpressure, not deadlock — and the admitted
/// prefix completes after resume.
fn admission_burst(profile: &Profile, spec: &Arc<DesignSpec>) -> Admission {
    let depth = if profile.tiny { 2 } else { 4 };
    let burst = depth + 3;
    let backend = Arc::new(MemoryBackend::new());
    closed_loop("prewarm", profile, spec, 1, Arc::clone(&backend));
    let server = Server::start(
        SstaConfig::paper(),
        backend,
        ServeOptions {
            queue_depth: depth,
            start_paused: true,
            ..options(profile)
        },
    );
    let tickets: Vec<_> = (0..burst)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    // The paused server can't have served anything: rejections already
    // hold their terminal response, before any worker ran.
    assert_eq!(
        server.snapshot().rejected_queue_full as usize,
        burst - depth
    );
    server.resume();
    for ticket in tickets {
        ticket.wait();
    }
    let snapshot = server.shutdown();
    let result = Admission {
        queue_depth: depth,
        submitted: snapshot.submitted,
        completed: snapshot.completed,
        rejected_queue_full: snapshot.rejected_queue_full,
        lost: snapshot.lost(),
    };
    assert_eq!(result.completed as usize, depth);
    assert_eq!(result.lost, 0);
    println!(
        "admission: burst {burst} into depth {depth} -> {} completed, {} rejected",
        result.completed, result.rejected_queue_full
    );
    result
}

/// A deadline request submitted behind a backlog whose estimated wait
/// exceeds the budget: shed at admission.
fn shedding(profile: &Profile, spec: &Arc<DesignSpec>) -> Shedding {
    let backlog = 4;
    let deadline = Duration::from_millis(100);
    let backend = Arc::new(MemoryBackend::new());
    closed_loop("prewarm", profile, spec, 1, Arc::clone(&backend));
    let server = Server::start(
        SstaConfig::paper(),
        backend,
        ServeOptions {
            workers: 1,
            // A deliberately pessimistic service prior so the shed
            // decision is deterministic: 4 x 200 ms backlog >> 100 ms.
            service_estimate: Duration::from_millis(200),
            start_paused: true,
            ..options(profile)
        },
    );
    let tickets: Vec<_> = (0..backlog)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    let doomed = server.submit(
        AnalyzeRequest::new(Arc::clone(spec), ScenarioSet::baseline()).with_deadline(deadline),
    );
    let response = doomed.wait();
    assert_eq!(
        response.outcome.label(),
        "rejected:shed",
        "backlogged deadline request must shed at admission"
    );
    server.resume();
    for ticket in tickets {
        assert!(ticket.wait().outcome.is_completed());
    }
    let snapshot = server.shutdown();
    let result = Shedding {
        backlog,
        deadline_ms: 1e3 * deadline.as_secs_f64(),
        shed: snapshot.shed,
        completed: snapshot.completed,
        lost: snapshot.lost(),
    };
    assert_eq!(result.shed, 1);
    assert_eq!(result.lost, 0);
    println!(
        "shedding: {} shed at admission behind a backlog of {backlog}",
        result.shed
    );
    result
}

/// Two identical requests staged on a paused server; one is cancelled
/// before any worker runs. The cancelled one terminates `cancelled`
/// with zero service time, the survivor completes and extracts once.
fn cancellation(profile: &Profile, spec: &Arc<DesignSpec>) -> Cancellation {
    let backend = Arc::new(MemoryBackend::new());
    let server = Server::start(
        SstaConfig::paper(),
        backend,
        ServeOptions {
            start_paused: true,
            ..options(profile)
        },
    );
    let doomed = server.submit(AnalyzeRequest::new(
        Arc::clone(spec),
        ScenarioSet::baseline(),
    ));
    let survivor = server.submit(AnalyzeRequest::new(
        Arc::clone(spec),
        ScenarioSet::baseline(),
    ));
    doomed.cancel();
    server.resume();
    let cancelled = doomed.wait();
    assert_eq!(cancelled.outcome.label(), "cancelled");
    assert_eq!(
        cancelled.stats.service_time,
        Duration::ZERO,
        "a request cancelled while queued must cost zero service CPU"
    );
    let survived = survivor.wait();
    assert!(
        survived.outcome.is_completed(),
        "the identical request must be unaffected by the cancellation"
    );
    let snapshot = server.shutdown();
    let result = Cancellation {
        cancelled: snapshot.cancelled,
        completed: snapshot.completed,
        extractions: snapshot.extractions,
        lost: snapshot.lost(),
    };
    assert_eq!(result.cancelled, 1);
    assert_eq!(result.completed, 1);
    assert_eq!(result.extractions, 1);
    assert_eq!(result.lost, 0);
    println!(
        "cancellation: 1 cancelled at zero cost, identical survivor completed ({} extraction)",
        result.extractions
    );
    result
}

fn percentile_ms(samples: &[Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort();
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    1e3 * sorted[rank.min(sorted.len() - 1)].as_secs_f64()
}
