//! The serving-layer contract, end to end:
//!
//! * a cancelled in-flight request stops at the next pipeline
//!   checkpoint — before the assemble phase runs — while the partial
//!   work its flight leadership published (extracted models in the
//!   shared store) stays valid, and an identical follow-up request
//!   succeeds *from* that work instead of redoing it;
//! * deadline tokens turn latency budgets into automatic mid-pipeline
//!   stops;
//! * every submitted request — completed, queue-full-rejected, shed or
//!   cancelled — receives exactly one terminal response;
//! * the two-lane queue neither starves batch work behind interactive
//!   streams nor interactive work behind sweeps (batch-courtesy
//!   ordering is deterministic with one worker);
//! * a queue-full burst answers `Rejected` immediately instead of
//!   blocking the submitter or deadlocking the pool;
//! * identical requests racing on different workers coalesce to at
//!   most one extraction per distinct fingerprint;
//! * a panic inside one request's analysis fails that request only: the
//!   worker answers it and keeps serving;
//! * by default the workers split the cores between them instead of
//!   each fanning out over all of them; an explicit engine thread count
//!   is kept.

use hier_ssta::core::{CancelToken, SstaConfig};
use hier_ssta::engine::{
    DesignSpec, Engine, EngineError, EngineOptions, MemoryBackend, ScenarioSet, StorageBackend,
};
use hier_ssta::netlist::{generators, DieRect};
use hier_ssta::serve::{
    AnalyzeRequest, AnalyzeResponse, Outcome, Priority, Rejection, ServeOptions, Server, Ticket,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A spec with `widths.len()` structurally distinct adder modules, one
/// instance each, all inputs exposed — several distinct fingerprints so
/// the resolve stage has multiple flights and therefore multiple
/// cancellation checkpoints.
fn multi_module_spec(widths: &[usize]) -> DesignSpec {
    let mut b = DesignSpec::builder(
        "multi",
        DieRect {
            width: 40.0 * widths.len() as f64,
            height: 40.0,
        },
    );
    for (i, &w) in widths.iter().enumerate() {
        let netlist = generators::ripple_carry_adder(w).expect("adder");
        let n_in = netlist.n_inputs();
        let n_out = netlist.n_outputs();
        let m = b.add_module(netlist);
        let u = b
            .add_instance(format!("u{i}"), m, (40.0 * i as f64, 0.0))
            .expect("instance");
        for k in 0..n_in {
            b.expose_input(vec![(u, k)]);
        }
        for k in 0..n_out {
            b.expose_output(u, k);
        }
    }
    b.finish().expect("spec")
}

/// A shared `MemoryBackend` that cancels a token the moment the first
/// artifact is written — a deterministic "cancel arrives mid-request,
/// right after the first extraction published" probe, with no timing
/// races.
#[derive(Debug)]
struct CancelOnFirstPut {
    inner: Arc<MemoryBackend>,
    token: CancelToken,
    puts: AtomicUsize,
}

impl StorageBackend for CancelOnFirstPut {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, EngineError> {
        self.inner.get(key)
    }
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), EngineError> {
        self.inner.put(key, bytes)?;
        if self.puts.fetch_add(1, Ordering::SeqCst) == 0 {
            self.token.cancel();
        }
        Ok(())
    }
    fn remove(&self, key: &str) -> Result<bool, EngineError> {
        self.inner.remove(key)
    }
    fn list_keys(&self) -> Result<Vec<String>, EngineError> {
        self.inner.list_keys()
    }
    fn clear(&self) -> Result<(), EngineError> {
        self.inner.clear()
    }
}

/// A shared `MemoryBackend` whose first `get` panics — a deterministic
/// stand-in for a bug anywhere under a worker's analysis.
#[derive(Debug, Clone, Default)]
struct PanicOnFirstGet {
    inner: Arc<MemoryBackend>,
    gets: Arc<AtomicUsize>,
}

impl StorageBackend for PanicOnFirstGet {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, EngineError> {
        if self.gets.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("injected backend panic");
        }
        self.inner.get(key)
    }
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), EngineError> {
        self.inner.put(key, bytes)
    }
    fn remove(&self, key: &str) -> Result<bool, EngineError> {
        self.inner.remove(key)
    }
    fn list_keys(&self) -> Result<Vec<String>, EngineError> {
        self.inner.list_keys()
    }
    fn clear(&self) -> Result<(), EngineError> {
        self.inner.clear()
    }
}

fn serial_engine_options() -> EngineOptions {
    EngineOptions {
        threads: 1,
        ..EngineOptions::default()
    }
}

#[test]
fn cancelled_in_flight_request_stops_before_assemble_and_its_work_survives() {
    let spec = multi_module_spec(&[2, 3, 4]);
    let memory = Arc::new(MemoryBackend::new());
    let token = CancelToken::new();

    // Request A: cancelled deterministically the instant its first
    // extraction is published to the store.
    let mut engine_a = Engine::with_options(SstaConfig::paper(), serial_engine_options())
        .with_backend(Arc::new(CancelOnFirstPut {
            inner: Arc::clone(&memory),
            token: token.clone(),
            puts: AtomicUsize::new(0),
        }));
    let err = engine_a
        .analyze_batch_cancellable(&spec, &ScenarioSet::baseline(), &token)
        .expect_err("request A must be cancelled mid-pipeline");
    assert!(
        matches!(err, EngineError::Cancelled),
        "expected Cancelled, got {err}"
    );
    // A stopped inside resolve: exactly one of the three distinct
    // modules was extracted, and assemble (which needs all three) never
    // ran — a cancelled request does not burn the analysis tail.
    assert_eq!(
        memory.len().expect("len"),
        1,
        "A must stop after its first extraction published"
    );

    // Request B: identical, live token, same shared store. It succeeds,
    // reusing A's published extraction instead of redoing it.
    let mut engine_b = Engine::with_options(SstaConfig::paper(), serial_engine_options())
        .with_backend(Arc::clone(&memory));
    let run = engine_b
        .analyze_batch(&spec, &ScenarioSet::baseline())
        .expect("identical request succeeds after A's cancellation");
    assert_eq!(run.stats.store_hits, 1, "B reuses A's extraction");
    assert_eq!(run.stats.extractions, 2, "B extracts only what A didn't");
}

#[test]
fn deadline_token_cancels_a_running_batch() {
    let spec = multi_module_spec(&[2, 3]);
    let mut engine = Engine::with_options(SstaConfig::paper(), serial_engine_options());
    // Already-expired budget: the first checkpoint fires before any
    // work, so this is deterministic.
    let token = CancelToken::with_timeout(Duration::ZERO);
    let err = engine
        .analyze_batch_cancellable(&spec, &ScenarioSet::baseline(), &token)
        .expect_err("expired deadline cancels");
    assert!(err.is_cancelled());
}

#[test]
fn every_submitted_request_gets_exactly_one_terminal_response() {
    let spec = Arc::new(multi_module_spec(&[2]));
    let server = Server::start(
        SstaConfig::paper(),
        Arc::new(MemoryBackend::new()),
        ServeOptions {
            workers: 2,
            queue_depth: 3,
            start_paused: true,
            engine: serial_engine_options(),
            ..ServeOptions::default()
        },
    );
    // Stage while paused: 3 admitted (one of which we cancel), then 2
    // rejected queue-full.
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(&spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    let rejected: Vec<_> = (0..2)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(&spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    tickets[2].cancel();
    for ticket in rejected {
        let response = ticket.wait();
        assert!(
            matches!(
                response.outcome,
                hier_ssta::serve::Outcome::Rejected(Rejection::QueueFull { depth: 3 })
            ),
            "burst past the bound rejects immediately, got {}",
            response.outcome.label()
        );
    }
    server.resume();
    let outcomes: Vec<String> = tickets
        .into_iter()
        .map(|t| t.wait().outcome.label().to_owned())
        .collect();
    assert_eq!(outcomes[0], "completed");
    assert_eq!(outcomes[1], "completed");
    assert_eq!(outcomes[2], "cancelled");

    let snapshot = server.shutdown();
    assert_eq!(snapshot.submitted, 5);
    assert_eq!(snapshot.terminal(), 5, "one terminal response each");
    assert_eq!(snapshot.lost(), 0);
    assert_eq!(snapshot.completed, 2);
    assert_eq!(snapshot.rejected_queue_full, 2);
    assert_eq!(snapshot.cancelled, 1);
}

#[test]
fn batch_courtesy_orders_lanes_deterministically() {
    let spec = Arc::new(multi_module_spec(&[2]));
    let server = Server::start(
        SstaConfig::paper(),
        Arc::new(MemoryBackend::new()),
        ServeOptions {
            workers: 1,
            batch_courtesy: 2,
            start_paused: true,
            engine: serial_engine_options(),
            ..ServeOptions::default()
        },
    );
    // One sweep staged first, then a stream of interactive requests.
    let sweep = server.submit(
        AnalyzeRequest::new(Arc::clone(&spec), ScenarioSet::baseline())
            .with_priority(Priority::Batch),
    );
    let small: Vec<_> = (0..4)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(&spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    server.resume();

    // With one worker the service order is exactly the dequeue order:
    // interactive jumps the sweep (lane priority), but after
    // `batch_courtesy = 2` interactive picks the sweep goes ahead of
    // the remaining stream — neither lane starves.
    let sweep_seq = sweep.wait().stats.sequence;
    let small_seqs: Vec<u64> = small.into_iter().map(|t| t.wait().stats.sequence).collect();
    assert_eq!(small_seqs[0], 0, "interactive preferred");
    assert_eq!(small_seqs[1], 1);
    assert_eq!(sweep_seq, 2, "courtesy lets the sweep through");
    assert_eq!(small_seqs[2], 3);
    assert_eq!(small_seqs[3], 4);

    let snapshot = server.shutdown();
    assert_eq!(snapshot.completed, 5);
    assert_eq!(snapshot.lost(), 0);
}

#[test]
fn backlogged_deadline_request_is_shed_at_admission() {
    let spec = Arc::new(multi_module_spec(&[2]));
    let server = Server::start(
        SstaConfig::paper(),
        Arc::new(MemoryBackend::new()),
        ServeOptions {
            workers: 1,
            service_estimate: Duration::from_millis(200),
            start_paused: true,
            engine: serial_engine_options(),
            ..ServeOptions::default()
        },
    );
    let backlog: Vec<_> = (0..4)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(&spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    // Estimated wait 4 x 200 ms on one worker >> the 100 ms budget.
    let doomed = server.submit(
        AnalyzeRequest::new(Arc::clone(&spec), ScenarioSet::baseline())
            .with_deadline(Duration::from_millis(100)),
    );
    let response = doomed.wait();
    match response.outcome {
        hier_ssta::serve::Outcome::Rejected(Rejection::Shed {
            estimated_wait,
            deadline,
        }) => {
            assert!(estimated_wait > deadline);
            assert_eq!(deadline, Duration::from_millis(100));
        }
        ref other => panic!("expected shed, got {}", other.label()),
    }
    server.resume();
    for ticket in backlog {
        assert!(ticket.wait().outcome.is_completed());
    }
    let snapshot = server.shutdown();
    assert_eq!(snapshot.shed, 1);
    assert_eq!(snapshot.lost(), 0);
}

#[test]
fn identical_requests_across_workers_coalesce_extractions() {
    let spec = Arc::new(multi_module_spec(&[3]));
    let server = Server::start(
        SstaConfig::paper(),
        Arc::new(MemoryBackend::new()),
        ServeOptions {
            workers: 4,
            engine: serial_engine_options(),
            ..ServeOptions::default()
        },
    );
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            server.submit(AnalyzeRequest::new(
                Arc::clone(&spec),
                ScenarioSet::baseline(),
            ))
        })
        .collect();
    for ticket in tickets {
        assert!(ticket.wait().outcome.is_completed());
    }
    let snapshot = server.shutdown();
    assert_eq!(snapshot.completed, 8);
    assert_eq!(snapshot.lost(), 0);
    assert!(
        snapshot.extractions <= 1,
        "8 identical requests over 4 workers must coalesce to <= 1 extraction, got {}",
        snapshot.extractions
    );
    // However the race played out, every module resolution was
    // answered by the one extraction, a cache tier, or a coalesced
    // flight.
    assert_eq!(
        snapshot.extractions + snapshot.coalesced + snapshot.memory_hits + snapshot.store_hits,
        8
    );
}

#[test]
fn a_panicking_analysis_fails_its_request_and_the_worker_keeps_serving() {
    let spec = Arc::new(multi_module_spec(&[2]));
    let server = Server::start(
        SstaConfig::paper(),
        PanicOnFirstGet::default(),
        ServeOptions {
            workers: 1,
            engine: serial_engine_options(),
            ..ServeOptions::default()
        },
    );
    let a = server.submit(AnalyzeRequest::new(
        Arc::clone(&spec),
        ScenarioSet::baseline(),
    ));
    let b = server.submit(AnalyzeRequest::new(spec, ScenarioSet::baseline()));
    let answer = |ticket: Ticket, name: &str| -> AnalyzeResponse {
        ticket
            .wait_for(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("request {name} got no terminal response"))
    };

    // A's store read panics: A fails, carrying the panic message.
    let a = answer(a, "A");
    match &a.outcome {
        Outcome::Failed(EngineError::Unavailable { reason }) => {
            assert!(reason.contains("injected backend panic"), "{reason}");
        }
        other => panic!("A must fail with the panic, got {}", other.label()),
    }
    // The same worker then serves B normally.
    let b = answer(b, "B");
    assert!(b.outcome.is_completed(), "got {}", b.outcome.label());
    assert_eq!(b.stats.worker, a.stats.worker);

    let snapshot = server.shutdown();
    assert_eq!(snapshot.lost(), 0, "{snapshot}");
    assert_eq!(snapshot.failed, 1);
    assert_eq!(snapshot.completed, 1);
}

#[test]
fn workers_split_the_cores_unless_the_engine_sets_its_threads() {
    let spec = Arc::new(multi_module_spec(&[2]));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (threads, want) in [(0, (cores / 2).max(1)), (3, 3)] {
        let server = Server::start(
            SstaConfig::paper(),
            Arc::new(MemoryBackend::new()),
            ServeOptions {
                workers: 2,
                engine: EngineOptions {
                    threads,
                    ..EngineOptions::default()
                },
                ..ServeOptions::default()
            },
        );
        let response = server
            .submit(AnalyzeRequest::new(
                Arc::clone(&spec),
                ScenarioSet::baseline(),
            ))
            .wait();
        let summary = response.outcome.summary().expect("completed");
        assert_eq!(summary.workers, want, "engine.threads = {threads}");
        assert_eq!(server.shutdown().lost(), 0);
    }
}
