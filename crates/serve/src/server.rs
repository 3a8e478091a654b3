//! The server: a worker pool over shared engines, driven by the
//! bounded submission queue.

use crate::queue::{Job, SubmitQueue};
use crate::request::{
    AnalyzeRequest, AnalyzeResponse, Outcome, Rejection, RequestId, ServeStats, Workload,
};
use crate::stats::{Counters, ServerSnapshot};
use crate::ticket::{ResponseSlot, Ticket};
use ssta_core::{CancelToken, SstaConfig};
use ssta_engine::{Engine, EngineError, EngineOptions, FlightGroup, StorageBackend};
use ssta_math::parallel::effective_threads;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads, each owning one [`Engine`] over the shared
    /// backend; `0` uses the available parallelism.
    pub workers: usize,
    /// Bound on queued (admitted, not yet running) requests across both
    /// priority lanes; submissions beyond it are rejected
    /// [`QueueFull`](Rejection::QueueFull).
    pub queue_depth: usize,
    /// Consecutive interactive dequeues after which a waiting batch
    /// request goes ahead of further interactive ones — the
    /// anti-starvation quota.
    pub batch_courtesy: usize,
    /// Prior for the per-request service-time estimate before any
    /// request completed; thereafter an EWMA of measured service times.
    /// Drives load shedding: a request whose estimated wait exceeds its
    /// deadline is refused at admission.
    pub service_estimate: Duration,
    /// Starts the server with dequeuing paused (submissions are still
    /// admitted) until [`Server::resume`] — lets tests and benches
    /// stage a queue deterministically before any work begins.
    pub start_paused: bool,
    /// Options for each worker's engine. `engine.threads == 0` gives
    /// each worker the available parallelism divided among the workers
    /// (at least 1), so the pool and the per-request fan-outs (a
    /// request's extraction groups and module extractions) share one
    /// thread budget instead of multiplying it; any other value is used
    /// as given. A request's design analyses run on its worker's
    /// thread, and extraction's criticality sweep runs outside that
    /// budget (see [`EngineOptions::threads`]).
    pub engine: EngineOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_depth: 64,
            batch_courtesy: 4,
            service_estimate: Duration::from_millis(50),
            start_paused: false,
            engine: EngineOptions::default(),
        }
    }
}

#[derive(Debug)]
struct Shared {
    queue: SubmitQueue,
    counters: Counters,
    next_id: AtomicU64,
    /// A handle on the shared backend stack, held only to read its
    /// [`health`](StorageBackend::health) into snapshots — retries,
    /// quarantines and breaker state are store-wide facts the request
    /// counters cannot see.
    store_view: Box<dyn StorageBackend>,
}

/// An in-process SSTA analysis server.
///
/// [`Server::start`] spawns a pool of worker threads, each owning an
/// [`Engine`] over a clone of the shared storage backend (hand an
/// `Arc`-wrapped backend in to share one store) and all sharing one
/// [`FlightGroup`], so identical modules extracting concurrently on
/// different workers coalesce onto one extraction. [`Server::submit`]
/// is the whole client API: admission control answers immediately
/// (rejections are terminal responses too), admitted requests flow
/// queue → worker → [`Ticket::wait`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool. `backend` is cloned into every worker's
    /// engine: pass `Arc<MemoryBackend>` (or any shared backend) so all
    /// workers serve one store.
    pub fn start<B>(config: SstaConfig, backend: B, options: ServeOptions) -> Self
    where
        B: StorageBackend + Clone + 'static,
    {
        let worker_count = effective_threads(options.workers);
        let shared = Arc::new(Shared {
            queue: SubmitQueue::new(
                options.queue_depth,
                options.batch_courtesy,
                worker_count,
                options.service_estimate,
                options.start_paused,
            ),
            counters: Counters::default(),
            next_id: AtomicU64::new(0),
            store_view: Box::new(backend.clone()),
        });
        let flights = FlightGroup::new();
        // The pool is the first fan-out level: split the cores across
        // it rather than giving every worker all of them.
        let mut engine_options = options.engine;
        if engine_options.threads == 0 {
            engine_options.threads = (effective_threads(0) / worker_count).max(1);
        }
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let engine = Engine::with_options(config.clone(), engine_options.clone())
                    .with_backend(backend.clone())
                    .with_flight_group(flights.clone());
                std::thread::Builder::new()
                    .name(format!("ssta-serve-{index}"))
                    .spawn(move || worker_loop(index, engine, &shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Submits a request. Never blocks and always returns a ticket:
    /// requests refused by admission control (queue full, shed) get
    /// their [`Rejected`](Outcome::Rejected) terminal response before
    /// this returns.
    pub fn submit(&self, request: AnalyzeRequest) -> Ticket {
        let id = RequestId(self.shared.next_id.fetch_add(1, Ordering::SeqCst));
        self.shared.counters.add(&self.shared.counters.submitted, 1);
        let cancel = match request.deadline {
            // The budget runs from submission: queue wait counts
            // against it, so an admitted request that waits too long
            // self-cancels at the worker's first checkpoint.
            Some(budget) => CancelToken::with_timeout(budget),
            None => CancelToken::new(),
        };
        let slot = ResponseSlot::new();
        let ticket = Ticket::new(id, cancel.clone(), Arc::clone(&slot));
        let job = Job {
            id,
            request,
            cancel,
            slot,
            submitted: Instant::now(),
        };
        if let Err(rejected) = self.shared.queue.admit(job) {
            let (job, rejection) = *rejected;
            let counter = match rejection {
                Rejection::QueueFull { .. } => &self.shared.counters.rejected_queue_full,
                Rejection::Shed { .. } => &self.shared.counters.shed,
            };
            self.shared.counters.add(counter, 1);
            job.slot.fill(AnalyzeResponse {
                id,
                outcome: Outcome::Rejected(rejection),
                stats: ServeStats {
                    sequence: self.shared.counters.next_sequence(),
                    ..ServeStats::default()
                },
            });
        }
        ticket
    }

    /// Lifts a [`start_paused`](ServeOptions::start_paused) hold.
    pub fn resume(&self) {
        self.shared.queue.resume();
    }

    /// Requests currently queued (admitted, not yet on a worker).
    pub fn queued(&self) -> usize {
        self.shared.queue.queued()
    }

    /// The configured queue bound.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Worker threads serving this server.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// A point-in-time aggregate of everything served so far, including
    /// the shared backend stack's health (retries, quarantines,
    /// breaker state).
    pub fn snapshot(&self) -> ServerSnapshot {
        self.shared
            .counters
            .snapshot(self.shared.store_view.health())
    }

    /// Graceful shutdown: workers drain every queued request (each
    /// still gets its terminal response — queued-but-cancelled ones
    /// resolve as [`Cancelled`](Outcome::Cancelled)), then exit. Returns
    /// the final snapshot, on which
    /// [`lost()`](ServerSnapshot::lost) is zero by construction.
    pub fn shutdown(self) -> ServerSnapshot {
        self.shared.queue.close();
        for worker in self.workers {
            worker.join().expect("serve worker panicked");
        }
        self.shared
            .counters
            .snapshot(self.shared.store_view.health())
    }
}

fn worker_loop(index: usize, mut engine: Engine, shared: &Shared) {
    while let Some(job) = shared.queue.next_job() {
        let queue_wait = job.submitted.elapsed();
        // First checkpoint before any work: a request cancelled (or
        // deadline-expired) while queued costs zero service CPU — and
        // reports exactly that.
        let (result, service_time) = if job.cancel.is_cancelled() {
            (Err(EngineError::Cancelled), Duration::ZERO)
        } else {
            let started = Instant::now();
            // A panic inside the analysis fails this request only: the
            // worker answers it and keeps serving. (A panicking flight
            // leader has already published the same failure to its
            // followers and retired its flight.)
            let result = panic::catch_unwind(AssertUnwindSafe(|| match &job.request.workload {
                Workload::Scenarios(scenarios) => engine
                    .analyze_batch_cancellable(&job.request.spec, scenarios, &job.cancel)
                    .map(|run| Outcome::Completed(Box::new(run))),
                Workload::Sweep { grid, options } => engine
                    .analyze_sweep_cancellable(&job.request.spec, grid, options, &job.cancel)
                    .map(|summary| Outcome::Completed(Box::new(summary.into()))),
            }))
            .unwrap_or_else(|payload| {
                Err(EngineError::Unavailable {
                    reason: format!("the analysis panicked: {}", panic_message(&*payload)),
                })
            });
            (result, started.elapsed())
        };

        let counters = &shared.counters;
        let outcome = match result {
            Ok(outcome) => {
                let summary = outcome.summary().expect("engine success is completed");
                counters.add(&counters.completed, 1);
                counters.add(&counters.extractions, summary.extractions as u64);
                counters.add(&counters.coalesced, summary.coalesced as u64);
                counters.add(&counters.memory_hits, summary.memory_hits as u64);
                counters.add(&counters.store_hits, summary.store_hits as u64);
                counters.add(&counters.degraded, summary.store_degraded as u64);
                outcome
            }
            Err(e) if e.is_cancelled() => {
                counters.add(&counters.cancelled, 1);
                Outcome::Cancelled
            }
            Err(e) => {
                counters.add(&counters.failed, 1);
                Outcome::Failed(e)
            }
        };
        // Only completed runs feed the shed estimator: cancelled runs
        // measure how fast we *stopped*, not how long service takes.
        shared
            .queue
            .job_done(outcome.is_completed().then_some(service_time));
        counters.add(&counters.queue_wait_nanos, queue_wait.as_nanos() as u64);
        counters.add(&counters.service_nanos, service_time.as_nanos() as u64);

        let stats = ServeStats {
            queue_wait,
            service_time,
            sequence: counters.next_sequence(),
            worker: index,
        };
        job.slot.fill(AnalyzeResponse {
            id: job.id,
            outcome,
            stats,
        });
    }
}

/// The message a panic was raised with, if it carried one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}
