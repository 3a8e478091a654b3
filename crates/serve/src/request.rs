//! The typed request/response surface of the serving layer.

use ssta_engine::{
    BatchRun, CornerGrid, DesignSpec, EngineError, ScenarioSet, SweepOptions, SweepSummary,
};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A server-assigned request identifier, unique for the server's
/// lifetime and monotone in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Scheduling class of a request. The queue is two-lane: interactive
/// requests are preferred, batch requests are guaranteed forward
/// progress via a courtesy quota (see
/// [`ServeOptions::batch_courtesy`](crate::ServeOptions::batch_courtesy)) —
/// so one mega-sweep can neither starve small requests nor be starved
/// by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// A latency-sensitive request (the default): small specs, single
    /// scenarios, a designer waiting at a prompt.
    #[default]
    Interactive,
    /// A throughput-oriented request: large scenario sweeps that should
    /// yield to interactive traffic.
    Batch,
}

impl Priority {
    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// What one request asks the engine to run.
///
/// Both workloads run the engine's one planner and executor, which
/// collapses scenarios by extraction fingerprint up front. A named
/// scenario set keeps every full result; a corner grid
/// ([`Engine::analyze_sweep`](ssta_engine::Engine::analyze_sweep)) is
/// materialized lazily and keeps compact per-corner records instead.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A [`ScenarioSet`] served by
    /// [`Engine::analyze_batch`](ssta_engine::Engine::analyze_batch);
    /// resolves to [`Outcome::Completed`].
    Scenarios(ScenarioSet),
    /// A [`CornerGrid`] served by
    /// [`Engine::analyze_sweep`](ssta_engine::Engine::analyze_sweep);
    /// resolves to [`Outcome::Completed`] with the sweep's summary as
    /// its stats and its retained results (none when results stream)
    /// as its scenarios.
    Sweep {
        /// The corner grid, materialized lazily on the worker.
        grid: CornerGrid,
        /// Sweep tuning (result retention).
        options: SweepOptions,
    },
}

/// One analysis request: a design spec plus a [`Workload`], with an
/// optional latency budget and a scheduling class.
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// The design to analyze. `Arc`-shared so many requests (and the
    /// worker that serves each) reference one spec without copying.
    pub spec: Arc<DesignSpec>,
    /// What to run over the spec.
    pub workload: Workload,
    /// Latency budget measured from submission. Admission control sheds
    /// the request up front when the estimated queue wait already
    /// exceeds it; past admission it becomes a deadline on a
    /// [`CancelToken`](ssta_core::CancelToken) that stops the pipeline
    /// at the next checkpoint once it expires.
    pub deadline: Option<Duration>,
    /// Scheduling class.
    pub priority: Priority,
}

impl AnalyzeRequest {
    /// An interactive request with no deadline.
    pub fn new(spec: Arc<DesignSpec>, scenarios: ScenarioSet) -> Self {
        AnalyzeRequest {
            spec,
            workload: Workload::Scenarios(scenarios),
            deadline: None,
            priority: Priority::default(),
        }
    }

    /// A corner-grid mega-sweep request. Defaults to
    /// [`Priority::Batch`]: a thousand-corner sweep is throughput
    /// traffic and should yield to interactive requests (override with
    /// [`with_priority`](Self::with_priority) if not).
    pub fn sweep(spec: Arc<DesignSpec>, grid: CornerGrid, options: SweepOptions) -> Self {
        AnalyzeRequest {
            spec,
            workload: Workload::Sweep { grid, options },
            deadline: None,
            priority: Priority::Batch,
        }
    }

    /// Sets the latency budget.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Sets the scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejection {
    /// The bounded queue was at capacity. Backpressure, not failure:
    /// the client should retry later (or with backoff).
    QueueFull {
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// The estimated queue wait already exceeded the request's latency
    /// budget, so serving it would have burned CPU on an answer that
    /// arrives too late.
    Shed {
        /// The server's wait estimate at admission time.
        estimated_wait: Duration,
        /// The request's budget it was measured against.
        deadline: Duration,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::QueueFull { depth } => write!(f, "queue full (depth {depth})"),
            Rejection::Shed {
                estimated_wait,
                deadline,
            } => write!(
                f,
                "shed: estimated wait {:.1} ms exceeds deadline {:.1} ms",
                1e3 * estimated_wait.as_secs_f64(),
                1e3 * deadline.as_secs_f64()
            ),
        }
    }
}

/// The terminal outcome of one request. Every submitted request gets
/// exactly one.
#[derive(Debug)]
pub enum Outcome {
    /// The analysis ran to completion.
    Completed(Box<BatchRun>),
    /// Admission control refused the request before it was queued.
    Rejected(Rejection),
    /// The request was cancelled — explicitly via
    /// [`Ticket::cancel`](crate::Ticket::cancel) or by its expired
    /// deadline — before the analysis completed.
    Cancelled,
    /// The analysis itself failed.
    Failed(EngineError),
}

impl Outcome {
    /// Whether the analysis ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed(_))
    }

    /// The completed run, if any.
    pub fn run(&self) -> Option<&BatchRun> {
        match self {
            Outcome::Completed(run) => Some(run),
            _ => None,
        }
    }

    /// The completed call's accounting, for either workload.
    pub fn summary(&self) -> Option<&SweepSummary> {
        self.run().map(|r| &r.stats)
    }

    /// Short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed(_) => "completed",
            Outcome::Rejected(Rejection::QueueFull { .. }) => "rejected:queue_full",
            Outcome::Rejected(Rejection::Shed { .. }) => "rejected:shed",
            Outcome::Cancelled => "cancelled",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// Per-request serving accounting, attached to every terminal response.
/// Where the request's models came from is the engine's business: a
/// completed response carries it in
/// [`outcome.summary()`](Outcome::summary).
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Time between submission and a worker picking the request up
    /// (zero for rejected requests).
    pub queue_wait: Duration,
    /// Time the worker spent serving the request (zero for rejected
    /// requests; for cancelled requests, the time burned before the
    /// pipeline stopped).
    pub service_time: Duration,
    /// Server-wide completion sequence number: response `k` was the
    /// `k`-th terminal response the server produced. Exposes the actual
    /// service order for fairness assertions.
    pub sequence: u64,
    /// Index of the worker that served the request (0 for rejections,
    /// which never reach a worker).
    pub worker: usize,
}

/// The terminal response to one [`AnalyzeRequest`].
#[derive(Debug)]
pub struct AnalyzeResponse {
    /// The id [`Server::submit`](crate::Server::submit) assigned.
    pub id: RequestId,
    /// What happened.
    pub outcome: Outcome,
    /// What it cost.
    pub stats: ServeStats,
}
