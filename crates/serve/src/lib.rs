//! # ssta-serve — SSTA-as-a-service over the warm model store
//!
//! The DATE 2009 flow extracts each module's timing model **once** so
//! that analyses can be answered from the model library ever after —
//! the IP-vendor/integrator handoff. This crate is the serving layer
//! that story implies: a hand-rolled, in-process analysis server
//! (threads + condvars; no network, no async runtime) that drives
//! [`Engine::analyze_batch`](ssta_engine::Engine::analyze_batch)
//! against one shared warm [`ModelStore`](ssta_engine::ModelStore):
//!
//! * **Typed request/response** — [`AnalyzeRequest`] (spec plus a
//!   [`Workload`] — a named scenario set, or a corner-grid mega-sweep
//!   served by
//!   [`Engine::analyze_sweep`](ssta_engine::Engine::analyze_sweep) —
//!   plus deadline and priority) in, [`AnalyzeResponse`] (timing
//!   results + per-request [`ServeStats`]) out, connected by a
//!   [`Ticket`];
//! * **Admission control + backpressure** — a bounded two-lane queue:
//!   overflow answers [`Rejection::QueueFull`] instead of buffering
//!   without bound, and a request whose estimated wait already exceeds
//!   its deadline is [`Rejection::Shed`] before burning any CPU. A
//!   batch-courtesy quota keeps one mega-sweep from starving
//!   interactive traffic (and vice versa);
//! * **Cooperative cancellation** — each request carries a
//!   [`CancelToken`](ssta_core::CancelToken) (deadline-armed when the
//!   request has a budget) that the engine pipeline polls at stage
//!   checkpoints. Cancellation never kills shared work: a module
//!   extraction the request *leads* completes and is published for
//!   everyone else; one it merely *follows* is detached from
//!   immediately;
//! * **Observability** — per-request queue-wait/service-time
//!   accounting ([`ServeStats`]; a completed request's model sources
//!   ride on [`Outcome::summary`]) and a server-level [`ServerSnapshot`]
//!   whose [`lost()`](ServerSnapshot::lost) is zero on every quiesced
//!   server: each submitted request gets exactly one terminal response
//!   (completed, rejected, cancelled or failed), even when its analysis
//!   panics.
//!
//! Workers each own an [`Engine`](ssta_engine::Engine) over a clone of
//! the shared backend and all share one
//! [`FlightGroup`](ssta_engine::FlightGroup), so identical requests
//! landing on different workers still coalesce to a single extraction.
//! By default the workers split the cores between them: each engine
//! gets the available parallelism divided by the worker count (see
//! [`ServeOptions::engine`]).
//!
//! # Example
//!
//! ```
//! use ssta_core::SstaConfig;
//! use ssta_engine::{DesignSpec, MemoryBackend, ScenarioSet};
//! use ssta_netlist::{generators, DieRect};
//! use ssta_serve::{AnalyzeRequest, ServeOptions, Server};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = generators::ripple_carry_adder(1)?;
//! let mut b = DesignSpec::builder("one", DieRect { width: 40.0, height: 30.0 });
//! let m = b.add_module(netlist);
//! let u0 = b.add_instance("u0", m, (0.0, 0.0))?;
//! for k in 0..3 {
//!     b.expose_input(vec![(u0, k)]);
//! }
//! for k in 0..2 {
//!     b.expose_output(u0, k);
//! }
//! let spec = Arc::new(b.finish()?);
//!
//! let server = Server::start(
//!     SstaConfig::paper(),
//!     Arc::new(MemoryBackend::new()),
//!     ServeOptions::default(),
//! );
//! let ticket = server.submit(AnalyzeRequest::new(spec, ScenarioSet::baseline()));
//! let response = ticket.wait();
//! assert!(response.outcome.is_completed());
//!
//! let snapshot = server.shutdown();
//! assert_eq!(snapshot.completed, 1);
//! assert_eq!(snapshot.lost(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod request;
mod server;
mod stats;
mod ticket;

pub use request::{
    AnalyzeRequest, AnalyzeResponse, Outcome, Priority, Rejection, RequestId, ServeStats, Workload,
};
pub use server::{ServeOptions, Server};
pub use stats::ServerSnapshot;
pub use ticket::Ticket;
