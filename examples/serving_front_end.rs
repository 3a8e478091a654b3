//! SSTA as a service: a front end submitting mixed traffic to an
//! in-process analysis server over one shared warm model store.
//!
//! The demo stages a deterministic burst while the server is paused —
//! a batch-priority corner sweep, a stream of interactive baseline
//! queries with deadlines, one request cancelled while queued, and one
//! request shed at admission because its deadline cannot survive the
//! backlog — then resumes the workers and prints each request's
//! terminal response as a serving-stats table. Every submission gets
//! exactly one response; the final snapshot shows zero lost requests
//! and the single-flight economy (identical modules extracted once,
//! everything else served from the shared store or coalesced).
//!
//! Run with `cargo run --release --example serving_front_end`.

use hier_ssta::core::{CorrelationMode, SstaConfig};
use hier_ssta::engine::{DesignSpec, MemoryBackend, Scenario, ScenarioSet};
use hier_ssta::netlist::{generators, DieRect};
use hier_ssta::serve::{AnalyzeRequest, Priority, ServeOptions, Server, Ticket};
use std::sync::Arc;
use std::time::Duration;

/// A two-instance adder SoC — small enough that the demo runs in
/// moments, real enough that extraction dominates a cold request.
fn soc_spec() -> Result<DesignSpec, Box<dyn std::error::Error>> {
    const WIDTH: usize = 6;
    let netlist = generators::ripple_carry_adder(WIDTH)?;
    let n_in = netlist.n_inputs();
    let n_out = netlist.n_outputs();
    let mut b = DesignSpec::builder(
        "serving-soc",
        DieRect {
            width: 80.0,
            height: 40.0,
        },
    );
    let m = b.add_module(netlist);
    let u0 = b.add_instance("u0", m, (0.0, 0.0))?;
    let u1 = b.add_instance("u1", m, (40.0, 0.0))?;
    for k in 0..n_out.min(n_in) {
        b.connect(u0, k, u1, k);
    }
    for k in 0..n_in {
        b.expose_input(vec![(u0, k)]);
    }
    for k in n_out.min(n_in)..n_in {
        b.expose_input(vec![(u1, k)]);
    }
    for k in 0..n_out {
        b.expose_output(u1, k);
    }
    Ok(b.finish()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = Arc::new(soc_spec()?);

    // Paused start: the whole burst is staged before any worker moves,
    // so the shed/cancel outcomes below are deterministic, not races.
    let server = Server::start(
        SstaConfig::paper(),
        Arc::new(MemoryBackend::new()),
        ServeOptions {
            workers: 2,
            service_estimate: Duration::from_millis(150),
            start_paused: true,
            ..ServeOptions::default()
        },
    );
    println!(
        "server up: {} workers, queue depth {}\n",
        server.worker_count(),
        server.queue_depth()
    );

    let mut traffic: Vec<(&str, Ticket)> = Vec::new();

    // A corner sweep rides the batch lane: it must not starve the
    // interactive queries submitted after it.
    let sweep = ScenarioSet::new()
        .with(Scenario::new("nominal"))
        .with(Scenario::new("global-only").with_mode(CorrelationMode::GlobalOnly));
    traffic.push((
        "sweep",
        server.submit(AnalyzeRequest::new(Arc::clone(&spec), sweep).with_priority(Priority::Batch)),
    ));

    // Interactive baseline queries, each with a generous deadline.
    for _ in 0..4 {
        traffic.push((
            "interactive",
            server.submit(
                AnalyzeRequest::new(Arc::clone(&spec), ScenarioSet::baseline())
                    .with_deadline(Duration::from_secs(30)),
            ),
        ));
    }

    // A client gives up while its request is still queued: the request
    // is dequeued, recognised as cancelled, and answered without
    // spending any service time.
    let doomed = server.submit(AnalyzeRequest::new(
        Arc::clone(&spec),
        ScenarioSet::baseline(),
    ));
    doomed.cancel();
    traffic.push(("cancelled-by-client", doomed));

    // Six requests are already queued on two workers; at ~150 ms each
    // the estimated wait dwarfs a 50 ms deadline, so admission control
    // sheds this one immediately instead of letting it time out inside.
    traffic.push((
        "tight-deadline",
        server.submit(
            AnalyzeRequest::new(Arc::clone(&spec), ScenarioSet::baseline())
                .with_deadline(Duration::from_millis(50)),
        ),
    ));

    server.resume();

    println!(
        "{:<20} {:>7} {:>18} {:>10} {:>11} {:>8} {:>9} {:>6}",
        "request", "id", "outcome", "wait [ms]", "serve [ms]", "extract", "coalesce", "hits"
    );
    for (label, ticket) in traffic {
        let response = ticket.wait();
        let s = &response.stats;
        // Where the models came from rides on the completed run's
        // summary; requests that never ran report zeros.
        let (extractions, coalesced, hits) = response.outcome.summary().map_or((0, 0, 0), |r| {
            (r.extractions, r.coalesced, r.memory_hits + r.store_hits)
        });
        println!(
            "{label:<20} {:>7} {:>18} {:>10.2} {:>11.2} {extractions:>8} {coalesced:>9} {hits:>6}",
            response.id.to_string(),
            response.outcome.label(),
            1e3 * s.queue_wait.as_secs_f64(),
            1e3 * s.service_time.as_secs_f64(),
        );
    }

    let snapshot = server.shutdown();
    println!("\nfinal snapshot: {snapshot}");
    assert_eq!(snapshot.lost(), 0, "every request got a terminal response");
    assert!(
        snapshot.extractions <= 1,
        "one distinct module fingerprint -> at most one extraction"
    );
    Ok(())
}
