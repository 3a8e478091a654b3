//! Single-flight deduplication of in-flight module resolutions.
//!
//! When concurrent requests in a serving worker pool sharing a
//! [`FlightGroup`](crate::FlightGroup) race on the same
//! `(module, fingerprint)` key, exactly one of them — the *leader* —
//! performs the work (store lookup and, on a miss, characterization +
//! extraction); the rest block until the leader finishes and share its
//! outcome. This is the in-process analogue of the in-flight request
//! dedup a serving front-end needs: without it, N identical requests
//! would extract the same module N times, precisely the waste the
//! extracted-model reuse story exists to avoid. Within one call the
//! planner has already collapsed scenarios into groups that never share
//! a fingerprint, so coalescing only happens across engines or calls.
//!
//! The table deduplicates *concurrency*, not storage (the session cache
//! and the persistent library handle reuse across calls): a flight's
//! entry is removed the moment its leader publishes the outcome — or
//! unwinds, publishing a failure — so the table stays empty at rest and
//! can safely outlive any one call.
//!
//! Followers are **cancel-aware**: a waiter whose [`CancelToken`] fires
//! detaches with [`EngineError::Cancelled`] instead of blocking until
//! the leader finishes — and the leader, who may be serving other
//! waiters, is never interrupted by a follower's cancellation.

use crate::error::EngineError;
use ssta_core::{CancelToken, TimingModel};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// The shared outcome of one flight. Errors are `Arc`-shared because
/// every waiter jointly owns the leader's failure.
type FlightOutcome = Result<Arc<TimingModel>, Arc<EngineError>>;

/// One in-flight resolution: followers park on `ready` until the leader
/// publishes into `outcome`.
#[derive(Debug, Default)]
struct Flight {
    outcome: Mutex<Option<FlightOutcome>>,
    ready: Condvar,
}

/// How often a parked follower wakes to re-check its cancel token. The
/// condvar notification arrives immediately on publication; this bound
/// only caps how stale a *cancellation* can go unnoticed.
const FOLLOWER_POLL: Duration = Duration::from_millis(2);

/// A single-flight table keyed by module fingerprint.
#[derive(Debug, Default)]
pub(crate) struct SingleFlight {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl SingleFlight {
    /// Resolves `key`, guaranteeing `work` runs at most once per key
    /// *at a time* no matter how many callers race on it. Concurrent
    /// callers block until the leader's `work` completes and then share
    /// its outcome. Returns the outcome plus whether *this* caller led
    /// the flight (ran `work`).
    ///
    /// The leader gets the original error back; waiters get it wrapped
    /// in [`EngineError::Flight`], marking the failure as shared. A
    /// waiter whose `cancel` token fires detaches with
    /// [`EngineError::Cancelled`] without disturbing the flight. The
    /// leader ignores `cancel` once `work` has started — other waiters
    /// may depend on its result — so cancellation of a leader is the
    /// caller's responsibility via checkpoints *inside* `work`.
    ///
    /// Entries retire on publication: callers arriving after the
    /// outcome is published start a fresh flight, so completed results
    /// are never served stale from this table — cross-flight reuse is
    /// the session cache's and model store's job.
    pub(crate) fn resolve(
        &self,
        key: &str,
        cancel: &CancelToken,
        work: impl FnOnce() -> Result<Arc<TimingModel>, EngineError>,
    ) -> (Result<Arc<TimingModel>, EngineError>, bool) {
        let (flight, leading) = {
            let mut flights = self.flights.lock().expect("flight table lock");
            match flights.get(key) {
                Some(existing) => (Arc::clone(existing), false),
                None => {
                    let fresh = Arc::new(Flight::default());
                    flights.insert(key.to_owned(), Arc::clone(&fresh));
                    (fresh, true)
                }
            }
        };
        // The map lock is released before running/waiting on the flight,
        // so a slow flight never blocks resolutions of *other* keys.
        if leading {
            // Armed before `work` runs, so a leader that unwinds still
            // publishes (a failure), retires and wakes its followers.
            let mut retire = Retire {
                table: self,
                key,
                flight: &flight,
                outcome: None,
            };
            let result = work();
            // Waiters share a structural copy of an error; the leader
            // keeps the original (with its io::Error intact).
            retire.outcome = Some(match &result {
                Ok(model) => Ok(Arc::clone(model)),
                Err(e) => Err(Arc::new(e.shared_copy())),
            });
            drop(retire);
            (result, true)
        } else {
            let mut outcome = flight.outcome.lock().expect("flight outcome lock");
            loop {
                if let Some(published) = outcome.as_ref() {
                    let shared = match published {
                        Ok(model) => Ok(Arc::clone(model)),
                        Err(e) => Err(EngineError::Flight(Arc::clone(e))),
                    };
                    return (shared, false);
                }
                if cancel.is_cancelled() {
                    // Detach: the flight continues for everyone else.
                    return (Err(EngineError::Cancelled), false);
                }
                outcome = flight
                    .ready
                    .wait_timeout(outcome, FOLLOWER_POLL)
                    .expect("flight outcome lock")
                    .0;
            }
        }
    }
}

/// Publishes a leader's outcome, retires its flight and wakes the
/// followers when dropped — on return and on unwind alike. Without an
/// outcome (the leader's `work` panicked) it publishes a shared
/// failure, so no caller ever waits on a dead flight.
struct Retire<'a> {
    table: &'a SingleFlight,
    key: &'a str,
    flight: &'a Flight,
    outcome: Option<FlightOutcome>,
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(Arc::new(EngineError::Unavailable {
                reason: "the module resolution leading this flight panicked".into(),
            }))
        });
        // Never panic here, not even on a poisoned lock: this may run
        // during an unwind.
        *self
            .flight
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        // Retire the entry so the next caller re-resolves through the
        // caches instead of reading a stale memoized outcome.
        self.table
            .flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(self.key);
        self.flight.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    fn dummy_model() -> Arc<TimingModel> {
        use ssta_core::{ExtractOptions, ModuleContext, SstaConfig};
        let netlist = ssta_netlist::generators::ripple_carry_adder(1).expect("netlist");
        let ctx = ModuleContext::characterize(netlist, &SstaConfig::paper()).expect("ctx");
        Arc::new(
            ctx.extract_model(&ExtractOptions::default())
                .expect("model"),
        )
    }

    #[test]
    fn racing_callers_run_the_work_exactly_once() {
        let flights = SingleFlight::default();
        let executed = AtomicUsize::new(0);
        let led_count = AtomicUsize::new(0);
        let model = dummy_model();
        let live = CancelToken::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (outcome, led) = flights.resolve("k", &live, || {
                        executed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(10));
                        Ok(Arc::clone(&model))
                    });
                    assert!(outcome.is_ok());
                    if led {
                        led_count.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        // With auto-retiring entries, late arrivals (after the leader
        // published) start fresh flights — so the work may run more
        // than once across the whole race, but every *concurrent*
        // cluster coalesces: never once per caller.
        let runs = executed.load(Ordering::SeqCst);
        assert!((1..=8).contains(&runs));
        assert_eq!(
            led_count.load(Ordering::SeqCst),
            runs,
            "every execution had exactly one leader"
        );
    }

    #[test]
    fn followers_coalesce_onto_a_parked_leader() {
        let flights = SingleFlight::default();
        let executed = AtomicUsize::new(0);
        let model = dummy_model();
        let live = CancelToken::new();
        let leader_in = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (outcome, led) = flights.resolve("k", &live, || {
                    executed.fetch_add(1, Ordering::SeqCst);
                    leader_in.wait(); // followers join while we're in-flight
                    std::thread::sleep(Duration::from_millis(30));
                    Ok(Arc::clone(&model))
                });
                assert!(led);
                assert!(outcome.is_ok());
            });
            leader_in.wait();
            for _ in 0..4 {
                s.spawn(|| {
                    let (outcome, led) = flights.resolve("k", &live, || {
                        executed.fetch_add(1, Ordering::SeqCst);
                        Ok(Arc::clone(&model))
                    });
                    assert!(!led, "joined mid-flight: must follow");
                    assert!(outcome.is_ok());
                });
            }
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1, "one extraction total");
    }

    #[test]
    fn distinct_keys_fly_separately() {
        let flights = SingleFlight::default();
        let executed = AtomicUsize::new(0);
        let model = dummy_model();
        let live = CancelToken::new();
        for key in ["a", "b", "a"] {
            let (outcome, _) = flights.resolve(key, &live, || {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok(Arc::clone(&model))
            });
            assert!(outcome.is_ok());
        }
        assert_eq!(
            executed.load(Ordering::SeqCst),
            3,
            "sequential resolutions each lead a fresh flight"
        );
    }

    #[test]
    fn waiters_share_the_leaders_failure() {
        let flights = SingleFlight::default();
        let live = CancelToken::new();
        let leader_in = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (first, led) = flights.resolve("k", &live, || {
                    leader_in.wait();
                    std::thread::sleep(Duration::from_millis(20));
                    Err(EngineError::Spec {
                        reason: "boom".into(),
                    })
                });
                assert!(led);
                assert!(
                    matches!(first, Err(EngineError::Spec { .. })),
                    "leader keeps the original"
                );
            });
            leader_in.wait();
            let (second, led) = flights.resolve("k", &live, || unreachable!("joined mid-flight"));
            assert!(!led);
            assert!(
                matches!(second, Err(EngineError::Flight(_))),
                "waiters see the shared copy"
            );
        });
    }

    #[test]
    fn a_panicking_leader_fails_its_followers_and_retires_its_flight() {
        let flights = SingleFlight::default();
        let model = dummy_model();
        let live = CancelToken::new();
        // Every caller after the leader holds a deadline, so a wedged
        // key fails this test with Cancelled followers instead of a hang.
        let deadline = CancelToken::with_timeout(Duration::from_secs(2));
        let leader_in = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                flights.resolve("k", &live, || {
                    leader_in.wait();
                    // Die only once the follower holds the flight: the
                    // table's entry plus the leader's and the
                    // follower's handles.
                    while Arc::strong_count(&flights.flights.lock().expect("table")["k"]) < 3 {
                        std::thread::yield_now();
                    }
                    panic!("leader dies mid-flight");
                })
            });
            leader_in.wait();
            let (outcome, led) =
                flights.resolve("k", &deadline, || unreachable!("joined mid-flight"));
            assert!(!led);
            assert!(
                matches!(outcome, Err(EngineError::Flight(_))),
                "a parked follower gets the shared failure"
            );
            assert!(leader.join().is_err(), "the leader panicked");
        });
        // The next caller leads a fresh flight.
        let (outcome, led) = flights.resolve("k", &deadline, || Ok(Arc::clone(&model)));
        assert!(led, "the dead flight was retired");
        assert!(outcome.is_ok());
    }

    #[test]
    fn cancelled_follower_detaches_without_killing_the_leader() {
        let flights = SingleFlight::default();
        let model = dummy_model();
        let live = CancelToken::new();
        let doomed = CancelToken::new();
        let leader_in = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (outcome, led) = flights.resolve("k", &live, || {
                    leader_in.wait();
                    std::thread::sleep(Duration::from_millis(60));
                    Ok(Arc::clone(&model))
                });
                assert!(led);
                assert!(outcome.is_ok(), "leader unaffected by follower cancel");
            });
            leader_in.wait();
            doomed.cancel();
            let start = Instant::now();
            let (outcome, led) =
                flights.resolve("k", &doomed, || unreachable!("joined mid-flight"));
            assert!(!led);
            assert!(
                matches!(outcome, Err(EngineError::Cancelled)),
                "cancelled follower detaches"
            );
            assert!(
                start.elapsed() < Duration::from_millis(50),
                "detach must not wait out the leader"
            );
        });
    }
}
