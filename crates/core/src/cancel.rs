//! Cooperative cancellation for long-running analyses.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between the
//! party that wants work stopped (a serving front-end whose client went
//! away, a deadline that expired) and the code doing the work (the
//! engine pipeline, which polls the token at stage checkpoints). Like
//! the helpers in [`ssta_math::parallel`], the token is purely
//! cooperative: it never interrupts a computation mid-kernel, it only
//! makes the *next* checkpoint return [`Cancelled`] — so results that
//! do complete remain bit-deterministic, and shared work (a
//! single-flight extraction other requests wait on) is never killed
//! under a waiter.
//!
//! Tokens optionally carry a **deadline**: a fixed instant after which
//! [`is_cancelled`](CancelToken::is_cancelled) reports `true` without
//! anyone calling [`cancel`](CancelToken::cancel). This is how a
//! serving layer turns a per-request latency budget into an automatic
//! mid-pipeline stop instead of CPU burned on an answer nobody will
//! read.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error a cancelled checkpoint reports.
///
/// Deliberately payload-free: the party that cancelled knows why; the
/// worker only needs to unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operation cancelled")
    }
}

impl std::error::Error for Cancelled {}

#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared, cooperative cancellation handle.
///
/// Cloning is cheap and every clone observes the same state: one side
/// calls [`cancel`](Self::cancel) (or lets the deadline pass), the
/// other polls [`checkpoint`](Self::checkpoint) between units of work.
///
/// # Example
///
/// ```
/// use ssta_core::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(token.checkpoint().is_ok());
/// token.cancel();
/// assert!(token.checkpoint().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is
    /// called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally cancels itself once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that cancels itself `budget` from now.
    pub fn with_timeout(budget: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested or the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The token's deadline, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left until the deadline (`None` when the token has no
    /// deadline; `Some(ZERO)` once it passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The cooperative stop point: `Ok(())` to keep working,
    /// [`Err(Cancelled)`](Cancelled) to unwind.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] iff [`is_cancelled`](Self::is_cancelled).
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.checkpoint().is_ok());
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.checkpoint(), Err(Cancelled));
    }

    #[test]
    fn deadline_expires_without_explicit_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));

        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.remaining().expect("has deadline") > Duration::from_secs(3500));
    }

    #[test]
    fn explicit_cancel_beats_a_future_deadline() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        t.cancel();
        assert!(t.is_cancelled());
    }
}
