//! Cooperative cancellation of in-flight queries.
//!
//! A [`CancelToken`] is a cheaply cloneable handle around an atomic flag and
//! an optional deadline. The serving layer creates one per request, hands a
//! clone to the run's [`crate::ExecContext`]
//! ([`crate::ExecContext::with_cancel_token`]), and keeps the original on the
//! request's ticket. Execution checks the token *cooperatively* at its
//! natural preemption points — every morsel claim of the scan's parallel
//! section, every join-table build and every batch pull in the serial
//! loops — so [`CancelToken::cancel`] (or
//! a passed deadline) aborts a running query within roughly one morsel of
//! work, without killing threads or poisoning shared state. An aborted run
//! fails with `StorageError::Cancelled`, and [`crate::execute`] still returns
//! the metrics gathered so far beside it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Absolute deadline after which the token reads as cancelled even if
    /// nobody called [`CancelToken::cancel`]. Set once at construction.
    deadline: Option<Instant>,
}

/// A cloneable cooperative-cancellation handle shared between the party that
/// may abort a query and the execution pipeline running it.
///
/// All clones observe the same flag; the default token (no deadline, never
/// cancelled unless asked) costs one relaxed atomic load per check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh token with no deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that additionally reads as cancelled once `deadline`
    /// passes — the serving layer's lever for aborting requests whose
    /// deadline expires mid-execution without a watchdog thread.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation: every clone's [`CancelToken::is_cancelled`]
    /// reads `true` from now on. Idempotent.
    pub fn cancel(&self) {
        // ORDERING: Release pairs with the Acquire loads in `is_cancelled` /
        // `cancel_requested`, so an observer of the flag also observes every
        // write the cancelling thread made before raising it.
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether execution should stop: the flag was raised or the deadline
    /// (if any) has passed.
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in `cancel`.
        self.inner.cancelled.load(Ordering::Acquire) || self.deadline_passed()
    }

    /// Whether [`CancelToken::cancel`] was called explicitly — distinguishes
    /// a user-initiated abort from a deadline expiry, so the serving layer
    /// can report `Cancelled` vs `DeadlineExceeded`.
    pub fn cancel_requested(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in `cancel`.
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Whether the token has a deadline and it has passed.
    fn deadline_passed(&self) -> bool {
        self.inner
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(!token.cancel_requested());
        assert!(token.inner.deadline.is_none());
    }

    #[test]
    fn cancel_is_visible_to_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.cancel_requested());
        // Idempotent.
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn passed_deadline_reads_as_cancelled_without_an_explicit_cancel() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert!(token.deadline_passed());
        assert!(!token.cancel_requested());
    }

    #[test]
    fn future_deadline_does_not_fire_early() {
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(token.cancel_requested());
    }
}
