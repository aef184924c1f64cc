//! Cooperative deadline checks for long-running kernels, scoped to the
//! thread that runs them.
//!
//! The durable-execution layer (`ssn-core::durable`) gives a run a
//! wall-clock budget; chunk boundaries check it between work items, but a
//! single RKF45 integration or MNA transient can run long past the deadline
//! on its own. This module is the hook those *inner loops* poll: a
//! thread-local deadline slot, armed by the layer that owns the budget and
//! checked with one thread-local load per iteration.
//!
//! The slot belongs to the thread that arms it. A run that spawns workers
//! hands its deadline over explicitly ([`deadline`] on the spawning thread,
//! [`arm_at`] on each worker — `ssn_core::faults::RunScope` does both), so
//! two runs in one process never see each other's deadline.
//!
//! Determinism contract: with no deadline armed, [`deadline_exceeded`]
//! returns `false` without reading the clock — kernels behave bit-for-bit
//! as before. With a deadline armed and not yet reached, kernels are also
//! unchanged; only the *cut itself* depends on wall time, and callers are
//! required to discard (never partially use) the work of a cancelled
//! kernel, which keeps results a function of the inputs alone.

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Restores the thread's previous deadline when dropped. Bound to the
/// thread that armed it.
#[must_use = "the deadline is disarmed when the guard drops"]
#[derive(Debug)]
pub struct DeadlineGuard {
    prev: Option<Instant>,
    _thread: PhantomData<*const ()>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.set(self.prev);
    }
}

/// Arms this thread's deadline `budget` from now; inner loops on this
/// thread observe it through [`deadline_exceeded`] until the returned guard
/// drops.
///
/// `None` arms "no deadline" explicitly (useful to mask an outer deadline
/// for a sub-computation that must run to completion).
pub fn arm(budget: Option<Duration>) -> DeadlineGuard {
    arm_at(budget.and_then(|b| Instant::now().checked_add(b)))
}

/// Arms this thread's deadline at the instant `deadline` (`None`: no
/// deadline) until the returned guard drops — how a worker takes over the
/// deadline its spawner captured with [`deadline`].
pub fn arm_at(deadline: Option<Instant>) -> DeadlineGuard {
    DeadlineGuard {
        prev: DEADLINE.replace(deadline),
        _thread: PhantomData,
    }
}

/// The deadline armed on this thread, if any.
pub fn deadline() -> Option<Instant> {
    DEADLINE.get()
}

/// `true` once this thread's armed deadline has passed. Unarmed: always
/// `false`, and the clock is never read.
#[inline]
pub fn deadline_exceeded() -> bool {
    DEADLINE.get().is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_never_exceeds() {
        assert!(!deadline_exceeded());
        assert_eq!(deadline(), None);
    }

    #[test]
    fn zero_budget_exceeds_immediately_and_guard_restores() {
        {
            let _g = arm(Some(Duration::ZERO));
            assert!(deadline_exceeded());
        }
        assert!(!deadline_exceeded());
    }

    #[test]
    fn generous_budget_does_not_fire() {
        let _g = arm(Some(Duration::from_secs(3600)));
        assert!(!deadline_exceeded());
    }

    #[test]
    fn nested_arms_restore_the_outer_deadline() {
        let _outer = arm(Some(Duration::ZERO));
        assert!(deadline_exceeded());
        {
            let _inner = arm(None);
            assert!(!deadline_exceeded(), "inner mask must hide the deadline");
        }
        assert!(deadline_exceeded(), "outer deadline restored");
    }

    #[test]
    fn a_deadline_reaches_another_thread_only_when_handed_over() {
        let _g = arm(Some(Duration::ZERO));
        let captured = deadline();
        std::thread::scope(|s| {
            assert!(!s.spawn(deadline_exceeded).join().unwrap());
            let handed = s.spawn(|| {
                let _w = arm_at(captured);
                deadline_exceeded()
            });
            assert!(handed.join().unwrap());
        });
    }
}
