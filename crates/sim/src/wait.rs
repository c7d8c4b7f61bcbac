//! Shared blocking-wait policy for wall-clock fabrics.
//!
//! A wall-clock backend cannot know whether the predicate a blocked task is
//! waiting on will be satisfied by a new frame (which wakes the node's
//! parker) or by another node mutating shared state (which wakes nobody), so
//! every inbox wait must eventually return and let the caller re-check.
//! `LocalFabric` waits in one place, the idle loop of a node none of whose
//! tasks is runnable. *How* it waits is a latency/CPU trade: spinning answers
//! in nanoseconds but burns a core; parking is free but pays a wakeup (and,
//! with a fixed slice, up to a whole slice of dead time on the paths no
//! notification covers).
//!
//! [`WaitPolicy`] encodes the standard three-phase escalation:
//!
//! 1. **Spin** — `spin` rounds of predicate polling with
//!    [`std::hint::spin_loop`] between checks. Covers the common case where
//!    the reply is already in flight from another core (a shared-memory
//!    null-RMI turns around in hundreds of nanoseconds).
//! 2. **Yield** — `yields` rounds of `yield_now`, giving an oversubscribed
//!    scheduler the chance to run the peer without a timed sleep.
//! 3. **Park** — timed waits with exponentially growing slices, from
//!    `park_initial` doubling up to `park_max`. Consecutive unproductive
//!    waits back off toward the cap; any productive wake resets the ladder.
//!    The default cap equals the reliable layer's initial retransmit
//!    timeout (`FaultModel::rto_initial`, 500 µs): past that point the
//!    protocol has its own timer driving progress, so sleeping longer only
//!    adds tail latency without saving meaningful CPU.
//!
//! The policy lives in `mpmd-sim` (the shared-types crate) rather than in
//! the fabric so every wall-clock backend — and any harness that wants to
//! serialize a machine description — uses one vocabulary. The simulated
//! kernel never consults it: virtual-time parks are exact by construction.
//!
//! [`Waiter`] is the pure state machine (no clocks, no threads): feed it
//! "nothing happened" episodes and it yields the next [`WaitPhase`];
//! tell it the wait was productive and it resets. Keeping it free of I/O
//! makes the escalation order and the backoff arithmetic unit-testable
//! without timing-sensitive assertions.

use crate::time::{us, Time};

/// Tunable three-phase wait escalation for wall-clock blocking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitPolicy {
    /// Predicate checks in the busy-spin phase (0 disables spinning).
    pub spin: u32,
    /// `yield_now` rounds after spinning (0 disables yielding).
    pub yields: u32,
    /// First timed-park slice, in nanoseconds.
    pub park_initial: Time,
    /// Timed-park slice cap, in nanoseconds; successive unproductive parks
    /// double toward it. Also bounds one blocking wait, so callers'
    /// re-check loops keep their liveness guarantee.
    pub park_max: Time,
}

impl Default for WaitPolicy {
    fn default() -> Self {
        WaitPolicy {
            spin: 300,
            yields: 8,
            park_initial: us(5.0),
            // = FaultModel::rto_initial's default: past the retransmit
            // deadline the reliable layer drives progress, not the parker.
            park_max: us(500.0),
        }
    }
}

impl WaitPolicy {
    /// A policy that never spins or yields: every wait parks immediately
    /// with fixed `slice` slices (useful to measure what the escalation
    /// buys, or to keep cores free).
    pub fn park_only(slice: Time) -> Self {
        WaitPolicy {
            spin: 0,
            yields: 0,
            park_initial: slice,
            park_max: slice,
        }
    }

    /// The right escalation for a host with `parallelism` schedulable CPUs.
    ///
    /// Spinning is a bet that the peer is *running on another core right
    /// now*; with one CPU that bet is always lost — worse, every spin
    /// iteration burns the quantum the peer needs to produce the very frame
    /// being waited for (measured on a 1-CPU host: ping-pong RTT grows
    /// *linearly* with the spin count, while a yield-first policy hands the
    /// core over in ~1.5 µs). So: no spinning and a deep yield ladder when
    /// alone, the default spin-first policy when truly parallel. The ladder
    /// is deep enough (256 yields ≈ tens of µs of grace) that a steady
    /// message stream keeps both ends in the yield phase — a peer that
    /// reaches the timed park right before a frame lands pays a futex wake
    /// on the critical path.
    pub fn auto_for(parallelism: usize) -> Self {
        if parallelism <= 1 {
            WaitPolicy {
                spin: 0,
                yields: 256,
                ..WaitPolicy::default()
            }
        } else {
            WaitPolicy::default()
        }
    }

    /// Basic sanity: a zero park slice would turn phase 3 into a busy loop.
    pub fn validate(&self) {
        assert!(self.park_initial > 0, "park_initial must be positive");
        assert!(
            self.park_max >= self.park_initial,
            "park_max below park_initial"
        );
    }
}

/// What a waiting thread should do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitPhase {
    /// Re-check the predicate after a [`std::hint::spin_loop`] pause.
    Spin,
    /// Re-check after `yield_now`.
    Yield,
    /// Park for at most this many nanoseconds, then re-check.
    Park(Time),
}

/// Wait state machine over a [`WaitPolicy`].
///
/// One `Waiter` belongs to one waiting thread (on `LocalFabric`, a node's)
/// and is consulted only by it. Each call to [`Waiter::next_phase`] advances
/// the escalation; [`Waiter::reset`] (on a productive wake — a frame arrived, a
/// deadline passed) rewinds to the spin phase and the initial park slice.
#[derive(Clone, Debug)]
pub struct Waiter {
    policy: WaitPolicy,
    /// Episodes consumed in the current escalation (spin + yield phases).
    step: u32,
    /// Next park slice; doubles per unproductive park up to the cap.
    slice: Time,
}

impl Waiter {
    pub fn new(policy: WaitPolicy) -> Self {
        policy.validate();
        Waiter {
            policy,
            step: 0,
            slice: policy.park_initial,
        }
    }

    pub fn policy(&self) -> &WaitPolicy {
        &self.policy
    }

    /// The next thing to do, given that the predicate is still false.
    pub fn next_phase(&mut self) -> WaitPhase {
        if self.step < self.policy.spin {
            self.step += 1;
            return WaitPhase::Spin;
        }
        if self.step < self.policy.spin + self.policy.yields {
            self.step += 1;
            return WaitPhase::Yield;
        }
        let slice = self.slice;
        self.slice = (self.slice.saturating_mul(2)).min(self.policy.park_max);
        WaitPhase::Park(slice)
    }

    /// The wait was productive (frame arrived / deadline passed): restart the
    /// escalation from the spin phase with the initial park slice.
    pub fn reset(&mut self) {
        self.step = 0;
        self.slice = self.policy.park_initial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_order_spin_yield_park() {
        let mut w = Waiter::new(WaitPolicy {
            spin: 2,
            yields: 2,
            park_initial: 100,
            park_max: 1_000,
        });
        assert_eq!(w.next_phase(), WaitPhase::Spin);
        assert_eq!(w.next_phase(), WaitPhase::Spin);
        assert_eq!(w.next_phase(), WaitPhase::Yield);
        assert_eq!(w.next_phase(), WaitPhase::Yield);
        assert_eq!(w.next_phase(), WaitPhase::Park(100));
    }

    #[test]
    fn park_slices_double_to_cap_and_stay() {
        let mut w = Waiter::new(WaitPolicy {
            spin: 0,
            yields: 0,
            park_initial: 100,
            park_max: 750,
        });
        assert_eq!(w.next_phase(), WaitPhase::Park(100));
        assert_eq!(w.next_phase(), WaitPhase::Park(200));
        assert_eq!(w.next_phase(), WaitPhase::Park(400));
        assert_eq!(w.next_phase(), WaitPhase::Park(750));
        assert_eq!(w.next_phase(), WaitPhase::Park(750));
    }

    #[test]
    fn reset_rewinds_the_ladder() {
        let mut w = Waiter::new(WaitPolicy {
            spin: 1,
            yields: 0,
            park_initial: 100,
            park_max: 1_000,
        });
        assert_eq!(w.next_phase(), WaitPhase::Spin);
        assert_eq!(w.next_phase(), WaitPhase::Park(100));
        assert_eq!(w.next_phase(), WaitPhase::Park(200));
        w.reset();
        assert_eq!(w.next_phase(), WaitPhase::Spin);
        assert_eq!(w.next_phase(), WaitPhase::Park(100));
    }

    #[test]
    fn park_only_policy_never_spins() {
        let mut w = Waiter::new(WaitPolicy::park_only(200_000));
        assert_eq!(w.next_phase(), WaitPhase::Park(200_000));
        assert_eq!(w.next_phase(), WaitPhase::Park(200_000));
    }

    #[test]
    fn auto_policy_never_spins_on_a_single_cpu() {
        let solo = WaitPolicy::auto_for(1);
        assert_eq!(solo.spin, 0, "spinning starves the peer when alone");
        assert!(solo.yields >= WaitPolicy::default().yields);
        solo.validate();
        assert_eq!(WaitPolicy::auto_for(8), WaitPolicy::default());
    }

    #[test]
    fn default_cap_matches_rto_initial() {
        // The documented coupling: park slices stop growing at the reliable
        // layer's default initial retransmit timeout.
        assert_eq!(
            WaitPolicy::default().park_max,
            crate::cost::FaultModel::new(0).rto_initial
        );
    }

    #[test]
    #[should_panic(expected = "park_max below park_initial")]
    fn inverted_bounds_rejected() {
        Waiter::new(WaitPolicy {
            spin: 0,
            yields: 0,
            park_initial: 200,
            park_max: 100,
        });
    }
}
