//! Schedule exploration: a pluggable oracle over the engine's legal
//! nondeterminism, with recorded, replayable, shrinkable decision traces.
//!
//! The scheduling loop (`engine::decide`) is deterministic, but several of
//! its choices are *don't-care* points — places where the design claims any
//! legal pick yields the same simulation results:
//!
//! * **Node tie-breaks** — among runnable nodes whose virtual clocks are all
//!   equal to the minimum, the baseline picks the lowest index. Nodes
//!   interact only through messages with positive delay, and message
//!   visibility is decided purely by `event.time <= node clock`, so running
//!   the tied nodes in any order reaches the same per-node state.
//! * **Event ties** — events sharing the head timestamp may be applied in
//!   any order *except* that two events targeting the same node must keep
//!   their sequence order (same-node deliveries fill one inbox, and wakes
//!   append to one FIFO ready queue; reordering those is observable).
//! * **Forced slow paths** — `Ctx::poll_point` / `Ctx::yield_now` skip the
//!   reschedule when nothing could possibly run first. Taking the slow path
//!   anyway (requeue + switch) must be invisible in virtual time.
//!
//! A [`ScheduleOracle`] installed with `Sim::schedule_oracle` is consulted at
//! each such point. [`TraceOracle`] is the standard implementation: it draws
//! choices from a seeded stream (the same splitmix64 discipline as the fault
//! stream), records every decision positionally, and can replay a recorded
//! prefix — which is what makes a failing schedule a reproducible, shrinkable
//! artifact instead of a flaky observation. [`shrink`] reduces a failing
//! trace to a minimal prefix with all still-removable decisions reset to the
//! baseline choice.
//!
//! With a fault model installed the picture narrows: fault decisions are
//! drawn from one global stream in *execution* order (see `FaultState`), so
//! perturbations that reorder task execution across nodes (node ties, forced
//! slow paths) legitimately permute the draw order and with it the fault
//! realization. Event-tie permutation happens strictly between sends, leaves
//! the post-application kernel state identical, and therefore preserves
//! byte-identical results even under faults. Harnesses must pick their
//! invariant accordingly (full-report identity vs. application-result
//! identity); see `DESIGN.md` §3e.

use crate::kernel::splitmix64;
use std::sync::{Arc, Mutex, PoisonError};

/// Which don't-care decision the engine is asking about.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChoicePoint {
    /// Pick among runnable nodes tied at the minimum virtual clock.
    /// Candidates are in ascending node order; 0 is the baseline pick.
    NodeTie,
    /// Pick among permutable head-time events. Candidates are in ascending
    /// sequence order (first event per target node); 0 is the baseline pick.
    EventTie,
    /// Binary: force a `poll_point`/`yield_now` that would fast-path skip to
    /// take the full reschedule anyway. 0 (the default) skips as usual.
    SlowPath,
}

/// A source of scheduling decisions, consulted by the engine at every
/// exposed nondeterminism point. Implementations must be deterministic
/// functions of their own state: the whole point is that a run is
/// reproducible from the oracle alone.
///
/// `choose` receives the number of legal candidates (`n >= 2` for ties,
/// `n == 2` for slow-path forcing) and returns the chosen index; values
/// `>= n` are reduced modulo `n` by the caller. Returning 0 everywhere
/// reproduces the baseline schedule exactly.
pub trait ScheduleOracle: Send {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize;
}

/// Which decision points a [`TraceOracle`] actually perturbs (unperturbed
/// points record the baseline choice 0, keeping trace positions aligned
/// across specs), plus the seed of its decision stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OracleSpec {
    /// Seed of the splitmix64 decision stream.
    pub seed: u64,
    /// Perturb runnable-node tie-breaks.
    pub node_ties: bool,
    /// Perturb head-time event application order.
    pub event_ties: bool,
    /// Force a would-skip poll/yield slow path once every `slow_period`
    /// opportunities on average; 0 never forces.
    pub slow_period: u32,
}

impl OracleSpec {
    /// Perturb everything the engine exposes.
    pub fn full(seed: u64) -> OracleSpec {
        OracleSpec {
            seed,
            node_ties: true,
            event_ties: true,
            slow_period: 7,
        }
    }

    /// Perturb only event-tie order — the one point whose permutations leave
    /// even the fault stream's draw order intact (see the module docs).
    pub fn event_ties_only(seed: u64) -> OracleSpec {
        OracleSpec {
            seed,
            node_ties: false,
            event_ties: true,
            slow_period: 0,
        }
    }
}

/// Shared handle to a [`TraceOracle`]'s recorded decisions, usable after the
/// oracle itself has been moved into the simulation.
#[derive(Clone)]
pub struct RecordedTrace(Arc<Mutex<Vec<u32>>>);

impl RecordedTrace {
    /// The decisions recorded so far (a copy). A panicked run poisons the
    /// lock, but a push cannot leave the trace half-written.
    pub fn decisions(&self) -> Vec<u32> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The standard oracle: replay a recorded prefix, then continue from a
/// seeded stream (or with baseline choices, for pure replay), recording
/// every decision it hands out.
pub struct TraceOracle {
    prefix: Vec<u32>,
    pos: usize,
    /// `Some(stream state)` past the prefix; `None` replays the baseline
    /// choice 0 past the prefix.
    rng: Option<u64>,
    spec: OracleSpec,
    trace: Arc<Mutex<Vec<u32>>>,
}

impl TraceOracle {
    /// An oracle drawing every decision from `spec`'s seeded stream.
    pub fn seeded(spec: OracleSpec) -> (Box<TraceOracle>, RecordedTrace) {
        Self::with_prefix(spec, Vec::new(), true)
    }

    /// An oracle replaying `prefix` positionally and answering with the
    /// baseline choice (0) beyond it. Reproduces a recorded run exactly when
    /// `prefix` is its full trace, and is the vehicle for shrinking.
    pub fn replay(spec: OracleSpec, prefix: Vec<u32>) -> (Box<TraceOracle>, RecordedTrace) {
        Self::with_prefix(spec, prefix, false)
    }

    fn with_prefix(
        spec: OracleSpec,
        prefix: Vec<u32>,
        seeded_tail: bool,
    ) -> (Box<TraceOracle>, RecordedTrace) {
        // Pre-sized so recording does not allocate mid-run (the explore
        // harness measures allocator activity during perturbed runs).
        let rec = Vec::with_capacity(prefix.len() + (1 << 16));
        let trace = Arc::new(Mutex::new(rec));
        let oracle = Box::new(TraceOracle {
            prefix,
            pos: 0,
            // Decorrelate from the raw seed, same as the fault stream.
            rng: seeded_tail.then_some(spec.seed ^ 0xA076_1D64_78BD_642F),
            spec,
            trace,
        });
        let handle = RecordedTrace(Arc::clone(&oracle.trace));
        (oracle, handle)
    }
}

impl ScheduleOracle for TraceOracle {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        let raw: u32 = if self.pos < self.prefix.len() {
            self.prefix[self.pos]
        } else if let Some(rng) = self.rng.as_mut() {
            match point {
                ChoicePoint::NodeTie if self.spec.node_ties => {
                    (splitmix64(rng) % n.max(1) as u64) as u32
                }
                ChoicePoint::EventTie if self.spec.event_ties => {
                    (splitmix64(rng) % n.max(1) as u64) as u32
                }
                ChoicePoint::SlowPath if self.spec.slow_period > 0 => {
                    u32::from(splitmix64(rng).is_multiple_of(u64::from(self.spec.slow_period)))
                }
                _ => 0,
            }
        } else {
            0
        };
        self.pos += 1;
        let mut trace = self.trace.lock().unwrap_or_else(PoisonError::into_inner);
        trace.push(raw);
        raw as usize % n.max(1)
    }
}

/// Reduce a failing decision trace to a minimal reproducer.
///
/// `still_fails` must re-run the scenario under `TraceOracle::replay` with
/// the candidate trace and report whether the failure reproduces. The result
/// is the shortest failing prefix (found by bisection, then linear descent)
/// with every decision that can individually revert to the baseline choice
/// reverted, and trailing baseline decisions trimmed.
pub fn shrink(trace: Vec<u32>, mut still_fails: impl FnMut(&[u32]) -> bool) -> Vec<u32> {
    let mut t = trace;
    // Phase 1: shortest failing prefix. Failure-by-prefix is not strictly
    // monotone (a truncated trace diverges and may fail differently), so
    // bisect first and then walk down linearly from the found bound.
    let (mut lo, mut hi) = (0usize, t.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if still_fails(&t[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut len = hi;
    while len > 0 && still_fails(&t[..len - 1]) {
        len -= 1;
    }
    t.truncate(len);
    // Phase 2: revert individually removable decisions to the baseline.
    for i in (0..t.len()).rev() {
        if t[i] == 0 {
            continue;
        }
        let saved = t[i];
        t[i] = 0;
        if !still_fails(&t) {
            t[i] = saved;
        }
    }
    // Phase 3: trailing baseline decisions add nothing to a replay.
    while t.last() == Some(&0) {
        t.pop();
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_stream_is_deterministic_and_recorded() {
        let spec = OracleSpec::full(42);
        let (mut a, ta) = TraceOracle::seeded(spec);
        let (mut b, tb) = TraceOracle::seeded(spec);
        let picks_a: Vec<usize> = (0..64).map(|_| a.choose(ChoicePoint::NodeTie, 3)).collect();
        let picks_b: Vec<usize> = (0..64).map(|_| b.choose(ChoicePoint::NodeTie, 3)).collect();
        assert_eq!(picks_a, picks_b);
        assert_eq!(ta.decisions(), tb.decisions());
        assert_eq!(ta.decisions().len(), 64);
        assert!(picks_a.iter().any(|&p| p != 0), "seed 42 never perturbed");
    }

    #[test]
    fn replay_reproduces_then_defaults() {
        let spec = OracleSpec::full(7);
        let (mut a, ta) = TraceOracle::seeded(spec);
        let picks: Vec<usize> = (0..32)
            .map(|i| a.choose(ChoicePoint::EventTie, 2 + i % 3))
            .collect();
        let (mut r, _tr) = TraceOracle::replay(spec, ta.decisions());
        let replayed: Vec<usize> = (0..32)
            .map(|i| r.choose(ChoicePoint::EventTie, 2 + i % 3))
            .collect();
        assert_eq!(picks, replayed);
        // Beyond the recorded prefix a replay answers with the baseline.
        assert_eq!(r.choose(ChoicePoint::NodeTie, 4), 0);
        assert_eq!(r.choose(ChoicePoint::SlowPath, 2), 0);
    }

    #[test]
    fn disabled_points_record_baseline() {
        let (mut o, t) = TraceOracle::seeded(OracleSpec::event_ties_only(9));
        for _ in 0..16 {
            assert_eq!(o.choose(ChoicePoint::NodeTie, 4), 0);
            assert_eq!(o.choose(ChoicePoint::SlowPath, 2), 0);
        }
        assert!(t.decisions().iter().all(|&v| v == 0));
    }

    #[test]
    fn shrink_finds_minimal_single_cause() {
        // Failure iff position 5 holds a nonzero decision.
        let trace = vec![1, 2, 0, 3, 1, 2, 0, 1, 1, 1];
        let shrunk = shrink(trace, |t| t.get(5).copied().unwrap_or(0) != 0);
        assert_eq!(shrunk, vec![0, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn shrink_keeps_interacting_pair() {
        // Failure needs both position 1 and position 4 nonzero.
        let trace = vec![2, 1, 2, 0, 3, 1, 2];
        let fails =
            |t: &[u32]| t.get(1).copied().unwrap_or(0) != 0 && t.get(4).copied().unwrap_or(0) != 0;
        let shrunk = shrink(trace, fails);
        assert_eq!(shrunk, vec![0, 1, 0, 0, 3]);
        assert!(fails(&shrunk));
    }

    #[test]
    fn shrink_of_non_failure_is_empty() {
        assert_eq!(shrink(vec![1, 2, 3], |_| true), Vec::<u32>::new());
    }
}
