//! The simulation kernel: per-node state and event application.
//!
//! All mutable simulation state lives here, in one [`Kernel`] in the
//! `BatonCell` of `SimDriver`: per node the virtual clock, inbox, task table
//! ([`NodeTasks`], the one `LocalFabric` keeps too), [`Probe`] and
//! [`Ledger`] ([`NodeState`]); machine-wide the event heap and the fault and
//! exploration instruments.
//!
//! Exactly one context runs at a time (the engine, or the one task holding
//! the baton) and no borrow is ever held across a baton switch, so the
//! kernel needs no lock: the baton holder owns it. The `BatonCell` checks
//! that the caller holds the baton, and `Handle::home`, a handle's single
//! access point, that it is a task of the handle's node, and treats a kernel
//! already borrowed (a re-entry) as the bug it is.

use crate::event::{EventKey, EventKind, Msg};
use crate::explore::{ChoicePoint, ScheduleOracle};
use crate::probe::{Ledger, Probe};
use crate::sched::NodeTasks;
use crate::task::TaskId;
use crate::time::Time;
use crate::trace::{TraceConfig, TraceEvent, TraceRecord, NO_TASK};
use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// One node's state.
pub(crate) struct NodeState {
    /// This node's virtual clock. Written only by the context holding the
    /// baton.
    pub(crate) clock: Time,
    /// Delivered but not yet polled messages.
    pub(crate) inbox: VecDeque<Msg>,
    /// Task records, run queue and inbox waiters.
    pub(crate) tasks: NodeTasks,
    /// Trace ring and traffic matrix.
    pub(crate) probe: Probe,
    /// Counters and histograms.
    pub(crate) ledger: Ledger,
}

/// The simulator's node borrow: the handle body's `Home` on the simulator.
pub struct Kernel {
    pub(crate) nodes: Vec<NodeState>,
    /// Min-heap of pending events, each held whole.
    pub(crate) events: BinaryHeap<EventKey>,
    pub(crate) seq: u64,
    /// Set once only daemons remain; parked daemons are woken to exit.
    pub(crate) shutting_down: bool,
    /// Captured panic payload from a task body, re-raised by the engine.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
    /// Whether the kernel counts the src→dst traffic matrix into the
    /// nodes' probes.
    pub(crate) metrics: bool,
    /// Whether the nodes' probes keep trace rings: checked before a record
    /// is built, so a tracing-off run touches no probe to emit.
    tracing: bool,
    /// Installed fault model plus its seeded decision stream.
    pub(crate) faults: Option<FaultState>,
    /// Latest scheduled arrival on each link, at `src * nodes + dst`: on a
    /// fault-free wire no frame lands at or before its predecessor's.
    last_arrival: Vec<Time>,
    /// Installed schedule oracle (exploration harness). `None` — the default
    /// — keeps every decision on the baseline path with a single branch of
    /// overhead per decision point.
    pub(crate) oracle: Option<Box<dyn ScheduleOracle>>,
    /// Reusable buffer of head-time event keys (oracle event-tie choice).
    tie_scratch: Vec<EventKey>,
    /// Reusable buffer of permutable-event candidate indices.
    cand_scratch: Vec<u32>,
    /// Reusable buffer of clock-tied runnable node indices.
    node_scratch: Vec<u32>,
}

/// The fault model's deterministic decision stream. All draws happen on the
/// kernel, in simulation order, so a seed fixes every decision.
pub(crate) struct FaultState {
    pub(crate) model: crate::cost::FaultModel,
    rng: u64,
}

/// One transmission attempt's fate, drawn from the kernel's seeded fault
/// stream (`FaultState`).
#[derive(Copy, Clone, Debug, Default)]
pub struct FaultDecision {
    /// The packet vanishes on the wire.
    pub drop: bool,
    /// The packet is delivered twice.
    pub duplicate: bool,
    /// Extra delivery delay (reorder hold-back or fixed delay), in ns.
    pub extra_delay: Time,
}

/// One step of the splitmix64 stream behind both the fault model's and the
/// exploration oracle's decisions.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultState {
    pub(crate) fn new(model: crate::cost::FaultModel) -> Self {
        model.validate();
        // Decorrelate the stream from the raw seed (seeds 1 and 2 should not
        // share a prefix).
        let rng = model.seed ^ 0xD6E8_FEB8_6659_FD93;
        FaultState { model, rng }
    }

    fn decide(&mut self) -> FaultDecision {
        let link = self.model.link;
        let mut d = FaultDecision {
            drop: unit(&mut self.rng) < link.drop,
            duplicate: unit(&mut self.rng) < link.duplicate,
            extra_delay: 0,
        };
        if unit(&mut self.rng) < link.reorder {
            d.extra_delay += 1 + splitmix64(&mut self.rng) % link.reorder_window.max(1);
        }
        if unit(&mut self.rng) < link.delay {
            d.extra_delay += link.delay_by;
        }
        d
    }
}

impl Kernel {
    pub(crate) fn new(
        nodes: usize,
        trace: Option<TraceConfig>,
        metrics: bool,
        faults: Option<crate::cost::FaultModel>,
        oracle: Option<Box<dyn ScheduleOracle>>,
    ) -> Self {
        // One run-wide sequence of span ids.
        let span_ids = Arc::new(AtomicU64::new(0));
        Kernel {
            nodes: (0..nodes)
                .map(|node| NodeState {
                    clock: 0,
                    inbox: VecDeque::new(),
                    tasks: NodeTasks::new(node, nodes),
                    probe: Probe::new(trace.as_ref(), &span_ids),
                    ledger: Ledger::new(metrics),
                })
                .collect(),
            events: BinaryHeap::new(),
            seq: 0,
            shutting_down: false,
            panic: None,
            metrics,
            tracing: trace.is_some(),
            faults: faults.map(FaultState::new),
            last_arrival: vec![0; nodes * nodes],
            oracle,
            tie_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            node_scratch: Vec::new(),
        }
    }

    /// Node `i`'s virtual clock.
    #[inline]
    pub(crate) fn clock(&self, i: usize) -> Time {
        self.nodes[i].clock
    }

    /// Raise node `i`'s clock to at least `t`.
    #[inline]
    fn raise_clock(&mut self, i: usize, t: Time) {
        let n = &mut self.nodes[i];
        n.clock = n.clock.max(t);
    }

    /// Draw the fate of one transmission attempt. Panics if no fault model
    /// is installed (callers gate on `cost().faults`).
    pub(crate) fn fault_decision(&mut self) -> FaultDecision {
        self.faults
            .as_mut()
            .expect("fault_decision without a fault model")
            .decide()
    }

    /// Unfinished tasks, machine-wide.
    pub(crate) fn live(&self) -> usize {
        self.nodes.iter().map(|n| n.tasks.live()).sum()
    }

    /// Only daemon tasks remain: wake every waiting one so it can observe
    /// `shutting_down` and exit, letting the run terminate cleanly.
    pub(crate) fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        for node in 0..self.nodes.len() {
            self.wake(node, NodeTasks::release);
        }
    }

    /// The min-clock node with runnable work, ties to the lowest index. A
    /// scan: every run has a handful of nodes, and nothing needs re-keying
    /// when a clock or a ready queue changes.
    #[inline]
    pub(crate) fn peek_min_runnable(&self) -> Option<(usize, Time)> {
        let mut best: Option<(usize, Time)> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.tasks.ready_len() > 0 && best.is_none_or(|(_, c)| n.clock < c) {
                best = Some((i, n.clock));
            }
        }
        best
    }

    /// Whether nothing could run before `node`'s running task at its clock:
    /// no event is due, and no node with work lags behind it. A pick of the
    /// node itself carries its clock, never an earlier one.
    #[inline]
    pub(crate) fn nothing_runs_before(&self, node: usize) -> bool {
        let my_clock = self.clock(node);
        let no_event_due = self.events.peek().is_none_or(|e| e.time > my_clock);
        no_event_due && self.peek_min_runnable().is_none_or(|(_, c)| c >= my_clock)
    }

    /// Emit a trace record stamped with `node`'s current clock. No-op when
    /// tracing is off.
    #[inline]
    pub(crate) fn emit(&mut self, node: usize, task: TaskId, event: TraceEvent) {
        if self.tracing {
            let n = &mut self.nodes[node];
            n.probe.record(TraceRecord {
                time: n.clock,
                node,
                task,
                event,
            });
        }
    }

    /// Apply a wake `rule` of `node`'s table, tracing an `Unpark` at the
    /// node's clock for each task it queued.
    pub(crate) fn wake<R>(&mut self, node: usize, rule: impl FnOnce(&mut NodeTasks) -> R) -> R {
        let n = &mut self.nodes[node];
        let clock = n.clock;
        n.tasks.wake(&mut n.probe, || clock, rule)
    }

    /// Schedule a message delivery `delay` ns after the sending node's
    /// current clock. Without a fault model the link stays FIFO: a frame
    /// that would land at or before the previous one on its (src, dst) link
    /// lands 1 ns after it instead. A fault model may reorder the wire.
    pub(crate) fn post_deliver(&mut self, dst: usize, msg: Msg, delay: Time) {
        assert!(delay > 0, "message delay must be positive (causality)");
        let src = msg.src;
        let mut at = self.clock(src) + delay;
        if self.faults.is_none() {
            let last = &mut self.last_arrival[src * self.nodes.len() + dst];
            at = at.max(*last + 1);
            *last = at;
        }
        // Source-side traffic matrix (who sends what where): `msgprofile`
        // reads these keyed counters back out of the registry. The handle
        // counted the send itself.
        if self.metrics {
            let (keyed, to) = (&mut self.nodes[src].probe.keyed, dst as u64);
            for (name, v) in [("net.msgs_to", 1), ("net.bytes_to", msg.wire_bytes as u64)] {
                *keyed.entry(name).or_default().entry(to).or_insert(0) += v;
            }
        }
        let wire_bytes = msg.wire_bytes;
        let seq = self.next_seq();
        self.emit(
            src,
            NO_TASK,
            TraceEvent::MsgSend {
                dst,
                wire_bytes,
                arrives: at,
            },
        );
        self.events.push(EventKey {
            time: at,
            seq,
            kind: EventKind::Deliver { node: dst, msg },
        });
    }

    /// Schedule a timer wake for `task` at `at`, valid only while the task's
    /// timeout generation stays at `gen`.
    pub(crate) fn post_timeout_wake(&mut self, task: TaskId, at: Time, gen: u64) {
        let seq = self.next_seq();
        self.events.push(EventKey {
            time: at,
            seq,
            kind: EventKind::TimeoutWake { task, gen },
        });
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Pop and apply the earliest event. Only called by the engine when the
    /// scheduling policy says it is due, which keeps clock bumps causal.
    pub(crate) fn apply_next_event(&mut self) {
        let key = self.events.pop().expect("apply_next_event on empty heap");
        self.apply_event(key.time, key.kind);
    }

    /// The node a pending event acts on: delivery target, or the woken
    /// task's home node.
    fn event_target_node(&self, kind: &EventKind) -> usize {
        match *kind {
            EventKind::Deliver { node, .. } => node,
            EventKind::TimeoutWake { task, .. } => task.idx() % self.nodes.len(),
        }
    }

    /// Oracle-perturbed variant of [`apply_next_event`]: among the events
    /// tied at the head timestamp, let the oracle pick which to apply first
    /// — restricted to *legal* candidates. Two same-time events commute only
    /// when they target different nodes; events on one node fill a single
    /// inbox or FIFO ready queue, so their relative sequence order is
    /// observable and must be preserved. Candidates are therefore the first
    /// pending event of each distinct target node, in sequence order, making
    /// index 0 the baseline pick.
    ///
    /// [`apply_next_event`]: Kernel::apply_next_event
    pub(crate) fn apply_next_event_choice(&mut self, oracle: &mut dyn ScheduleOracle) {
        let head_time = self
            .events
            .peek()
            .expect("apply_next_event_choice on empty heap")
            .time;
        let mut ties = std::mem::take(&mut self.tie_scratch);
        debug_assert!(ties.is_empty());
        while self.events.peek().is_some_and(|e| e.time == head_time) {
            ties.push(self.events.pop().expect("peeked event vanished"));
        }
        // Heap pops at one timestamp come out in ascending sequence order.
        debug_assert!(ties.windows(2).all(|w| w[0].seq < w[1].seq));
        let pick = if ties.len() > 1 {
            let mut cands = std::mem::take(&mut self.cand_scratch);
            debug_assert!(cands.is_empty());
            'outer: for (i, e) in ties.iter().enumerate() {
                let node = self.event_target_node(&e.kind);
                for prev in &ties[..i] {
                    if self.event_target_node(&prev.kind) == node {
                        continue 'outer;
                    }
                }
                cands.push(u32::try_from(i).expect("tie index overflow"));
            }
            let c = if cands.len() > 1 {
                oracle.choose(ChoicePoint::EventTie, cands.len()) % cands.len()
            } else {
                0
            };
            let picked = cands[c] as usize;
            cands.clear();
            self.cand_scratch = cands;
            picked
        } else {
            0
        };
        let key = ties.remove(pick);
        for e in ties.drain(..) {
            self.events.push(e);
        }
        self.tie_scratch = ties;
        self.apply_event(key.time, key.kind);
    }

    /// Oracle-perturbed runnable-node pick: collect every node tied with the
    /// baseline choice (`best`, the lowest-index node at the minimum clock
    /// `clock`) and let the oracle choose among them. Candidates are in
    /// ascending node order, so index 0 reproduces the baseline.
    pub(crate) fn choose_tied_node(
        &mut self,
        best: usize,
        clock: Time,
        oracle: &mut dyn ScheduleOracle,
    ) -> usize {
        let mut ties = std::mem::take(&mut self.node_scratch);
        debug_assert!(ties.is_empty());
        for i in 0..self.nodes.len() {
            if self.nodes[i].tasks.ready_len() > 0 && self.clock(i) == clock {
                ties.push(u32::try_from(i).expect("node index overflow"));
            }
        }
        debug_assert_eq!(ties.first(), Some(&(best as u32)));
        let pick = if ties.len() > 1 {
            ties[oracle.choose(ChoicePoint::NodeTie, ties.len()) % ties.len()] as usize
        } else {
            best
        };
        ties.clear();
        self.node_scratch = ties;
        pick
    }

    /// Ask the installed oracle (if any) whether a poll/yield fast path that
    /// would skip rescheduling should take the slow path anyway. The forced
    /// slow path is result-invisible — it requeues the running task and
    /// re-enters the scheduler at an unchanged virtual time.
    pub(crate) fn oracle_forces_slow_path(&mut self) -> bool {
        match self.oracle.as_mut() {
            Some(o) => o.choose(ChoicePoint::SlowPath, 2) != 0,
            None => false,
        }
    }

    fn apply_event(&mut self, time: Time, kind: EventKind) {
        match kind {
            EventKind::Deliver { node, msg } => {
                let (src, wire_bytes) = (msg.src, msg.wire_bytes);
                self.nodes[node].ledger.stats.msgs_received.add(1);
                self.nodes[node].inbox.push_back(msg);
                self.raise_clock(node, time);
                self.emit(node, NO_TASK, TraceEvent::MsgDeliver { src, wire_bytes });
                self.wake(node, NodeTasks::wake_inbox_waiters);
            }
            EventKind::TimeoutWake { task, gen } => {
                // A live timer raises the clock to its deadline, a stale one
                // leaves it.
                let node = task.idx() % self.nodes.len();
                let n = &mut self.nodes[node];
                let at = n.clock.max(time);
                if n.tasks
                    .wake(&mut n.probe, || at, |t| t.wake_timed(task, gen))
                {
                    n.clock = at;
                }
            }
        }
    }

    /// Human-readable dump of unfinished tasks, for deadlock diagnostics.
    /// Deterministic: nodes, then each node's tasks, print in index order.
    pub(crate) fn dump_live(&self) -> String {
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            s.push_str(&format!(
                "node {i}: clock={}ns inbox={} ready={}\n",
                n.clock,
                n.inbox.len(),
                n.tasks.ready_len()
            ));
        }
        for n in &self.nodes {
            n.tasks.dump(&mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baton::TaskCell;

    /// A kernel of `clocks.len()` nodes; node `i` is at `clocks[i]` and has
    /// one ready task when `ready[i]`.
    fn kernel(clocks: &[Time], ready: &[bool]) -> Kernel {
        let mut k = Kernel::new(clocks.len(), None, false, None, None);
        for (i, n) in k.nodes.iter_mut().enumerate() {
            n.clock = clocks[i];
            if ready[i] {
                let cell = Arc::new(TaskCell::default());
                n.tasks.spawn(cell, "t", false);
            }
        }
        k
    }

    #[test]
    fn the_next_node_is_the_lowest_clock_then_the_lowest_index() {
        // The lowest clock wins, wherever it sits.
        let k = kernel(&[30, 10, 20, 40], &[true; 4]);
        assert_eq!(k.peek_min_runnable(), Some((1, 10)));
        // Equal clocks go to the lowest index.
        let k = kernel(&[20, 10, 20, 10], &[true; 4]);
        assert_eq!(k.peek_min_runnable(), Some((1, 10)));
        // A node with nothing ready is never picked, even at the lowest
        // clock; no node ready is no pick.
        let k = kernel(&[5, 10, 0, 10], &[false, true, false, true]);
        assert_eq!(k.peek_min_runnable(), Some((1, 10)));
        let k = kernel(&[5, 10], &[false, false]);
        assert_eq!(k.peek_min_runnable(), None);
    }

    #[test]
    fn raising_a_clock_flips_the_next_pick_with_no_re_key() {
        let mut k = kernel(&[10, 20, 30], &[true; 3]);
        assert_eq!(k.peek_min_runnable(), Some((0, 10)));
        // What `charge` does: add to the clock, nothing else.
        k.nodes[0].clock += 15;
        assert_eq!(k.peek_min_runnable(), Some((1, 20)));
        k.nodes[1].clock += 5;
        assert_eq!(k.peek_min_runnable(), Some((0, 25)));
        // Emptying a ready queue takes the node out of the running.
        k.nodes[0].tasks.run_next();
        assert_eq!(k.peek_min_runnable(), Some((1, 25)));
    }

    /// A 48-byte frame from `src`.
    fn frame(src: usize) -> Msg {
        Msg {
            src,
            wire_bytes: 48,
            payload: crate::event::Payload::any(()),
        }
    }

    /// Arrival times of the pending deliveries, in send order.
    fn arrivals(k: &mut Kernel) -> Vec<Time> {
        let mut keys = std::mem::take(&mut k.events).into_vec();
        keys.sort_by_key(|e| e.seq);
        keys.iter().map(|e| e.time).collect()
    }

    #[test]
    fn a_fault_free_link_is_fifo_and_a_faulty_one_is_not_clamped() {
        let mut k = kernel(&[100, 100, 100], &[false; 3]);
        // A bulk-sized delay, then a short one on the same link: the second
        // frame lands 1 ns after the first instead of overtaking it.
        k.post_deliver(1, frame(0), 50_000);
        k.post_deliver(1, frame(0), 1);
        // Another link, and the reverse of this one, keep their own times.
        k.post_deliver(2, frame(0), 1);
        k.post_deliver(0, frame(1), 1);
        assert_eq!(arrivals(&mut k), [50_100, 50_101, 101, 101]);
        // A fault model may reorder the wire: nothing is clamped.
        let faults = crate::cost::FaultModel::new(7);
        let mut k = Kernel::new(2, None, false, Some(faults), None);
        k.post_deliver(1, frame(0), 50_000);
        k.post_deliver(1, frame(0), 1);
        assert_eq!(arrivals(&mut k), [50_000, 1]);
    }

    /// Answers a fixed choice and records how many candidates it was shown.
    struct Fixed {
        pick: usize,
        shown: Vec<usize>,
    }

    impl ScheduleOracle for Fixed {
        fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
            assert!(matches!(point, ChoicePoint::NodeTie));
            self.shown.push(n);
            self.pick
        }
    }

    #[test]
    fn node_ties_are_offered_in_ascending_order_baseline_first() {
        // Nodes 1, 3 and 4 tie at the lowest clock; node 0 is ahead and
        // node 2 has nothing ready.
        let mut k = kernel(&[50, 10, 10, 10, 10], &[true, true, false, true, true]);
        let (best, clock) = k.peek_min_runnable().expect("a runnable node");
        assert_eq!((best, clock), (1, 10));
        let mut picks = Vec::new();
        for pick in 0..3 {
            let mut o = Fixed {
                pick,
                shown: Vec::new(),
            };
            picks.push(k.choose_tied_node(best, clock, &mut o));
            assert_eq!(o.shown, [3]);
        }
        assert_eq!(picks, [1, 3, 4]);
        // A lone minimum asks the oracle nothing.
        k.nodes[3].clock = 11;
        k.nodes[4].clock = 12;
        let mut o = Fixed {
            pick: 1,
            shown: Vec::new(),
        };
        assert_eq!(k.choose_tied_node(1, 10, &mut o), 1);
        assert!(o.shown.is_empty());
    }
}
