//! Task-side API: everything a simulated task can do, as the simulator's
//! [`Fabric`] implementation. The trait docs carry the contract; comments
//! here say only what is specific to the virtual-time kernel.
//!
//! Hot-path discipline: every operation that reads the kernel borrows it
//! exactly once, through `SimInner::lock_kernel` (a thread-local check that
//! the caller holds the run's baton, then a `RefCell` borrow), and none holds
//! the borrow across a baton switch. `probe` lends a node's
//! [`Probe`](crate::Probe) out of that borrow, so the `with_stats` closure
//! that runs under it must not call back into the fabric (doing so panics).
//! `tracing` is a plain bool captured at `Sim::run`, so with tracing off a
//! span costs a branch, not a kernel visit.

use crate::cost::CostModel;
use crate::engine::{spawn_task, switch_from_task, SimInner};
use crate::event::{Msg, Payload};
use crate::fabric::Fabric;
use crate::kernel::{FaultDecision, Kernel};
use crate::probe::Probe;
use crate::report::Snapshot;
use crate::sched::TaskState;
use crate::stats::Bucket;
use crate::task::{TaskCell, TaskId};
use crate::time::Time;
use crate::trace::TraceEvent;
use std::cell::RefMut;
use std::sync::Arc;

/// Handle to the simulation held by a running task. Cheap to clone; a clone
/// refers to the same task (pass clones into closures, not across tasks —
/// each spawned task receives its own `Ctx`).
pub struct Ctx {
    pub(crate) inner: Arc<SimInner>,
    node: usize,
    task: TaskId,
    /// This task's own handoff cell, cached here so blocking points don't
    /// re-fetch (and re-clone) it from the task table on every switch.
    cell: Arc<TaskCell>,
}

impl Clone for Ctx {
    fn clone(&self) -> Self {
        Ctx {
            inner: Arc::clone(&self.inner),
            node: self.node,
            task: self.task,
            cell: Arc::clone(&self.cell),
        }
    }
}

impl Ctx {
    pub(crate) fn new(
        inner: Arc<SimInner>,
        node: usize,
        task: TaskId,
        cell: Arc<TaskCell>,
    ) -> Self {
        Ctx {
            inner,
            node,
            task,
            cell,
        }
    }

    /// Task records in this node's table: the live set, however many tasks
    /// the node has run so far. For the bounded-resource tests.
    #[doc(hidden)]
    pub fn debug_task_records(&self) -> usize {
        self.inner.lock_kernel().nodes[self.node].tasks.live()
    }

    /// Number of delivered, unconsumed frames on this node. A test-side
    /// probe: the layers above drain the inbox, never count it.
    pub fn inbox_len(&self) -> usize {
        self.inner.lock_kernel().nodes[self.node].inbox.len()
    }

    /// Leave this task waiting in `state`, traced as a park, until a wake rule
    /// of its node's table queues it again and it runs.
    fn block(&self, mut k: RefMut<'_, Kernel>, state: TaskState, timer: Option<Time>) {
        let gen = k.nodes[self.node].tasks.block(self.task, state);
        if let Some(at) = timer {
            k.post_timeout_wake(self.task, at, gen);
        }
        k.emit(self.node, self.task, TraceEvent::Park);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }
}

impl Fabric for Ctx {
    #[inline]
    fn node(&self) -> usize {
        self.node
    }

    #[inline]
    fn nodes(&self) -> usize {
        self.inner.num_nodes
    }

    #[inline]
    fn task_id(&self) -> TaskId {
        self.task
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    #[inline]
    fn now(&self) -> Time {
        self.inner.lock_kernel().clock(self.node)
    }

    /// Advances this node's clock by `ns`; the next scheduling decision
    /// reads the new clock, so nothing is re-keyed here.
    fn charge(&self, bucket: Bucket, ns: Time) {
        if ns == 0 {
            return;
        }
        let mut k = self.inner.lock_kernel();
        let n = &mut k.nodes[self.node];
        n.clock += ns;
        n.probe.stats.bucket_ns[bucket.index()] += ns;
        k.emit(self.node, self.task, TraceEvent::Charge { bucket, ns });
    }

    fn snapshot(&self) -> Snapshot {
        crate::engine::snapshot(&self.inner)
    }

    fn spawn<F>(&self, name: &str, f: F) -> TaskId
    where
        F: FnOnce(Ctx) + Send + 'static,
    {
        spawn_task(&self.inner, self.node, name.to_string(), false, f)
    }

    /// Daemons are excluded from the liveness condition: when only daemons
    /// remain, the engine flips `shutting_down`, wakes them, and expects
    /// them to return.
    fn spawn_daemon<F>(&self, name: &str, f: F) -> TaskId
    where
        F: FnOnce(Ctx) + Send + 'static,
    {
        spawn_task(&self.inner, self.node, name.to_string(), true, f)
    }

    /// Gives the scheduler a chance to apply due network events and run
    /// other tasks.
    ///
    /// Includes a fast path: if no event and no other task could possibly run
    /// before this node's clock, the reschedule is skipped entirely.
    fn yield_now(&self) {
        let mut k = self.inner.lock_kernel();
        let my_clock = k.clock(self.node);
        let event_due = k.events.peek().is_some_and(|e| e.time <= my_clock);
        let local_ready = k.nodes[self.node].tasks.ready_len() > 0;
        // Our own node is not runnable (its ready queue is empty when
        // local_ready is false), so any pick is another node, and one
        // strictly behind our clock could still run first.
        let earlier_node = !local_ready && k.peek_min_runnable().is_some_and(|(_, c)| c < my_clock);
        if !event_due && !local_ready && !earlier_node {
            // Exploration hook: the oracle may force the skipped slow path
            // anyway (requeue + reschedule at unchanged virtual time), which
            // must be invisible in the results.
            if !k.oracle_forces_slow_path() {
                return;
            }
        }
        k.nodes[self.node].tasks.requeue(self.task, false);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    fn park(&self) {
        self.block(self.inner.lock_kernel(), TaskState::Parked, None);
    }

    fn unpark(&self, t: TaskId) {
        self.inner
            .lock_kernel()
            .wake(self.node, |tasks| tasks.unpark(t));
    }

    fn park_for_inbox(&self) {
        let k = self.inner.lock_kernel();
        if k.nodes[self.node].inbox.is_empty() {
            self.block(k, TaskState::InboxWait, None);
        }
    }

    fn park_for_inbox_until(&self, deadline: Time) {
        let k = self.inner.lock_kernel();
        if k.nodes[self.node].inbox.is_empty() && k.clock(self.node) < deadline {
            self.block(k, TaskState::InboxWait, Some(deadline));
        }
    }

    /// A timer in virtual time. Only the timer ends it: the `Sleeping` state
    /// drops an `unpark`, and the timer's generation keeps it from ending a
    /// later wait.
    fn sleep(&self, ns: Time) {
        let k = self.inner.lock_kernel();
        let at = k.clock(self.node) + ns;
        self.block(k, TaskState::Sleeping, Some(at));
    }

    fn join(&self, t: TaskId) {
        loop {
            let mut k = self.inner.lock_kernel();
            if !k.nodes[self.node].tasks.join(self.task, t) {
                return;
            }
            self.block(k, TaskState::Parked, None);
        }
    }

    fn is_finished(&self, t: TaskId) -> bool {
        self.inner.lock_kernel().nodes[self.node]
            .tasks
            .is_finished(t)
    }

    fn shutting_down(&self) -> bool {
        self.inner.lock_kernel().shutting_down
    }

    /// Unlike `yield_now`, a poll point does **not** queue behind other
    /// ready tasks on this node — polling the network is not a thread switch
    /// in a non-preemptive system. The task hands control to the engine only
    /// when a due event exists or another node lags behind this node's clock
    /// (and could therefore still produce an event before it), and resumes
    /// at the front of its node's run queue.
    fn poll_point(&self) {
        let mut k = self.inner.lock_kernel();
        let my_clock = k.clock(self.node);
        let event_due = k.events.peek().is_some_and(|e| e.time <= my_clock);
        // A pick of our own node carries our clock, never an earlier one, so
        // a pick strictly below our clock is always another node.
        let earlier_node = k.peek_min_runnable().is_some_and(|(_, c)| c < my_clock);
        if !event_due && !earlier_node {
            // Exploration hook: see `yield_now`. Resuming at the front of
            // the run queue keeps the forced detour schedule-neutral.
            if !k.oracle_forces_slow_path() {
                return;
            }
        }
        k.nodes[self.node].tasks.requeue(self.task, true);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// Drawn from the seeded fault stream, at the one rate every link has.
    /// Panics when no fault model is installed.
    fn fault_decision(&self, _dst: usize) -> FaultDecision {
        self.inner.lock_kernel().fault_decision()
    }

    /// `delay` models wire/switch time and must be > 0.
    ///
    /// A [`Payload::Short`] send allocates nothing: the four argument words
    /// travel inline and the event heap holds the delivery in capacity it
    /// reuses.
    fn send_msg(&self, dst: usize, wire_bytes: usize, delay: Time, payload: Payload) {
        let msg = Msg {
            src: self.node,
            wire_bytes,
            payload,
        };
        self.inner.lock_kernel().post_deliver(dst, msg, delay);
    }

    fn try_recv(&self) -> Option<Msg> {
        self.inner.lock_kernel().nodes[self.node].inbox.pop_front()
    }

    fn node_data<T, F>(&self, init: F) -> &T
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.inner.check_baton();
        self.inner.node_data[self.node].get_or_init(init)
    }

    /// Lent out of the kernel borrow.
    #[inline]
    fn probe(&self) -> RefMut<'_, Probe> {
        RefMut::map(self.inner.lock_kernel(), |k| &mut k.nodes[self.node].probe)
    }

    #[inline]
    fn tracing(&self) -> bool {
        self.inner.tracing_on
    }
}
