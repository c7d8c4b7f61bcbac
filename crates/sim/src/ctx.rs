//! Task-side API: one body of [`Fabric`], [`Handle`], over two drivers. A
//! [`Driver`] supplies what differs between the machines: the node borrow,
//! the clock, block-and-switch, task registration and exit, transport,
//! faults and capture. The simulator's kernel is one ([`SimDriver`], whose
//! handle is [`Ctx`]), the wall clock's nodes the other (`LocalDriver`, whose
//! handle is [`LocalFabric`](crate::LocalFabric)). `Driver` is sealed: public
//! for `Handle<D>` to name, in a private module for no other crate to
//! implement.
//!
//! Hot-path discipline: every operation that reads node state borrows it
//! exactly once, through `Handle::home` (the baton's check that the caller
//! is its holder and a task of this handle's node, then a `RefCell` borrow),
//! and none holds the borrow across a baton switch. `probe` lends a node's
//! [`Probe`] out of that borrow, and `with_ledger` runs its closure under it,
//! so a `with_stats` closure must not call back into the fabric (doing so
//! panics).

use crate::baton::{Backend, NodeKey, TaskBody, TaskCell};
use crate::cost::CostModel;
use crate::engine::SimDriver;
use crate::event::{Msg, Payload};
use crate::fabric::{Fabric, BORROWED};
use crate::kernel::FaultDecision;
use crate::node_data::NodeData;
use crate::probe::{Ledger, Probe};
use crate::report::Snapshot;
use crate::sched::{NodeTasks, TaskState};
use crate::stats::{size_bucket, Bucket};
use crate::task::TaskId;
use crate::time::Time;
use crate::trace::{TraceEvent, TraceRecord};
use std::cell::RefMut;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

/// The simulator's handle: a task of the deterministic virtual-time kernel.
pub type Ctx = Handle<SimDriver>;

/// What every driver keeps alike for its handles.
pub struct Machine {
    pub(crate) nodes: usize,
    pub(crate) cost: CostModel,
    /// Whether the nodes' probes keep trace rings: fixed for the run, so with
    /// tracing off a span costs a branch, not a borrow.
    pub(crate) tracing: bool,
    /// Each node's layer singletons, beside its state: a lookup borrows
    /// nothing.
    pub(crate) data: Box<[NodeData]>,
}

impl Machine {
    pub(crate) fn new(nodes: usize, cost: CostModel, tracing: bool) -> Self {
        let data = (0..nodes).map(|_| NodeData::default()).collect();
        Machine {
            nodes,
            cost,
            tracing,
            data,
        }
    }
}

/// What a fabric provides beneath the one handle body. `home` is a node
/// borrow taken through [`Handle::home`]; `h` is the calling task's handle.
pub trait Driver: Send + Sync + Sized + 'static {
    /// What a node borrow lends: the simulator's whole kernel, or one
    /// wall-clock node's scheduler.
    type Home;

    /// What the driver keeps for its handles alike.
    fn machine(&self) -> &Machine;
    /// The baton `node`'s tasks run under.
    fn backend(&self, node: usize) -> &Backend;

    /// `node`'s state, borrowed by a task of that node holding the baton.
    fn home(&self, node: usize, key: NodeKey) -> RefMut<'_, Self::Home>;
    /// `node`'s task table.
    fn tasks(home: &mut Self::Home, node: usize) -> &mut NodeTasks;
    /// `node`'s probe.
    fn probe(home: &mut Self::Home, node: usize) -> &mut Probe;
    /// `node`'s ledger, for its baton holder to write through.
    fn ledger<'a>(&'a self, home: &'a Self::Home, node: usize) -> &'a Ledger;
    /// `node`'s clock, read in a borrow.
    fn clock(&self, home: &Self::Home, node: usize) -> Time;
    /// Apply the wake `rule` to `node`'s task table, tracing each task it
    /// woke at `node`'s clock ([`NodeTasks::wake`]): every wake of a driver
    /// and of the handle goes through here.
    fn wake<R>(
        &self,
        home: &mut Self::Home,
        node: usize,
        rule: impl FnOnce(&mut NodeTasks) -> R,
    ) -> R;
    /// Advance `node`'s clock by `ns` of charged work; a wall clock advances
    /// by itself.
    fn advance(_home: &mut Self::Home, _node: usize, _ns: Time) {}
    /// Whether `node`'s `try_recv` would find a frame.
    fn has_frame(&self, home: &Self::Home, node: usize) -> bool;

    /// Give a new task of `node`, run by `cell`, its id and record, and queue it.
    fn register(
        &self,
        home: &mut Self::Home,
        node: usize,
        name: &str,
        daemon: bool,
        cell: Arc<TaskCell>,
    ) -> TaskId;
    /// Exit bookkeeping of task `id`, on its own stack, once its body ended
    /// with `outcome`: the context the baton goes to next (`None`: the
    /// engine).
    fn exit(&self, node: usize, id: TaskId, outcome: thread::Result<()>) -> Option<Arc<TaskCell>>;
    /// Whether a `yield_now` may skip the reschedule: nothing else could run
    /// before the caller.
    fn yield_is_free(&self, _home: &mut Self::Home, _node: usize) -> bool {
        false
    }
    /// Called before the calling task blocks or yields: whether a wait other
    /// than a sleep is a trip through the run queue instead, since whoever
    /// would end it may be gone. A driver whose run has failed unwinds the
    /// task here.
    fn waits_are_yields(&self) -> bool {
        false
    }
    /// Arm `timer` (a deadline and the wait's generation) for the calling
    /// task, blocked or requeued in `home`, then run whatever else is
    /// runnable until it is picked again.
    fn switch_away(h: &Handle<Self>, home: RefMut<'_, Self::Home>, timer: Option<(Time, u64)>);

    /// [`Fabric::now`].
    #[inline]
    fn now(h: &Handle<Self>) -> Time {
        h.inner.clock(&h.home(), h.node)
    }
    /// [`Fabric::shutting_down`].
    fn shutting_down(h: &Handle<Self>) -> bool;
    /// [`Fabric::poll_point`]: nothing to pull forward where delivery is
    /// immediate.
    fn poll_point(_h: &Handle<Self>) {}
    /// [`Fabric::send_msg`], with the frame built and counted as sent.
    fn send(h: &Handle<Self>, home: RefMut<'_, Self::Home>, dst: usize, msg: Msg, delay: Time);
    /// [`Fabric::try_recv`].
    fn try_recv(h: &Handle<Self>) -> Option<Msg>;
    /// [`Handle::inbox_len`].
    fn inbox_len(h: &Handle<Self>) -> usize;
    /// [`Fabric::fault_decision`]: a driver that refuses a fault model
    /// never draws.
    fn fault_decision(_h: &Handle<Self>, _dst: usize) -> FaultDecision {
        unreachable!("the builder refuses a cost model with a fault model")
    }
    /// [`Fabric::snapshot`].
    fn snapshot(h: &Handle<Self>) -> Snapshot;
}

/// A handle to the machine held by one running task. Cheap to clone; a clone
/// refers to the same task (pass clones into closures, not across tasks —
/// each spawned task receives its own handle).
pub struct Handle<D> {
    pub(crate) inner: Arc<D>,
    pub(crate) node: usize,
    /// The baton's key for `node`.
    pub(crate) key: NodeKey,
    pub(crate) task: TaskId,
    /// This task's own context, cached here so blocking points need not
    /// fetch it from the task table.
    pub(crate) cell: Arc<TaskCell>,
}

impl<D> Clone for Handle<D> {
    fn clone(&self) -> Self {
        Handle {
            inner: Arc::clone(&self.inner),
            node: self.node,
            key: self.key,
            task: self.task,
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<D: Driver> Handle<D> {
    /// This node's state, borrowed by a task of this handle's node holding
    /// the baton: the single access point.
    #[inline]
    pub(crate) fn home(&self) -> RefMut<'_, D::Home> {
        self.inner.home(self.node, self.key)
    }

    /// This node's state, to block the calling task through: a handle may do
    /// that only for the task it was given to.
    #[inline]
    fn sched(&self) -> RefMut<'_, D::Home> {
        let home = self.home();
        assert!(self.key.runs(self.task), "{BORROWED}");
        home
    }

    /// Record `event` on `task` of this node, stamped with the node's
    /// clock, into a probe already borrowed. `event` is built only when
    /// tracing.
    #[inline]
    fn record(&self, home: &mut D::Home, task: TaskId, event: impl FnOnce() -> TraceEvent) {
        let (inner, node) = (&*self.inner, self.node);
        if inner.machine().tracing {
            let time = inner.clock(home, node);
            let event = event();
            D::probe(home, node).record(TraceRecord {
                time,
                node,
                task,
                event,
            });
        }
    }

    /// Register a task of `node` and give it a context that runs `f` with a
    /// handle of its own. The one spawn body: a node's bring-up and
    /// `spawn*` both come here. Task names are kept in the trace, and in
    /// whatever record the driver keeps.
    pub(crate) fn start<G>(
        inner: &Arc<D>,
        home: &mut D::Home,
        node: usize,
        name: &str,
        daemon: bool,
        f: G,
    ) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        let backend = inner.backend(node);
        let cell = Arc::new(TaskCell::default());
        let task = inner.register(home, node, name, daemon, Arc::clone(&cell));
        let child = Handle {
            inner: Arc::clone(inner),
            node,
            key: backend.node_key(node),
            task,
            cell: Arc::clone(&cell),
        };
        child.record(home, task, || TraceEvent::TaskSpawn {
            name: name.to_string(),
        });
        let body: TaskBody = Box::new(move || {
            let inner = Arc::clone(&child.inner);
            // The root of the task's stack: nothing may unwind past it.
            let outcome = catch_unwind(AssertUnwindSafe(move || f(child)));
            inner.exit(node, task, outcome)
        });
        backend.start(cell, body, (node, task.0));
        task
    }

    /// Leave the calling task waiting in `state`, traced as a park, until a
    /// wake rule of its node's table or its `deadline` ends the wait — or
    /// requeue it behind the node's other runnable tasks, for `Ready` (a
    /// yield) and where the driver says waits are yields — and run whatever
    /// else is runnable meanwhile.
    fn block(&self, mut home: RefMut<'_, D::Home>, state: TaskState, deadline: Option<Time>) {
        let (inner, node, task) = (&*self.inner, self.node, self.task);
        let yields = inner.waits_are_yields();
        let timer = if state == TaskState::Ready || (yields && state != TaskState::Sleeping) {
            D::tasks(&mut home, node).requeue(task, false);
            None
        } else {
            let gen = D::tasks(&mut home, node).block(task, state);
            self.record(&mut home, task, || TraceEvent::Park);
            deadline.map(|at| (at, gen))
        };
        D::switch_away(self, home, timer);
    }

    /// The shared body of `park` and `park_for_inbox*`: an inbox wait ends at
    /// once if a frame is there or its deadline has passed.
    fn wait(&self, state: TaskState, deadline: Option<Time>) {
        let home = self.sched();
        let (inner, node) = (&*self.inner, self.node);
        let passed = |home: &D::Home| deadline.is_some_and(|d| inner.clock(home, node) >= d);
        if state == TaskState::InboxWait && (inner.has_frame(&home, node) || passed(&home)) {
            return;
        }
        self.block(home, state, deadline);
    }

    /// Number of delivered, unconsumed frames on this node. A test-side
    /// probe: the layers above drain the inbox, never count it.
    pub fn inbox_len(&self) -> usize {
        D::inbox_len(self)
    }

    /// Task records in this node's table: the live set, however many tasks
    /// the node has run so far. For the bounded-resource tests.
    #[doc(hidden)]
    pub fn debug_task_records(&self) -> usize {
        D::tasks(&mut self.home(), self.node).live()
    }
}

impl<D: Driver> Fabric for Handle<D> {
    #[inline]
    fn node(&self) -> usize {
        self.node
    }

    #[inline]
    fn nodes(&self) -> usize {
        self.inner.machine().nodes
    }

    #[inline]
    fn task_id(&self) -> TaskId {
        self.task
    }

    #[inline]
    fn cost(&self) -> &CostModel {
        &self.inner.machine().cost
    }

    #[inline]
    fn now(&self) -> Time {
        D::now(self)
    }

    fn charge(&self, bucket: Bucket, ns: Time) {
        if ns == 0 {
            return;
        }
        let (node, mut home) = (self.node, self.home());
        D::advance(&mut home, node, ns);
        self.inner.ledger(&home, node).stats.bucket_ns[bucket.index()].add(ns);
        self.record(&mut home, self.task, || TraceEvent::Charge { bucket, ns });
    }

    fn snapshot(&self) -> Snapshot {
        D::snapshot(self)
    }

    fn spawn<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        Self::start(&self.inner, &mut self.home(), self.node, name, false, f)
    }

    fn spawn_daemon<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        Self::start(&self.inner, &mut self.home(), self.node, name, true, f)
    }

    fn yield_now(&self) {
        let mut home = self.sched();
        if self.inner.yield_is_free(&mut home, self.node) {
            return;
        }
        self.block(home, TaskState::Ready, None);
    }

    fn park(&self) {
        self.wait(TaskState::Parked, None);
    }

    fn unpark(&self, t: TaskId) {
        let node = self.node;
        self.inner
            .wake(&mut self.home(), node, |tasks| tasks.unpark(t));
    }

    fn park_for_inbox(&self) {
        self.wait(TaskState::InboxWait, None);
    }

    fn park_for_inbox_until(&self, deadline: Time) {
        self.wait(TaskState::InboxWait, Some(deadline));
    }

    /// Only the timer ends it: the `Sleeping` state drops an `unpark`, and
    /// the timer's generation keeps it from ending a later wait.
    fn sleep(&self, ns: Time) {
        let home = self.sched();
        let at = self.inner.clock(&home, self.node) + ns;
        self.block(home, TaskState::Sleeping, Some(at));
    }

    fn join(&self, t: TaskId) {
        loop {
            let mut home = self.sched();
            if !D::tasks(&mut home, self.node).join(self.task, t) {
                return;
            }
            self.block(home, TaskState::Parked, None);
        }
    }

    fn is_finished(&self, t: TaskId) -> bool {
        D::tasks(&mut self.home(), self.node).is_finished(t)
    }

    fn shutting_down(&self) -> bool {
        D::shutting_down(self)
    }

    fn poll_point(&self) {
        D::poll_point(self)
    }

    fn fault_decision(&self, dst: usize) -> FaultDecision {
        D::fault_decision(self, dst)
    }

    /// The receive is counted by the driver.
    fn send_msg(&self, dst: usize, wire_bytes: usize, delay: Time, payload: Payload) {
        assert!(dst < self.nodes(), "send to nonexistent node {dst}");
        let home = self.home();
        let s = &self.inner.ledger(&home, self.node).stats;
        s.msgs_sent.add(1);
        s.bytes_sent.add(wire_bytes as u64);
        s.msg_size_hist[size_bucket(wire_bytes)].add(1);
        let msg = Msg {
            src: self.node,
            wire_bytes,
            payload,
        };
        D::send(self, home, dst, msg, delay);
    }

    fn try_recv(&self) -> Option<Msg> {
        D::try_recv(self)
    }

    fn node_data<T, G>(&self, init: G) -> &T
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T,
    {
        self.key.check();
        self.inner.machine().data[self.node].get_or_init(init)
    }

    #[inline]
    fn with_ledger<R>(&self, f: impl FnOnce(&Ledger) -> R) -> R {
        let home = self.home();
        f(self.inner.ledger(&home, self.node))
    }

    /// Lent out of the node borrow.
    #[inline]
    fn probe(&self) -> RefMut<'_, Probe> {
        let node = self.node;
        RefMut::map(self.home(), |home| D::probe(home, node))
    }

    #[inline]
    fn tracing(&self) -> bool {
        self.inner.machine().tracing
    }
}
