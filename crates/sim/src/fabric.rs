//! The [`Fabric`] trait: the one definition of what a backend provides.
//!
//! Everything the messaging layer (`mpmd-am`), the threads package
//! (`mpmd-threads`) and the two language runtimes (`mpmd-splitc`,
//! `mpmd-ccxx`) need from the machine underneath: frame send/receive, node
//! identity, task scheduling (spawn/park/wake, timeout wakes for the
//! reliable-layer pump), clock reads, cost accounting, and the metric/trace
//! hooks. The layers above are generic over `F: Fabric` with **static
//! dispatch**, so each backend compiles to direct calls.
//!
//! The trait lives next to the types it is written in, and so does its one
//! implementation: one body, two drivers. [`Handle`](crate::Handle) writes
//! every operation once over a driver that supplies what differs between
//! the machines — the deterministic virtual-time kernel ([`Ctx`](crate::Ctx))
//! and the wall clock with one OS thread per node
//! ([`LocalFabric`](crate::LocalFabric)); `mpmd-fabric` re-exports them and
//! the trait unchanged. A handle has no inherent twin of any trait method,
//! so calling one on a concrete `Ctx` or `LocalFabric` needs the trait in
//! scope (`use mpmd_sim::Fabric`).

use crate::cost::CostModel;
use crate::event::{Msg, Payload};
use crate::kernel::FaultDecision;
use crate::probe::{Ledger, Probe};
use crate::report::Snapshot;
use crate::stats::{Bucket, StatCells};
use crate::task::TaskId;
use crate::time::Time;
use crate::trace::{SpanId, TraceEvent, TraceRecord};
use std::cell::RefMut;

/// What `unpark`, `join` and `is_finished` panic with, on every backend, when
/// their target is a task of another node.
pub const ACROSS_NODES: &str = "reaches across nodes: only messages cross nodes";

/// What a call through a handle panics with, on every backend, from a
/// closure that runs under the node's borrow (a `with_stats` closure).
pub const REENTRY: &str = "a fabric re-entered from a `with_stats` closure: it runs on the \
                           node's probe and must not call back into the fabric";

/// What a call through a handle panics with, on every backend, when no task
/// of the handle's node makes it.
pub const NOT_ITS_NODE: &str = "a handle works only for a task of its own node, not through \
                                one carried to another node's task, to a thread a task \
                                started, or out of the run";

/// What a blocking call panics with, on every backend, through a handle a
/// sibling task of the same node borrowed.
pub const BORROWED: &str = "a handle blocks only the task it was given to: `park`, `join`, \
                            `sleep`, `yield_now` and `park_for_inbox*` through a handle \
                            borrowed from a sibling task would block the wrong task";

/// The machine interface the MPMD communication stack runs on.
///
/// Two kinds of method (DESIGN.md §4 has the table):
///
/// * **required** — identity, clock and ledger, scheduling, faults,
///   transport, per-node data and the per-node [`Ledger`] and [`Probe`]:
///   every backend defines these;
/// * **provided** — the instrumentation (`with_stats`, `metrics_enabled`,
///   `metric_observe`, `span_start`, `span_end`, `trace_event` and the
///   helpers over them): written once here over `with_ledger`, `probe`,
///   `tracing`, `cost` and `now`; no backend overrides them.
///
/// Contract highlights (the conformance suite in `mpmd-am` checks these on
/// every backend):
///
/// * **Per-link FIFO**: on a fault-free wire, frames from node `s` to node
///   `d` are received in send order whatever their sizes and delays, on
///   both fabrics. No ordering is promised across different (src, dst)
///   pairs, and a fault model may reorder a link.
/// * **Wakeups**: [`Fabric::park_for_inbox`] returns once a frame is
///   delivered to this node (it may also return spuriously; callers
///   re-check). [`Fabric::park_for_inbox_until`] additionally returns when
///   the node clock reaches the deadline — the reliable layer's retransmit
///   pump depends on this.
/// * **Scheduling is node-local**: a task spawns, wakes, joins and asks
///   about tasks of its own node; only messages cross nodes. See
///   [`Fabric::unpark`].
/// * **A handle works only for a task of its own node**: nothing runs beside
///   a node's tasks, so a call through a handle carried to another node's
///   task, to a thread a task started or out of the run panics with
///   [`NOT_ITS_NODE`], on every backend, unless it only asks the handle what
///   it is (`node`, `nodes`, `task_id`, `cost`, `metrics_enabled`; on
///   `LocalFabric`, whose clock is the wall clock, also `now`,
///   `shutting_down` and its inherent `inbox_len`). The check is the baton's
///   ([`crate::baton`]). A sibling task of the same node may count, send and
///   receive through it, but not block: `park`, `park_for_inbox*`, `sleep`,
///   `yield_now`, `join` and a rescheduling `poll_point` through a sibling's
///   handle panic with [`BORROWED`], on every backend.
/// * **Clocks are per-node and monotone**, in nanoseconds. On the simulated
///   fabric they advance only by [`Fabric::charge`]; on wall-clock fabrics
///   they advance on their own and `charge` only keeps the cost-bucket
///   ledger.
pub trait Fabric: Clone + Send + 'static {
    // ---- identity ----------------------------------------------------

    /// This task's node index.
    fn node(&self) -> usize;

    /// Total number of nodes in the machine.
    fn nodes(&self) -> usize;

    /// This task's id.
    fn task_id(&self) -> TaskId;

    // ---- clock & accounting ------------------------------------------

    /// The active cost model (unit costs the layers above charge with).
    fn cost(&self) -> &CostModel;

    /// Current time on this node, in nanoseconds.
    fn now(&self) -> Time;

    /// Attribute `ns` of work to `bucket`. On the simulated fabric this
    /// also advances the node clock; on wall-clock fabrics it only feeds
    /// the per-bucket ledger (time advances by itself).
    fn charge(&self, bucket: Bucket, ns: Time);

    /// Capture all node clocks/stats. The capture holds what the caller has
    /// done so far and everything another node did before sending a frame
    /// that reached the caller, on any chain of frames — so behind a barrier
    /// it is exact — or before any other Acquire/Release hand-off to the
    /// caller. On `LocalFabric` it also holds whatever else the other nodes'
    /// counters read at the time: every counter only grows.
    fn snapshot(&self) -> Snapshot;

    // ---- scheduling --------------------------------------------------

    /// Spawn a new task on this node. Pure scheduling: the *cost* of thread
    /// creation is charged by the threads package, not here.
    fn spawn<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static;

    /// Spawn a background *daemon* task on this node: excluded from the
    /// liveness condition; must exit promptly once [`Fabric::shutting_down`]
    /// turns true.
    fn spawn_daemon<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static;

    /// Reschedule this task behind any other runnable work. Free of modeled
    /// cost (the threads package charges context switches).
    fn yield_now(&self);

    /// Park this task until [`Fabric::unpark`] (or a timer) wakes it.
    fn park(&self);

    /// Make task `t` runnable again if it is blocked in [`Fabric::park`] or
    /// an inbox wait; otherwise the call is dropped — no token is kept, and
    /// one aimed at a task blocked in [`Fabric::join`] does not end the join.
    /// That is sound because scheduling is node-local: `unpark`,
    /// [`Fabric::join`] and [`Fabric::is_finished`] take a task of the
    /// caller's own node and panic with [`ACROSS_NODES`] on any other (a
    /// cross-node wake-up travels as a message, like everything else between
    /// nodes), and tasks of one node are cooperative — nothing runs between a
    /// task's check of its wake condition and its `park`, so a wake-up it
    /// still needs cannot arrive early.
    fn unpark(&self, t: TaskId);

    /// Park until a frame is delivered to this node's inbox (returns
    /// immediately if it is already non-empty; spurious returns allowed).
    /// The primitive beneath both Split-C's spin-polling and the CC++
    /// polling thread.
    fn park_for_inbox(&self);

    /// [`Fabric::park_for_inbox`] with a wake-up deadline on this node's
    /// clock: returns immediately if the deadline has passed.
    fn park_for_inbox_until(&self, deadline: Time);

    /// Park for `ns` of this node's time. No layer above the fabric sleeps;
    /// the benchmark's timer rung and the conformance suite do.
    fn sleep(&self, ns: Time);

    /// Block until task `t`, of this node, finishes. No modeled cost (the
    /// threads package wraps this with its accounting).
    fn join(&self, t: TaskId);

    /// Whether task `t`, of this node, has finished.
    fn is_finished(&self, t: TaskId) -> bool;

    /// Whether the engine has begun shutdown because only daemon tasks
    /// remain.
    fn shutting_down(&self) -> bool;

    /// A *poll point*: make all frames due at or before this node's clock
    /// visible, without otherwise rescheduling. Call before draining the
    /// inbox.
    fn poll_point(&self);

    // ---- faults ------------------------------------------------------

    /// Draw the fate of one transmission attempt to `dst`. Called only when
    /// the cost model carries a fault model (`cost().faults`), which only the
    /// simulator accepts.
    fn fault_decision(&self, dst: usize) -> FaultDecision;

    // ---- frame transport ---------------------------------------------

    /// Send `payload` to node `dst`, delivered `delay` ns after this node's
    /// clock, or 1 ns after the link's previous frame if that is later: on a
    /// fault-free wire the link is FIFO, and only a fault model may reorder
    /// it. Wall-clock fabrics may ignore `delay` (the real wire supplies
    /// real latency) and may make the caller wait for room on a full link —
    /// without running any other task or handler of its node. The messaging
    /// layer charges its own send overhead separately.
    fn send_msg(&self, dst: usize, wire_bytes: usize, delay: Time, payload: Payload);

    /// Take the oldest delivered frame, if any.
    fn try_recv(&self) -> Option<Msg>;

    // ---- per-node typed state ----------------------------------------

    /// This node's singleton of type `T`, made by `init` on first use and
    /// kept for the run in the node's [`NodeData`](crate::NodeData). The
    /// runtime crates keep their per-node state (handler tables, memories,
    /// stub caches) here. `init` may fetch another type; fetching `T` itself
    /// panics, and so does a type past [`NodeData::SLOTS`](crate::NodeData::SLOTS).
    fn node_data<T, G>(&self, init: G) -> &T
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T;

    // ---- instrumentation ---------------------------------------------

    /// Run `f` on this node's [`Ledger`] under the node's borrow, as the
    /// provided counting methods below do: a call back into the fabric panics.
    fn with_ledger<R>(&self, f: impl FnOnce(&Ledger) -> R) -> R;

    /// This node's [`Probe`], borrowed until the guard drops: calling back
    /// into the fabric meanwhile panics on every backend. Tracing goes
    /// through the provided methods below, which are written over it.
    fn probe(&self) -> RefMut<'_, Probe>;

    /// Whether the run records a trace: a plain flag, so that with tracing
    /// off a span or trace event borrows nothing.
    fn tracing(&self) -> bool;

    /// Add to this node's instrumentation counters, as in
    /// `ctx.with_stats(|s| s.polls.add(1))`. Both fabrics hand `f` the node's
    /// totals, which [`Fabric::snapshot`] and the run's report read in place.
    /// `f` must not call back into the fabric: that panics on every backend.
    fn with_stats<R>(&self, f: impl FnOnce(&StatCells) -> R) -> R {
        self.with_ledger(|l| f(&l.stats))
    }

    /// Whether the run keeps metrics (`CostModel::metrics`), so callers can
    /// skip computing observation values when it does not.
    fn metrics_enabled(&self) -> bool {
        self.cost().metrics
    }

    /// Record `v` into this node's histogram `name`.
    fn metric_observe(&self, name: &'static str, v: u64) {
        if self.metrics_enabled() {
            self.with_ledger(|l| l.observe(name, v));
        }
    }

    /// Open a named span frame on this task; the sentinel `SpanId(0)` means
    /// tracing is off and [`Fabric::span_end`] will ignore it. Frames must
    /// strictly nest per task.
    fn span_start(&self, name: &str) -> SpanId {
        if !self.tracing() {
            return SpanId(0);
        }
        let id = self.probe().next_span();
        let name = name.to_string();
        self.trace_event(|| TraceEvent::SpanStart { id, name });
        id
    }

    /// Close a span frame opened by [`Fabric::span_start`]. Ending any frame
    /// but the task's innermost open one panics.
    fn span_end(&self, id: SpanId) {
        if id.is_active() {
            self.trace_event(|| TraceEvent::SpanEnd { id });
        }
    }

    /// Record one trace event on this task, stamped with [`Fabric::now`].
    /// `event` is evaluated only when tracing, so building the event costs
    /// nothing (and allocates nothing) on a tracing-off run.
    fn trace_event(&self, event: impl FnOnce() -> TraceEvent) {
        if self.tracing() {
            let rec = TraceRecord {
                time: self.now(),
                node: self.node(),
                task: self.task_id(),
                event: event(),
            };
            self.probe().record(rec);
        }
    }

    /// This node's clock, but only when metrics are on (cheap start-stamp
    /// for latency measurements; pair with [`Fabric::metric_observe_since`]).
    #[inline]
    fn metric_now(&self) -> Option<Time> {
        self.metrics_enabled().then(|| self.now())
    }

    /// Record the elapsed time since `t0` (a timestamp from
    /// [`Fabric::metric_now`]) into histogram `name`.
    fn metric_observe_since(&self, name: &'static str, t0: Time) {
        if self.metrics_enabled() {
            self.metric_observe(name, self.now().saturating_sub(t0));
        }
    }

    /// RAII form of [`Fabric::span_start`] / [`Fabric::span_end`]: the frame
    /// closes when the guard drops.
    #[must_use = "the span closes when the guard drops"]
    fn span(&self, name: &str) -> SpanGuard<'_, Self> {
        SpanGuard {
            fab: self,
            id: self.span_start(name),
        }
    }
}

/// RAII guard returned by [`Fabric::span`]; ends the frame on drop.
pub struct SpanGuard<'a, F: Fabric> {
    fab: &'a F,
    id: SpanId,
}

impl<F: Fabric> SpanGuard<'_, F> {
    /// The underlying span id (sentinel when tracing is off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl<F: Fabric> Drop for SpanGuard<'_, F> {
    fn drop(&mut self) {
        self.fab.span_end(self.id);
    }
}
