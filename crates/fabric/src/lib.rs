//! # mpmd-fabric — the transport abstraction under the AM substrate
//!
//! Everything the messaging layer (`mpmd-am`), the threads package
//! (`mpmd-threads`) and the two language runtimes (`mpmd-splitc`,
//! `mpmd-ccxx`) need from the machine underneath is captured by one trait,
//! [`Fabric`]: frame send/receive, node identity, task scheduling
//! (spawn/park/wake, timeout wakes for the reliable-layer pump), clock
//! reads, cost accounting, and the metric/trace hooks. The layers above are
//! generic over `F: Fabric` with **static dispatch**, so the simulated
//! backend compiles to exactly the code it was before the trait existed —
//! byte-identical reports, zero-allocation fast path intact.
//!
//! Two implementations ship here:
//!
//! * [`SimFabric`] — an alias for [`mpmd_sim::Ctx`]; the deterministic
//!   virtual-time kernel. `impl Fabric for Ctx` forwards every method to the
//!   inherent one.
//! * [`LocalFabric`] — a wall-clock backend that runs each node's tasks on
//!   pooled OS threads and carries frames over per-link lock-free rings with
//!   parked-thread wakeup, so the same benchmarks (null-RMI, fig5 exchanges,
//!   EM3D ghost traffic) execute on real hardware and report measured
//!   nanoseconds.
//!
//! The trait deliberately mirrors the `Ctx` API rather than inventing a new
//! one: `Ctx` *is* the contract the layers above were written against; the
//! trait makes that contract explicit and replaceable.

mod local;

pub use local::{LocalConfig, LocalFabric, LocalFabricBuilder};
pub use mpmd_sim::{WaitPhase, WaitPolicy, Waiter};

use mpmd_sim::{
    Bucket, CostModel, Ctx, FaultDecision, Msg, Payload, Snapshot, SpanId, Stats, TaskId, Time,
};
use std::sync::Arc;

/// The simulated-kernel fabric: the existing deterministic virtual-time
/// engine. All historical behavior (scheduling order, charges, reports) is
/// preserved exactly — the trait impl is a pass-through.
pub type SimFabric = Ctx;

/// The machine interface the MPMD communication stack runs on.
///
/// Contract highlights (the conformance suite in `mpmd-am` checks these on
/// every backend):
///
/// * **Per-link FIFO**: frames from node `s` to node `d` are received in
///   send order. No ordering is promised across different (src, dst) pairs.
/// * **Wakeups**: [`Fabric::park_for_inbox`] returns once a frame is
///   delivered to this node (it may also return spuriously; callers
///   re-check). [`Fabric::park_for_inbox_until`] additionally returns when
///   the node clock reaches the deadline — the reliable layer's retransmit
///   pump depends on this.
/// * **`unpark` never races**: an unpark that arrives before the target
///   parks must still wake that park (wakeup tokens are consumable, as with
///   OS thread parkers).
/// * **Clocks are per-node and monotone**, in nanoseconds. On the simulated
///   fabric they advance only by [`Fabric::charge`]; on wall-clock fabrics
///   they advance on their own and `charge` only keeps the cost-bucket
///   ledger.
/// * **Instrumentation is optional**: every metric/trace hook has a no-op
///   default; backends without a tracer simply don't override them.
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

    /// Mutate this node's instrumentation counters.
    fn with_stats<R>(&self, f: impl FnOnce(&mut Stats) -> R) -> R;

    /// Capture all node clocks/stats (quiesce with a barrier first).
    fn snapshot(&self) -> Snapshot;

    // ---- scheduling --------------------------------------------------

    /// Spawn a new task on this node.
    fn spawn<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static;

    /// Spawn a task on an arbitrary node (runtime bootstrap helper).
    fn spawn_on<G>(&self, node: usize, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static;

    /// Spawn a background *daemon* task on this node: excluded from the
    /// liveness condition; must exit promptly once [`Fabric::shutting_down`]
    /// turns true.
    fn spawn_daemon<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static;

    /// Reschedule this task behind any other runnable work.
    fn yield_now(&self);

    /// Park this task until [`Fabric::unpark`] (or a timer) wakes it.
    fn park(&self);

    /// Make a parked task runnable again. Wakeup tokens are consumable: an
    /// unpark delivered before the park still takes effect.
    fn unpark(&self, t: TaskId);

    /// Park until a frame is delivered to this node's inbox (returns
    /// immediately if it is already non-empty; spurious returns allowed).
    fn park_for_inbox(&self);

    /// [`Fabric::park_for_inbox`] with a wake-up deadline on this node's
    /// clock.
    fn park_for_inbox_until(&self, deadline: Time);

    /// Park for `ns` of this node's time.
    fn sleep(&self, ns: Time);

    /// Block until task `t` finishes.
    fn join(&self, t: TaskId);

    /// Whether task `t` has finished.
    fn is_finished(&self, t: TaskId) -> bool;

    /// Whether the engine has begun shutdown because only daemon tasks
    /// remain.
    fn shutting_down(&self) -> bool;

    /// A *poll point*: make all frames due at or before this node's clock
    /// visible, without otherwise rescheduling.
    fn poll_point(&self);

    /// Whether this fabric's clock is real time. On wall-clock fabrics,
    /// layers that rely on virtual-time co-advancement (e.g. the coalescing
    /// linger deadline, which on the simulator is checked whenever the
    /// sender's own clock moves) must drive their deadlines with a daemon
    /// instead. The simulated kernel returns the default `false` and spawns
    /// nothing, keeping its reports byte-identical.
    fn wall_clock(&self) -> bool {
        false
    }

    // ---- faults ------------------------------------------------------

    /// Whether a fault model is installed (gates the AM reliable layer).
    fn faults_enabled(&self) -> bool {
        false
    }

    /// Draw the fate of one transmission attempt to `dst`. Only called when
    /// [`Fabric::faults_enabled`] is true.
    fn fault_decision(&self, dst: usize) -> FaultDecision {
        let _ = dst;
        panic!("fault injection is not supported on this fabric")
    }

    // ---- frame transport ---------------------------------------------

    /// Send `payload` to node `dst`, delivered `delay` ns after this node's
    /// clock. Wall-clock fabrics may ignore `delay` (the real wire supplies
    /// real latency); per-link FIFO order must hold either way.
    fn send_msg(&self, dst: usize, wire_bytes: usize, delay: Time, payload: Payload);

    /// Take the oldest delivered frame, if any.
    fn try_recv(&self) -> Option<Msg>;

    /// Number of delivered, unconsumed frames.
    fn inbox_len(&self) -> usize;

    // ---- per-node typed state ----------------------------------------

    /// Fetch (or lazily create) this node's singleton of type `T`. `init`
    /// must not call back into the fabric.
    fn node_data<T, G>(&self, init: G) -> Arc<T>
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T;

    /// [`Fabric::node_data`] for an arbitrary node (bootstrap helper).
    fn node_data_on<T, G>(&self, node: usize, init: G) -> Arc<T>
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T;

    // ---- instrumentation (all optional) ------------------------------

    /// Whether a tracer is installed.
    fn tracing_enabled(&self) -> bool {
        false
    }

    /// Whether a metrics registry is installed.
    fn metrics_enabled(&self) -> bool {
        false
    }

    /// This node's clock, but only when metrics are on (cheap start-stamp
    /// for latency measurements; pair with [`Fabric::metric_observe_since`]).
    fn metric_now(&self) -> Option<Time> {
        self.metrics_enabled().then(|| self.now())
    }

    /// Record `v` into this node's histogram `name`.
    fn metric_observe(&self, name: &'static str, v: u64) {
        let _ = (name, v);
    }

    /// Record the elapsed time since `t0` into histogram `name`.
    fn metric_observe_since(&self, name: &'static str, t0: Time) {
        let _ = (name, t0);
    }

    /// Record this node's current inbox depth into histogram `name`.
    fn metric_inbox_depth(&self, name: &'static str) {
        let _ = name;
    }

    /// Add `delta` to this node's counter `name`.
    fn metric_counter_add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Add `delta` to this node's keyed counter `name[key]`.
    fn metric_keyed_add(&self, name: &'static str, key: u64, delta: u64) {
        let _ = (name, key, delta);
    }

    /// Set this node's gauge `name` to `v`.
    fn metric_gauge_set(&self, name: &'static str, v: u64) {
        let _ = (name, v);
    }

    /// Open a named span frame on this task; the sentinel `SpanId(0)` means
    /// tracing is off and [`Fabric::span_end`] will ignore it.
    fn span_start(&self, name: &str) -> SpanId {
        let _ = name;
        SpanId(0)
    }

    /// Close a span frame opened by [`Fabric::span_start`].
    fn span_end(&self, id: SpanId) {
        let _ = id;
    }

    /// RAII form of [`Fabric::span_start`] / [`Fabric::span_end`].
    #[must_use = "the span closes when the guard drops"]
    fn span(&self, name: &str) -> FabricSpan<'_, Self> {
        FabricSpan {
            fab: self,
            id: self.span_start(name),
        }
    }

    /// Record the start of an AM handler (frame named `am.handler[<id>]`).
    fn handler_start(&self, handler: u32) {
        let _ = handler;
    }

    /// Close the handler frame opened by [`Fabric::handler_start`].
    fn handler_end(&self, handler: u32) {
        let _ = handler;
    }

    /// Record a reliable-delivery retransmission (point event).
    fn trace_retransmit(&self, dst: usize, seq: u64) {
        let _ = (dst, seq);
    }

    /// Record a coalescing-layer flush (point event).
    fn trace_coalesce_flush(&self, dst: usize, msgs: u64, wire_bytes: usize) {
        let _ = (dst, msgs, wire_bytes);
    }

    /// Record a duplicate-suppression drop (point event).
    fn trace_dup_drop(&self, src: usize, seq: u64) {
        let _ = (src, seq);
    }

    /// Record entry into a global barrier (point event).
    fn barrier_enter(&self, epoch: u64) {
        let _ = epoch;
    }

    /// Record release from a global barrier (point event).
    fn barrier_exit(&self, epoch: u64) {
        let _ = epoch;
    }

    /// Debug marker.
    fn trace(&self, msg: &str) {
        let _ = msg;
    }
}

/// RAII guard returned by [`Fabric::span`]; ends the frame on drop.
pub struct FabricSpan<'a, F: Fabric> {
    fab: &'a F,
    id: SpanId,
}

impl<F: Fabric> FabricSpan<'_, F> {
    /// The underlying span id (sentinel when tracing is off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl<F: Fabric> Drop for FabricSpan<'_, F> {
    fn drop(&mut self) {
        self.fab.span_end(self.id);
    }
}

/// The simulated kernel is a fabric. Every method forwards to the inherent
/// `Ctx` method of the same name, so code that is generic over `F: Fabric`
/// monomorphizes to exactly the direct-call code it replaced.
impl Fabric for Ctx {
    #[inline]
    fn node(&self) -> usize {
        Ctx::node(self)
    }
    #[inline]
    fn nodes(&self) -> usize {
        Ctx::nodes(self)
    }
    #[inline]
    fn task_id(&self) -> TaskId {
        Ctx::task_id(self)
    }
    #[inline]
    fn cost(&self) -> &CostModel {
        Ctx::cost(self)
    }
    #[inline]
    fn now(&self) -> Time {
        Ctx::now(self)
    }
    #[inline]
    fn charge(&self, bucket: Bucket, ns: Time) {
        Ctx::charge(self, bucket, ns)
    }
    #[inline]
    fn with_stats<R>(&self, f: impl FnOnce(&mut Stats) -> R) -> R {
        Ctx::with_stats(self, f)
    }
    fn snapshot(&self) -> Snapshot {
        Ctx::snapshot(self)
    }
    fn spawn<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        Ctx::spawn(self, name, f)
    }
    fn spawn_on<G>(&self, node: usize, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        Ctx::spawn_on(self, node, name, f)
    }
    fn spawn_daemon<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        Ctx::spawn_daemon(self, name, f)
    }
    #[inline]
    fn yield_now(&self) {
        Ctx::yield_now(self)
    }
    fn park(&self) {
        Ctx::park(self)
    }
    fn unpark(&self, t: TaskId) {
        Ctx::unpark(self, t)
    }
    fn park_for_inbox(&self) {
        Ctx::park_for_inbox(self)
    }
    fn park_for_inbox_until(&self, deadline: Time) {
        Ctx::park_for_inbox_until(self, deadline)
    }
    fn sleep(&self, ns: Time) {
        Ctx::sleep(self, ns)
    }
    fn join(&self, t: TaskId) {
        Ctx::join(self, t)
    }
    fn is_finished(&self, t: TaskId) -> bool {
        Ctx::is_finished(self, t)
    }
    fn shutting_down(&self) -> bool {
        Ctx::shutting_down(self)
    }
    #[inline]
    fn poll_point(&self) {
        Ctx::poll_point(self)
    }
    #[inline]
    fn faults_enabled(&self) -> bool {
        Ctx::faults_enabled(self)
    }
    fn fault_decision(&self, dst: usize) -> FaultDecision {
        Ctx::fault_decision(self, dst)
    }
    #[inline]
    fn send_msg(&self, dst: usize, wire_bytes: usize, delay: Time, payload: Payload) {
        Ctx::send_msg(self, dst, wire_bytes, delay, payload)
    }
    #[inline]
    fn try_recv(&self) -> Option<Msg> {
        Ctx::try_recv(self)
    }
    #[inline]
    fn inbox_len(&self) -> usize {
        Ctx::inbox_len(self)
    }
    fn node_data<T, G>(&self, init: G) -> Arc<T>
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T,
    {
        Ctx::node_data(self, init)
    }
    fn node_data_on<T, G>(&self, node: usize, init: G) -> Arc<T>
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T,
    {
        Ctx::node_data_on(self, node, init)
    }
    #[inline]
    fn tracing_enabled(&self) -> bool {
        Ctx::tracing_enabled(self)
    }
    #[inline]
    fn metrics_enabled(&self) -> bool {
        Ctx::metrics_enabled(self)
    }
    #[inline]
    fn metric_now(&self) -> Option<Time> {
        Ctx::metric_now(self)
    }
    fn metric_observe(&self, name: &'static str, v: u64) {
        Ctx::metric_observe(self, name, v)
    }
    fn metric_observe_since(&self, name: &'static str, t0: Time) {
        Ctx::metric_observe_since(self, name, t0)
    }
    fn metric_inbox_depth(&self, name: &'static str) {
        Ctx::metric_inbox_depth(self, name)
    }
    fn metric_counter_add(&self, name: &'static str, delta: u64) {
        Ctx::metric_counter_add(self, name, delta)
    }
    fn metric_keyed_add(&self, name: &'static str, key: u64, delta: u64) {
        Ctx::metric_keyed_add(self, name, key, delta)
    }
    fn metric_gauge_set(&self, name: &'static str, v: u64) {
        Ctx::metric_gauge_set(self, name, v)
    }
    fn span_start(&self, name: &str) -> SpanId {
        Ctx::span_start(self, name)
    }
    fn span_end(&self, id: SpanId) {
        Ctx::span_end(self, id)
    }
    fn handler_start(&self, handler: u32) {
        Ctx::handler_start(self, handler)
    }
    fn handler_end(&self, handler: u32) {
        Ctx::handler_end(self, handler)
    }
    fn trace_retransmit(&self, dst: usize, seq: u64) {
        Ctx::trace_retransmit(self, dst, seq)
    }
    fn trace_coalesce_flush(&self, dst: usize, msgs: u64, wire_bytes: usize) {
        Ctx::trace_coalesce_flush(self, dst, msgs, wire_bytes)
    }
    fn trace_dup_drop(&self, src: usize, seq: u64) {
        Ctx::trace_dup_drop(self, src, seq)
    }
    fn barrier_enter(&self, epoch: u64) {
        Ctx::barrier_enter(self, epoch)
    }
    fn barrier_exit(&self, epoch: u64) {
        Ctx::barrier_exit(self, epoch)
    }
    fn trace(&self, msg: &str) {
        Ctx::trace(self, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_sim::Sim;

    // Exercise the trait surface through a generic function driven by the
    // simulated fabric — proves Ctx satisfies the contract via the
    // forwarding impl (LocalFabric runs the same body in local.rs tests).
    fn ping_pong<F: Fabric>(ctx: &F) {
        if ctx.node() == 0 {
            ctx.send_msg(1, 8, 1_000, Payload::any(7u64));
            ctx.park_for_inbox();
            while ctx.try_recv().is_none() {
                ctx.park_for_inbox();
            }
        } else {
            loop {
                ctx.poll_point();
                if let Some(m) = ctx.try_recv() {
                    assert_eq!(m.src, 0);
                    break;
                }
                ctx.park_for_inbox();
            }
            ctx.send_msg(0, 8, 1_000, Payload::any(8u64));
        }
    }

    #[test]
    fn sim_fabric_ping_pong() {
        let r = Sim::new(2).run(|ctx| ping_pong(&ctx));
        assert_eq!(r.stats[0].msgs_sent, 1);
        assert_eq!(r.stats[1].msgs_sent, 1);
    }

    #[test]
    fn sim_fabric_instrumentation_defaults_off() {
        Sim::new(1).run(|ctx| {
            let f: &dyn Fn(&Ctx) = &|c| {
                // generic-path span on a tracing-off run returns the sentinel
                fn body<F: Fabric>(c: &F) {
                    let sp = Fabric::span(c, "test");
                    assert_eq!(sp.id(), SpanId(0));
                    assert!(!c.tracing_enabled());
                    assert!(c.metric_now().is_none());
                }
                body(c)
            };
            f(&ctx);
        });
    }
}
