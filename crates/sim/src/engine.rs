//! The simulator front door ([`Sim`]) and the scheduling loop.
//!
//! Scheduling invariant: always advance the runnable node with the smallest
//! virtual clock, applying every pending network event with a timestamp
//! `<=` that clock first. Together with the rule that tasks yield to the
//! scheduler before observing their inbox (see [`SimDriver`]'s
//! `poll_point`), this makes message visibility at poll points exact and the
//! whole simulation a deterministic function of its inputs.
//!
//! The *decision* function ([`decide`]) is pure kernel-state manipulation and
//! runs on whichever context holds the baton. The engine and the tasks are
//! all contexts, and [`Backend::switch`] is the one way the baton moves
//! between two of them. A task reaching a blocking point decides the
//! successor itself and switches to it directly (the driver's `switch_away`)
//! — the engine merely bootstraps the run and is switched back to when
//! termination, deadlock, or a panic needs handling. This halves the OS
//! wakeups per simulated context switch relative to routing every switch
//! through the engine.
//!
//! The kernel is owned by whichever context holds the baton: it is a
//! [`BatonCell`], which the baton lets only its holder borrow, and a handle
//! only a task of its own node (`Handle::home`). [`SimDriver`] is what the
//! one handle body ([`Ctx`]) runs over here.

use crate::baton::{backend_from_env, Backend, BatonCell, NodeKey, TaskCell};
use crate::cost::CostModel;
use crate::ctx::{Ctx, Driver, Machine};
use crate::event::Msg;
use crate::explore::ScheduleOracle;
use crate::fabric::BORROWED;
use crate::kernel::{FaultDecision, Kernel};
use crate::metrics::MetricsRegistry;
use crate::probe::{Ledger, Probe};
use crate::report::{Report, Snapshot};
use crate::sched::NodeTasks;
use crate::task::TaskId;
use crate::time::Time;
use crate::trace::{TraceConfig, TraceEvent, TraceLog};
use std::cell::RefMut;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

/// The simulator's driver: one run's kernel, node data, baton and cost model.
pub struct SimDriver {
    /// All mutable simulation state, owned by the context holding the baton.
    pub(crate) kernel: BatonCell<Kernel>,
    pub(crate) machine: Machine,
    pub(crate) backend: Backend,
}

/// Builder for a simulated multicomputer run.
///
/// ```
/// use mpmd_sim::{Bucket, Fabric, Sim};
///
/// let report = Sim::new(4).run(|ctx| {
///     // one "main" task per node
///     ctx.charge(Bucket::Cpu, 1_000 * (ctx.node() as u64 + 1));
/// });
/// assert_eq!(report.elapsed(), 4_000);
/// ```
pub struct Sim {
    nodes: usize,
    cost: CostModel,
    trace: Option<TraceConfig>,
    oracle: Option<Box<dyn ScheduleOracle>>,
}

impl Sim {
    /// A simulation with `nodes` processing nodes and the default (paper
    /// calibration) cost model.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        Sim {
            nodes,
            cost: CostModel::default(),
            trace: None,
            oracle: None,
        }
    }

    /// Install a [`ScheduleOracle`] to perturb the engine's don't-care
    /// scheduling decisions (exploration harness; see the
    /// [`explore`](crate::explore) module). Without one, every decision
    /// takes the baseline path.
    pub fn schedule_oracle(mut self, oracle: Box<dyn ScheduleOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Override the cost model. Its `metrics` switch
    /// ([`CostModel::with_metrics`]) keeps the run's metrics, returned on
    /// [`Report::metrics`](crate::Report::metrics):
    ///
    /// ```
    /// use mpmd_sim::{CostModel, Fabric, Sim};
    ///
    /// let cost = CostModel::default().with_metrics();
    /// let report = Sim::new(2).cost_model(cost).run(|ctx| {
    ///     ctx.metric_observe("demo.latency_ns", 1_000);
    /// });
    /// let m = report.metrics.expect("the run kept metrics");
    /// assert_eq!(m.hist("demo.latency_ns").unwrap().count, 2);
    /// ```
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enable structured event tracing. The collected
    /// [`TraceLog`](crate::TraceLog) is returned on
    /// [`Report::trace`](crate::Report::trace) after the run.
    ///
    /// ```
    /// use mpmd_sim::{Fabric, Sim, TraceConfig};
    ///
    /// let report = Sim::new(2).tracing(TraceConfig::new()).run(|ctx| {
    ///     let _s = ctx.span("work");
    /// });
    /// assert!(report.trace.is_some());
    /// ```
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Run `main` once per node (as each node's initial task) to completion
    /// of *all* tasks, and return the measurements.
    ///
    /// SPMD programs use the same body everywhere; MPMD programs dispatch on
    /// `ctx.node()` to run different programs on different nodes — exactly
    /// the processor-object model of CC++.
    ///
    /// # Panics
    ///
    /// Propagates any panic raised inside a task, and panics with a state
    /// dump if the system deadlocks (live tasks but no runnable work and no
    /// pending events), and up front if `MPMD_SIM_BACKEND` names anything but
    /// this build's backend ([`backend_from_env`](crate::backend_from_env)).
    pub fn run<F>(self, main: F) -> Report
    where
        F: Fn(Ctx) + Send + Sync + 'static,
    {
        let tracing = self.trace.is_some();
        backend_from_env().unwrap_or_else(|e| panic!("{e}"));
        let backend = Backend::new("simulated");
        let kernel = Kernel::new(
            self.nodes,
            self.trace,
            self.cost.metrics,
            self.cost.faults.clone(),
            self.oracle,
        );
        let inner = Arc::new(SimDriver {
            kernel: BatonCell::new(&backend, kernel),
            machine: Machine::new(self.nodes, self.cost, tracing),
            backend,
        });
        // This thread is the engine until the run ends.
        let _engine = inner.backend.engine();
        let main = Arc::new(main);
        let mut k = inner.kernel.borrow_mut();
        for node in 0..self.nodes {
            let f = Arc::clone(&main);
            Ctx::start(&inner, &mut k, node, "main", false, move |c| f(c));
        }
        drop(k);
        run_engine(&inner);
        // Teardown: every task has finished.
        let mut k = inner.kernel.borrow_mut();
        let trace: Option<_> = k.nodes.iter_mut().map(|n| n.probe.take_trace()).collect();
        snapshot(&k).report(trace.map(|nodes| TraceLog { nodes }))
    }
}

pub(crate) fn run_engine(inner: &Arc<SimDriver>) {
    loop {
        let mut k = inner.kernel.borrow_mut();
        if let Some(p) = k.panic.take() {
            drop(k);
            std::panic::resume_unwind(p);
        }
        if let Some((_, cell)) = decide(&mut k) {
            // Hand the baton to the task; it (and its successors) will hand
            // off among themselves and switch back to us only for
            // termination, deadlock, or panic propagation.
            drop(k);
            inner.backend.switch(None, Some(&cell));
            continue;
        }
        // Nothing runnable.
        let live = k.live();
        if live == 0 {
            return;
        }
        // Only background daemons (reliable-delivery pumps) remain: flip the
        // shutdown flag and wake them so they can observe it and exit. A
        // second idle in this state means a daemon failed to exit, which
        // falls through to the deadlock dump.
        let daemons: usize = k.nodes.iter().map(|n| n.tasks.daemons()).sum();
        if live == daemons && !k.shutting_down {
            k.begin_shutdown();
            continue;
        }
        let dump = k.dump_live();
        drop(k);
        panic!("simulated system deadlocked:\n{dump}");
    }
}

/// Core scheduling choice: apply due events, then pick a runnable task.
///
/// The pick is always the min-clock runnable node's front task (strict
/// conservative order — exactly PR 2's policy, so schedules are
/// bit-identical across substrate changes).
///
/// Event application and the pick both happen under the caller's one
/// kernel borrow. Events are always applied in (time, seq) heap
/// order; the policy only decides *how far* to drain before running a task.
///
/// With a [`ScheduleOracle`] installed, the two don't-care choices inside
/// the loop — which tied head-time event to apply, which clock-tied node to
/// run — are delegated to it (see the [`explore`](crate::explore) module).
/// The oracle is temporarily moved out of the kernel so it can be consulted
/// while kernel methods take `&mut self`.
///
/// `None` means no runnable task: the run is complete if `live == 0`,
/// deadlocked otherwise. The engine materializes the diagnosis.
fn decide(k: &mut Kernel) -> Option<(TaskId, Arc<TaskCell>)> {
    if let Some(mut oracle) = k.oracle.take() {
        let d = decide_inner(k, Some(&mut *oracle));
        k.oracle = Some(oracle);
        return d;
    }
    decide_inner(k, None)
}

fn decide_inner(
    k: &mut Kernel,
    mut oracle: Option<&mut dyn ScheduleOracle>,
) -> Option<(TaskId, Arc<TaskCell>)> {
    loop {
        let chosen = k.peek_min_runnable();
        let due = match (chosen, k.events.peek()) {
            (Some((_, c)), Some(e)) => e.time <= c,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if due {
            match oracle.as_deref_mut() {
                Some(o) => k.apply_next_event_choice(o),
                None => k.apply_next_event(),
            }
            continue;
        }
        let (node, clock) = chosen?;
        let node = match oracle.as_deref_mut() {
            Some(o) => k.choose_tied_node(node, clock, o),
            None => node,
        };
        let next = k.nodes[node].tasks.run_next().expect("ready queue emptied");
        k.emit(node, next.0, TraceEvent::TaskSwitch);
        return Some(next);
    }
}

/// Capture a [`Snapshot`] of all node clocks/stats. Exposed through
/// `Fabric::snapshot`; callers should quiesce (e.g. barrier) first so the
/// snapshot is meaningful.
fn snapshot(k: &Kernel) -> Snapshot {
    let metrics = k.nodes.iter().map(|n| n.ledger.metrics(&n.probe.keyed));
    Snapshot {
        clocks: k.nodes.iter().map(|n| n.clock).collect(),
        stats: k.nodes.iter().map(|n| n.ledger.stats.read()).collect(),
        metrics: k.metrics.then(|| MetricsRegistry {
            nodes: metrics.collect(),
        }),
    }
}

/// What the one handle body runs over on the simulator: the kernel is every
/// node's home, clocks advance by charges, a block posts its timer as an
/// event, and the next task is [`decide`]d on the blocking task's own
/// context.
impl Driver for SimDriver {
    type Home = Kernel;

    #[inline]
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn backend(&self, _node: usize) -> &Backend {
        &self.backend
    }

    #[inline]
    fn home(&self, _node: usize, key: NodeKey) -> RefMut<'_, Kernel> {
        self.kernel.borrow_at(key)
    }

    #[inline]
    fn tasks(k: &mut Kernel, node: usize) -> &mut NodeTasks {
        &mut k.nodes[node].tasks
    }

    #[inline]
    fn wake<R>(&self, k: &mut Kernel, node: usize, rule: impl FnOnce(&mut NodeTasks) -> R) -> R {
        k.wake(node, rule)
    }

    #[inline]
    fn probe(k: &mut Kernel, node: usize) -> &mut Probe {
        &mut k.nodes[node].probe
    }

    #[inline]
    fn ledger<'a>(&'a self, k: &'a Kernel, node: usize) -> &'a Ledger {
        &k.nodes[node].ledger
    }

    #[inline]
    fn clock(&self, k: &Kernel, node: usize) -> Time {
        k.clock(node)
    }

    /// The next scheduling decision reads the new clock, so nothing is
    /// re-keyed here.
    #[inline]
    fn advance(k: &mut Kernel, node: usize, ns: Time) {
        k.nodes[node].clock += ns;
    }

    #[inline]
    fn has_frame(&self, k: &Kernel, node: usize) -> bool {
        !k.nodes[node].inbox.is_empty()
    }

    /// Daemons are excluded from the liveness condition: when only daemons
    /// remain, the engine flips `shutting_down`, wakes them, and expects
    /// them to return.
    fn register(
        &self,
        k: &mut Kernel,
        node: usize,
        name: &str,
        daemon: bool,
        cell: Arc<TaskCell>,
    ) -> TaskId {
        k.nodes[node].tasks.spawn(cell, name.to_string(), daemon)
    }

    /// This task held the baton; pick who gets it next. A captured panic
    /// goes to the engine for prompt propagation, otherwise the baton goes
    /// directly to the next runnable task (one OS wakeup, no engine round
    /// trip). The backend performs the switch once this task's host
    /// resources are reusable, so the successor's spawns find them.
    fn exit(&self, node: usize, id: TaskId, outcome: thread::Result<()>) -> Option<Arc<TaskCell>> {
        let finish = AssertUnwindSafe(|| {
            let mut k = self.kernel.borrow_mut();
            k.wake(node, |tasks| tasks.exit(id));
            if let Err(p) = outcome {
                k.panic.get_or_insert(p);
            }
            if k.panic.is_some() {
                return None;
            }
            decide(&mut k).map(|(_, next)| next)
        });
        // The bookkeeping runs invariant checks and oracle code that can
        // panic too; that also goes to the engine, so the body never unwinds
        // into the backend's stack base.
        catch_unwind(finish).unwrap_or_else(|p| {
            self.kernel.borrow_mut().panic.get_or_insert(p);
            None
        })
    }

    /// If no event and no other task could possibly run before this node's
    /// clock, the reschedule is skipped entirely. The exploration oracle may
    /// force the skipped slow path anyway (requeue + reschedule at unchanged
    /// virtual time), which must be invisible in the results.
    #[inline]
    fn yield_is_free(&self, k: &mut Kernel, node: usize) -> bool {
        // Our own node is not runnable when its ready queue is empty, so any
        // pick is another node, and one strictly behind our clock could
        // still run first.
        let local_ready = k.nodes[node].tasks.ready_len() > 0;
        !local_ready && k.nothing_runs_before(node) && !k.oracle_forces_slow_path()
    }

    /// The kernel bookkeeping is done: decide the successor on *this*
    /// context and switch to it directly. Fast path: if the caller itself is
    /// the best choice, no switch happens at all.
    fn switch_away(h: &Ctx, mut k: RefMut<'_, Kernel>, timer: Option<(Time, u64)>) {
        if let Some((at, gen)) = timer {
            k.post_timeout_wake(h.task, at, gen);
        }
        // Nothing runnable (deadlock diagnosis) or a panic pending: the engine
        // sorts it out. On the deadlock path we are never resumed; the worker
        // thread (or fiber stack) is reclaimed at teardown.
        let next = if k.panic.is_none() {
            decide(&mut k)
        } else {
            None
        };
        drop(k);
        let to = match next {
            // decide() already marked us Running; keep going without a switch.
            Some((next, _)) if next == h.task => return,
            Some((_, cell)) => Some(cell),
            None => None,
        };
        h.inner.backend.switch(Some(&h.cell), to.as_deref());
    }

    fn shutting_down(h: &Ctx) -> bool {
        h.home().shutting_down
    }

    /// Unlike `yield_now`, a poll point does **not** queue behind other
    /// ready tasks on this node — polling the network is not a thread switch
    /// in a non-preemptive system. The task hands control to the engine only
    /// when a due event exists or another node lags behind this node's clock
    /// (and could therefore still produce an event before it), and resumes
    /// at the front of its node's run queue. The exploration hook is
    /// `yield_now`'s; resuming at the front keeps a forced detour
    /// schedule-neutral.
    fn poll_point(h: &Ctx) {
        let mut k = h.home();
        if k.nothing_runs_before(h.node) && !k.oracle_forces_slow_path() {
            return;
        }
        // The detour is a reschedule: it must be the caller's own.
        assert!(h.key.runs(h.task), "{BORROWED}");
        k.nodes[h.node].tasks.requeue(h.task, true);
        Self::switch_away(h, k, None);
    }

    /// `delay` models wire/switch time and must be > 0. A
    /// [`Payload::Short`](crate::Payload::Short) send allocates nothing: the
    /// four argument words travel inline and the event heap holds the
    /// delivery in capacity it reuses.
    fn send(_h: &Ctx, mut k: RefMut<'_, Kernel>, dst: usize, msg: Msg, delay: Time) {
        k.post_deliver(dst, msg, delay);
    }

    fn try_recv(h: &Ctx) -> Option<Msg> {
        h.home().nodes[h.node].inbox.pop_front()
    }

    fn inbox_len(h: &Ctx) -> usize {
        h.home().nodes[h.node].inbox.len()
    }

    /// Drawn from the seeded fault stream, at the one rate every link has.
    /// Panics when no fault model is installed.
    fn fault_decision(h: &Ctx, _dst: usize) -> FaultDecision {
        h.home().fault_decision()
    }

    fn snapshot(h: &Ctx) -> Snapshot {
        snapshot(&h.home())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message `sim.run(main)` panics with. The run is on a helper
    /// thread so that a hang fails the test instead of wedging it.
    fn failing_run_message(sim: Sim, main: impl Fn(Ctx) + Send + Sync + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| sim.run(main)));
            let _ = tx.send(());
            out
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the run hung");
        let payload = helper
            .join()
            .expect("helper thread")
            .expect_err("the run must fail");
        panic_message(payload)
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().expect("panic message").to_string(),
        }
    }

    /// Re-entering the kernel from a closure that runs under its borrow
    /// fails the run with the rule instead of hanging it.
    #[test]
    fn kernel_reentry_panics_on_every_backend() {
        use crate::Fabric;
        let msg = failing_run_message(Sim::new(2), |ctx| {
            ctx.with_stats(|_| ctx.now());
        });
        assert!(msg.contains("must not call back into the fabric"), "{msg}");
    }

    /// A handle works only for a task of its own node. From a thread its
    /// task started (and waits for with a plain `join`, so the task keeps
    /// the baton) every kernel call panics with the rule; after the run, an
    /// escaped handle still says what it is, but reading the kernel panics.
    #[test]
    fn off_baton_use_panics_on_every_backend() {
        use crate::{Bucket, Fabric};
        use std::sync::Mutex;
        type Call = fn(&Ctx);
        let calls: [(&str, Call); 4] = [
            ("charge", |c| c.charge(Bucket::Cpu, 1)),
            ("with_stats", |c| c.with_stats(|s| s.polls.add(1))),
            ("now", |c| _ = c.now()),
            ("node_data", |c| _ = c.node_data(|| 0u8)),
        ];
        let rule = crate::NOT_ITS_NODE;
        let escaped = Arc::new(Mutex::new(None));
        let e2 = Arc::clone(&escaped);
        Sim::new(2).run(move |ctx| {
            if ctx.node() == 1 {
                *e2.lock().unwrap() = Some(ctx.clone());
            }
            for (what, call) in calls {
                let theirs = ctx.clone();
                let payload = std::thread::spawn(move || call(&theirs))
                    .join()
                    .expect_err(what);
                let msg = panic_message(payload);
                assert!(msg.contains(rule), "{what} off the baton: {msg}");
            }
            // The task itself still holds the baton.
            ctx.charge(Bucket::Cpu, 1);
        });
        let outside = escaped
            .lock()
            .unwrap()
            .take()
            .expect("node 1 left its handle");
        assert_eq!((outside.node(), outside.nodes()), (1, 2));
        assert_eq!(outside.task_id(), TaskId(1));
        let caught = catch_unwind(AssertUnwindSafe(|| outside.now()))
            .expect_err("reading the kernel after the run must panic");
        let msg = panic_message(caught);
        assert!(msg.contains(rule), "now after the run: {msg}");
    }

    /// A poll point that has to reschedule is a block: through a handle a
    /// sibling lent, it fails the run with the rule once an event is due, and
    /// goes through while none is.
    #[test]
    fn a_rescheduling_poll_point_through_a_siblings_handle_panics() {
        use crate::{Bucket, Fabric, Payload};
        let msg = failing_run_message(Sim::new(1), |ctx| {
            let parent = ctx.clone();
            let t = ctx.spawn("sibling", move |_| {
                parent.poll_point();
                parent.send_msg(0, 8, 1, Payload::any(0u64));
                parent.charge(Bucket::Cpu, 10);
                parent.poll_point();
            });
            ctx.join(t);
        });
        assert_eq!(msg, crate::BORROWED);
    }

    /// A panic in a finished task's own bookkeeping (here: oracle code run by
    /// its successor pick) reaches the caller of `run` like any task panic.
    #[test]
    fn bookkeeping_panic_is_reraised_on_every_backend() {
        struct Bomb(u32);
        impl ScheduleOracle for Bomb {
            fn choose(&mut self, _: crate::ChoicePoint, _: usize) -> usize {
                self.0 += 1;
                // Call 1 is the engine's three-way node tie at bootstrap;
                // call 2 is the two-way tie the first finished task sees.
                assert!(self.0 < 2, "oracle bomb");
                0
            }
        }
        let sim = Sim::new(3).schedule_oracle(Box::new(Bomb(0)));
        let msg = failing_run_message(sim, |_ctx| {});
        assert!(msg.contains("oracle bomb"), "{msg}");
    }

    /// Waves of 74, then 300, concurrently live tasks: the wider waves run
    /// on the first one's recycled stacks plus fresh ones, and on fibers the
    /// second run starts on the stacks the first handed to the spare list.
    /// Results depend on none of that, nor on the build's host: both builds
    /// check the same pinned clocks and ledgers.
    #[test]
    fn widening_task_waves_match_pinned_clocks() {
        use crate::{Bucket, Fabric};
        let run = || {
            Sim::new(2).run(|ctx| {
                for (wave, width) in [74, 300, 300].into_iter().enumerate() {
                    let handles: Vec<_> = (0..width)
                        .map(|i| {
                            ctx.spawn("wave-worker", move |c| {
                                c.charge(Bucket::Cpu, wave as u64 * 7 + i % 5 + 1);
                            })
                        })
                        .collect();
                    for h in handles {
                        ctx.join(h);
                    }
                }
            })
        };
        for _ in 0..2 {
            let r = run();
            // 220 + (2_100 + 900) + (4_200 + 900) ns of charges per node.
            assert_eq!(r.clocks, [8_320, 8_320]);
            for s in &r.stats {
                let mut want = crate::Stats::default();
                want.bucket_ns[Bucket::Cpu.index()] = 8_320;
                assert_eq!(*s, want);
            }
        }
    }
}
