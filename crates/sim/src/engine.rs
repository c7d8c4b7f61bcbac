//! The simulator front door ([`Sim`]) and the scheduling loop.
//!
//! Scheduling invariant: always advance the runnable node with the smallest
//! virtual clock, applying every pending network event with a timestamp
//! `<=` that clock first. Together with the rule that tasks yield to the
//! scheduler before observing their inbox (see `Ctx::poll_point`), this
//! makes message visibility at poll points exact and the whole simulation a
//! deterministic function of its inputs.
//!
//! The *decision* function ([`decide`]) is pure kernel-state manipulation and
//! runs on whichever context holds the baton. The engine and the tasks are
//! all contexts, and [`Backend::switch`] is the one way the baton moves
//! between two of them. A task reaching a blocking point decides the
//! successor itself and switches to it directly ([`switch_from_task`]) — the
//! engine merely bootstraps the run and is switched back to when
//! termination, deadlock, or a panic needs handling. This halves the OS
//! wakeups per simulated context switch relative to routing every switch
//! through the engine.
//!
//! The kernel is owned by whichever context holds the baton: a context that
//! receives it records itself as the run's holder, on its thread and in the
//! run ([`SimInner::receive`]), and every kernel access checks both
//! ([`SimInner::lock_kernel`]).

use crate::baton::{Backend, BackendKind, BatonCell, TaskCell};
use crate::cost::CostModel;
use crate::ctx::Ctx;
use crate::explore::ScheduleOracle;
use crate::kernel::Kernel;
use crate::metrics::MetricsRegistry;
use crate::node_data::NodeData;
use crate::report::{Report, Snapshot};
use crate::task::TaskId;
use crate::trace::{TraceConfig, TraceEvent, TraceLog};
use std::cell::{Cell, RefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Parse an `MPMD_SIM_BACKEND` value. `None` (unset) means the platform
/// default. Kept separate from the env read so it is unit-testable.
pub(crate) fn parse_backend_env(v: Option<&str>) -> Result<BackendKind, String> {
    match v {
        None => Ok(BackendKind::Auto),
        Some("threads") => Ok(BackendKind::Threads),
        Some("fibers") => Ok(BackendKind::Fibers),
        Some(other) => Err(format!(
            "MPMD_SIM_BACKEND={other:?} is not a recognized backend; \
             valid values are \"threads\" and \"fibers\" (unset it for the platform default)"
        )),
    }
}

/// Resolve the backend requested via `MPMD_SIM_BACKEND`, rejecting
/// unrecognized values. Binaries call this at startup to turn a bad
/// environment into a usage error instead of a mid-run panic; `Sim::run`
/// enforces the same check either way.
pub fn backend_from_env() -> Result<BackendKind, String> {
    let v = std::env::var_os("MPMD_SIM_BACKEND");
    let s = v.as_ref().map(|v| v.to_string_lossy().into_owned());
    parse_backend_env(s.as_deref())
}

/// What a task did wrong when the kernel is found borrowed.
const REENTRY: &str = "simulator kernel re-entered from a `with_stats` closure: it runs on the \
                       kernel and must not call back into the fabric";

/// What a caller did wrong when it reaches the kernel without the baton.
const OFF_BATON: &str = "a simulator handle reaches the kernel only from the context that holds \
                         its run's baton: a call that reads or writes the kernel (`now`, \
                         `charge`, `with_stats`, ...) from a thread the task started, after the \
                         run, or from a second context running beside the holder would touch \
                         state the caller does not own";

/// The engine's context key; a task's is its id.
const ENGINE: u32 = u32::MAX;

thread_local! {
    /// The `(run, context key)` whose baton this thread holds. Null on a
    /// thread that runs no simulation context.
    static CURRENT: Cell<(*const SimInner, u32)> = const { Cell::new((std::ptr::null(), 0)) };
}

/// Puts back the `CURRENT` that `Sim::run` found, however the run ends.
struct RestoreCurrent((*const SimInner, u32));

impl Drop for RestoreCurrent {
    fn drop(&mut self) {
        CURRENT.set(self.0);
    }
}

pub(crate) struct SimInner {
    /// All mutable simulation state, owned by the context holding the baton.
    kernel: BatonCell<Kernel>,
    /// Each node's layer singletons, beside the kernel: a lookup borrows nothing.
    pub(crate) node_data: Box<[NodeData]>,
    /// The context key of the baton holder, written by each context as it
    /// receives the baton. A second word beside `CURRENT`: a context running
    /// beside the holder on another thread finds it overwritten.
    holder: AtomicU32,
    pub(crate) backend: Backend,
    pub(crate) cost: CostModel,
    pub(crate) num_nodes: usize,
    /// Immutable for the run: lets trace hooks bail out without reaching
    /// the kernel when the run records no trace.
    pub(crate) tracing_on: bool,
}

impl SimInner {
    /// Record the calling context (`key`: [`ENGINE`] or a task id) as the
    /// baton holder, on this thread and in the run. Called wherever a
    /// context receives the baton: the `Sim::run` bootstrap, the start of a
    /// task body, and the return from `Backend::switch`. Private to this
    /// module: a call anywhere else would vouch for a context that does not
    /// hold the baton.
    #[inline]
    fn receive(&self, key: u32) {
        CURRENT.set((self as *const SimInner, key));
        // Ordering: the baton handoff already orders the holders; this word
        // only has to differ from a broken baton's view.
        self.holder.store(key, Ordering::Relaxed);
    }

    /// Panic unless the caller holds this run's baton as its current holder:
    /// what makes every kernel borrow the holder's, and the `BatonCell` sound.
    #[inline]
    pub(crate) fn check_baton(&self) {
        let (run, key) = CURRENT.get();
        assert!(
            std::ptr::eq(run, self) && key == self.holder.load(Ordering::Relaxed),
            "{OFF_BATON}"
        );
    }

    /// The kernel, borrowed by the baton holder: the single access point. A
    /// failed borrow is a closure run under this one calling back in, a bug.
    #[inline]
    pub(crate) fn lock_kernel(&self) -> RefMut<'_, Kernel> {
        self.check_baton();
        self.kernel
            .try_borrow_mut()
            .unwrap_or_else(|_| panic!("{REENTRY}"))
    }
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
    backend: BackendKind,
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
            backend: BackendKind::Auto,
            oracle: None,
        }
    }

    /// Select the execution backend explicitly, overriding
    /// `MPMD_SIM_BACKEND`. The default ([`BackendKind::Auto`]) consults the
    /// environment and rejects unrecognized values.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
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
    /// pending events).
    pub fn run<F>(self, main: F) -> Report
    where
        F: Fn(Ctx) + Send + Sync + 'static,
    {
        let faults = self.cost.faults.clone();
        let tracing_on = self.trace.is_some();
        // SAFETY: `lock_kernel` is the only borrow, and it checks that the
        // calling thread holds this run's baton as the current holder.
        let kernel = unsafe {
            BatonCell::new(Kernel::new(
                self.nodes,
                self.trace,
                self.cost.metrics,
                faults,
                self.oracle,
            ))
        };
        let inner = Arc::new(SimInner {
            kernel,
            node_data: (0..self.nodes).map(|_| NodeData::default()).collect(),
            holder: AtomicU32::new(ENGINE),
            backend: Backend::new(
                match self.backend {
                    // The env var only steers the default; an explicit
                    // builder choice wins (and a malformed env var still
                    // errors, so a bad configuration never silently changes
                    // the backend).
                    BackendKind::Auto => backend_from_env().unwrap_or_else(|e| panic!("{e}")),
                    k => k,
                },
                "simulated",
            ),
            cost: self.cost,
            num_nodes: self.nodes,
            tracing_on,
        });
        // This thread is the engine: it holds the baton until the first
        // switch, and a task that runs a simulation of its own gets its own
        // baton back when that one ends.
        let _restore = RestoreCurrent(CURRENT.get());
        inner.receive(ENGINE);
        let main = Arc::new(main);
        for node in 0..self.nodes {
            let f = Arc::clone(&main);
            spawn_task(&inner, node, "main".to_string(), false, move |ctx| f(ctx));
        }
        run_engine(&inner);
        // Teardown: every task has finished.
        let mut k = inner.lock_kernel();
        let trace: Option<_> = k.nodes.iter_mut().map(|n| n.probe.take_trace()).collect();
        drop(k);
        snapshot(&inner).report(trace.map(|nodes| TraceLog { nodes }))
    }
}

/// Register a task with the kernel and give it a context that will run its
/// body. Shared by the bootstrap path above and the `Ctx::spawn*` family
/// (`daemon`: see `Ctx::spawn_daemon`).
pub(crate) fn spawn_task<F>(
    inner: &Arc<SimInner>,
    node: usize,
    name: String,
    daemon: bool,
    f: F,
) -> TaskId
where
    F: FnOnce(Ctx) + Send + 'static,
{
    let cell = Arc::new(inner.backend.new_cell());
    let id = inner
        .lock_kernel()
        .register_task(node, name, Arc::clone(&cell), daemon);
    let ctx = Ctx::new(Arc::clone(inner), node, id, Arc::clone(&cell));
    let inner2 = Arc::clone(inner);
    let body = Box::new(move || {
        inner2.receive(id.0);
        let result = catch_unwind(AssertUnwindSafe(|| f(ctx)));
        // This task held the baton; pick who gets it next. A captured panic
        // goes to the engine for prompt propagation, otherwise the baton goes
        // directly to the next runnable task (one OS wakeup, no engine round
        // trip). The backend performs the switch once this task's host
        // resources are reusable, so the successor's spawns find them.
        let finish = AssertUnwindSafe(|| {
            let mut k = inner2.lock_kernel();
            k.wake(node, |tasks| tasks.exit(id));
            if let Err(p) = result {
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
            inner2.lock_kernel().panic.get_or_insert(p);
            None
        })
    });
    inner.backend.start(cell, body, (node, id.0));
    id
}

pub(crate) fn run_engine(inner: &Arc<SimInner>) {
    loop {
        let mut k = inner.lock_kernel();
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
            inner.receive(ENGINE);
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

/// Give up the baton at a task blocking point whose kernel bookkeeping is
/// already done: decide the successor on *this* context and switch to it
/// directly. Fast path: if the caller itself is the best choice, no switch
/// happens at all. Returns once the calling task is resumed.
pub(crate) fn switch_from_task(
    inner: &SimInner,
    mut k: RefMut<'_, Kernel>,
    me: TaskId,
    my_cell: &TaskCell,
) {
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
        Some((next, _)) if next == me => return,
        Some((_, cell)) => Some(cell),
        None => None,
    };
    inner.backend.switch(Some(my_cell), to.as_deref());
    inner.receive(me.0);
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
/// `Ctx::snapshot`; callers should quiesce (e.g. barrier) first so the
/// snapshot is meaningful.
pub(crate) fn snapshot(inner: &SimInner) -> Snapshot {
    let k = inner.lock_kernel();
    let metrics = k.nodes.iter().map(|n| n.probe.metrics());
    Snapshot {
        clocks: k.nodes.iter().map(|n| n.clock).collect(),
        stats: k.nodes.iter().map(|n| n.probe.stats.clone()).collect(),
        metrics: k.metrics.then(|| MetricsRegistry {
            nodes: metrics.collect(),
        }),
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

    fn backends() -> Vec<BackendKind> {
        let mut kinds = vec![BackendKind::Threads];
        if cfg!(all(target_arch = "x86_64", unix, not(mpmd_no_fibers))) {
            kinds.push(BackendKind::Fibers);
        }
        kinds
    }

    /// Re-entering the kernel from a closure that runs under its borrow
    /// fails the run with the rule instead of hanging it.
    #[test]
    fn kernel_reentry_panics_on_every_backend() {
        use crate::Fabric;
        for kind in backends() {
            let msg = failing_run_message(Sim::new(2).backend(kind), |ctx| {
                ctx.with_stats(|_| ctx.now());
            });
            assert!(
                msg.contains("must not call back into the fabric"),
                "{kind:?}: {msg}"
            );
        }
    }

    /// A handle reaches the kernel only from the thread holding its run's
    /// baton. From a thread its task started (and waits for with a plain
    /// `join`, so the task keeps the baton) every kernel call panics with
    /// the rule; after the run, an escaped handle still says what it is, but
    /// reading the kernel panics.
    #[test]
    fn off_baton_use_panics_on_every_backend() {
        use crate::{Bucket, Fabric};
        use std::sync::Mutex;
        type Call = fn(&Ctx);
        let calls: [(&str, Call); 4] = [
            ("charge", |c| c.charge(Bucket::Cpu, 1)),
            ("with_stats", |c| c.with_stats(|s| s.polls += 1)),
            ("now", |c| _ = c.now()),
            ("node_data", |c| _ = c.node_data(|| 0u8)),
        ];
        let rule = "does not own";
        for kind in backends() {
            let escaped = Arc::new(Mutex::new(None));
            let e2 = Arc::clone(&escaped);
            Sim::new(2).backend(kind).run(move |ctx| {
                if ctx.node() == 1 {
                    *e2.lock().unwrap() = Some(ctx.clone());
                }
                for (what, call) in calls {
                    let theirs = ctx.clone();
                    let payload = std::thread::spawn(move || call(&theirs))
                        .join()
                        .expect_err(what);
                    let msg = panic_message(payload);
                    assert!(msg.contains(rule), "{kind:?} {what} off the baton: {msg}");
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
            assert!(msg.contains(rule), "{kind:?} now after the run: {msg}");
        }
    }

    /// A second context that receives the baton while another runs (a
    /// broken baton, staged here from a helper thread) makes the first one
    /// panic at its next kernel visit.
    #[test]
    fn a_second_running_context_panics_at_its_next_kernel_visit() {
        use crate::Fabric;
        for kind in backends() {
            Sim::new(1).backend(kind).run(move |ctx| {
                let inner = Arc::clone(&ctx.inner);
                std::thread::spawn(move || inner.receive(ENGINE))
                    .join()
                    .expect("helper");
                let caught = catch_unwind(AssertUnwindSafe(|| ctx.now()))
                    .expect_err("the first context must not reach the kernel");
                let msg = panic_message(caught);
                assert!(msg.contains("second context"), "{kind:?}: {msg}");
                // Hand the baton back to this task, so the run can end.
                ctx.inner.receive(ctx.task_id().0);
            });
        }
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
        for kind in backends() {
            let sim = Sim::new(3).backend(kind).schedule_oracle(Box::new(Bomb(0)));
            let msg = failing_run_message(sim, |_ctx| {});
            assert!(msg.contains("oracle bomb"), "{kind:?}: {msg}");
        }
    }

    #[test]
    fn backend_env_parsing_is_strict() {
        assert_eq!(parse_backend_env(None), Ok(BackendKind::Auto));
        assert_eq!(parse_backend_env(Some("threads")), Ok(BackendKind::Threads));
        assert_eq!(parse_backend_env(Some("fibers")), Ok(BackendKind::Fibers));
        for bad in ["", "fiber", "thread", "Threads", "FIBERS", "bogus"] {
            let err = parse_backend_env(Some(bad)).expect_err(bad);
            assert!(err.contains("not a recognized backend"), "{err}");
            assert!(err.contains("threads") && err.contains("fibers"), "{err}");
        }
    }
}
