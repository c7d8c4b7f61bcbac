//! The baton: cooperative contexts with real stacks, of which exactly one —
//! a task, or the *engine* context of the OS thread that owns the baton —
//! executes at any instant.
//!
//! A scheduler creates a parked context per task ([`Backend::new_cell`]),
//! gives it a stack and a body ([`Backend::start`]) and moves the baton
//! between contexts ([`Backend::switch`]); a finished body names its own
//! successor ([`TaskBody`]). Which task runs next is entirely the
//! scheduler's business. Two schedulers are built on it: the simulator's
//! virtual-time engine (one baton per simulation) and `LocalFabric`'s
//! run-until-block node scheduler in `mpmd-fabric` (one baton per node).
//!
//! The baton names its holder. The context that receives it (the engine at
//! [`Backend::engine`], a task at entry, a context returning from
//! [`Backend::switch`]) and nothing else records itself, as a node
//! ([`NodeKey`]) and a context, in one thread-local and in the baton's
//! holder word. Every node-local rule of both schedulers reads them: only
//! the holder borrows a [`BatonCell`], a handle call touches node state only
//! for a task of the handle's node, and a [`NodeCell`](crate::NodeCell) only
//! for one of the node that touched it first.

use crate::fabric::{NOT_ITS_NODE, REENTRY};
use crate::task::{HandoffCell, Job, TaskId, TaskPool};
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

pub use crate::task::{TaskBody, TaskCell};

/// What a baton cell's borrow panics with off its baton.
pub const OFF_BATON: &str = "a baton's state is touched only by the context that holds the \
                             baton: not from a thread a task started, not after the run, and \
                             not by a second context running beside the holder";

/// The context key of a baton's engine; a task's is its id.
const ENGINE: u32 = u32::MAX;

/// The node of a key that names none: an engine's, or no baton's.
const NO_NODE: usize = u32::MAX as usize;

/// Batons made so far in this process: each takes the next serial, from 1.
static SERIALS: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// The node and the context that last received a baton on this thread.
    static HOLDER: Cell<(NodeKey, u32)> = const { Cell::new((NodeKey(NO_NODE as u64), ENGINE)) };
}

/// One node of one baton: the baton's serial in the high half, the node in
/// the low one. No two batons of a process share a serial, so no two nodes
/// of live runs share a key, and no key is 0.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NodeKey(pub(crate) u64);

impl NodeKey {
    /// The node the calling context runs as.
    #[inline]
    pub(crate) fn here() -> NodeKey {
        HOLDER.get().0
    }

    /// Whether this key names node `node` of its baton.
    #[inline]
    pub(crate) fn is(self, node: usize) -> bool {
        self.0 as u32 as usize == node
    }

    /// Panic with [`NOT_ITS_NODE`] unless a task of this node calls.
    #[inline]
    pub fn check(self) {
        assert!(NodeKey::here() == self, "{NOT_ITS_NODE}");
    }

    /// Whether the calling context is task `task` of this node.
    #[inline]
    pub fn runs(self, task: TaskId) -> bool {
        HOLDER.get() == (self, task.0)
    }
}

/// What all contexts of one baton share: which baton it is, and who holds it.
pub(crate) struct Core {
    serial: u32,
    /// The context key of the last context to receive the baton.
    holder: AtomicU32,
}

impl Core {
    pub(crate) fn new() -> Arc<Core> {
        let serial = SERIALS.fetch_add(1, Ordering::Relaxed).checked_add(1);
        let serial = serial.expect("fewer than 2^32 batons");
        let holder = AtomicU32::new(ENGINE);
        Arc::new(Core { serial, holder })
    }

    fn key(&self, node: usize) -> NodeKey {
        assert!(node <= NO_NODE, "a node index fits a key");
        NodeKey((self.serial as u64) << 32 | node as u64)
    }

    /// Record the calling context as the holder. Called only where a
    /// context receives the baton: anywhere else it would vouch for a
    /// context that does not hold it.
    fn receive(&self, (node, context): (NodeKey, u32)) {
        HOLDER.set((node, context));
        // Ordering: the hand-off already orders the holders; this word only
        // has to differ from a broken baton's view.
        self.holder.store(context, Ordering::Relaxed);
    }

    /// Task entry, as task `owner.1` of node `owner.0`.
    pub(crate) fn enter(&self, (node, task): (usize, u32)) {
        self.receive((self.key(node), task));
    }

    /// Whether a thread's record names this baton's holder.
    #[inline]
    fn held_by(&self, (node, context): (NodeKey, u32)) -> bool {
        (node.0 >> 32) as u32 == self.serial && context == self.holder.load(Ordering::Relaxed)
    }
}

/// Which execution backend hosts the task stacks. The choice affects only
/// host-side cost; simulation results are byte-identical across backends.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The platform default: fibers where supported, threads otherwise.
    /// [`Sim`](crate::Sim) consults `MPMD_SIM_BACKEND` (`threads` /
    /// `fibers`) first and rejects unrecognized values with an error naming
    /// the valid ones.
    #[default]
    Auto,
    /// One OS thread per task.
    Threads,
    /// Userspace fibers (x86_64 unix only; selecting it elsewhere panics).
    Fibers,
}

/// Where the contexts' stacks live.
enum Host {
    /// One OS thread per live task, condvar handoffs (one futex wakeup per
    /// switch). The portable fallback.
    Threads(TaskPool),
    /// All tasks as userspace fibers on the engine's OS thread; a handoff is
    /// a stack switch, no syscalls. Default where supported.
    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    Fiber(Arc<crate::fiber::FiberRt>),
}

/// A baton and the execution backend hosting its contexts' stacks. Both
/// backends implement the same protocol, so a scheduler makes identical
/// decisions on either; they differ only in what a handoff costs.
pub struct Backend {
    core: Arc<Core>,
    /// Whether a thread has become the engine.
    taken: AtomicBool,
    host: Host,
}

impl Backend {
    /// A baton whose engine is the thread that calls [`Backend::engine`].
    /// `fabric` names the scheduler in a fiber-stack-overflow report.
    pub fn new(kind: BackendKind, fabric: &'static str) -> Backend {
        let (core, taken) = (Core::new(), AtomicBool::new(false));
        let baton = Arc::clone(&core);
        let host = 'host: {
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            if kind != BackendKind::Threads {
                break 'host Host::Fiber(Arc::new(crate::fiber::FiberRt::new(fabric, baton)));
            }
            let _ = fabric;
            assert!(
                kind != BackendKind::Fibers,
                "the fiber backend is not supported on this target; \
                 use MPMD_SIM_BACKEND=threads or Sim::backend(BackendKind::Threads)"
            );
            Host::Threads(TaskPool::new(baton))
        };
        Backend { core, taken, host }
    }

    /// Node `node`'s key: what its handles carry.
    pub fn node_key(&self, node: usize) -> NodeKey {
        self.core.key(node)
    }

    /// Make the calling thread the engine, which runs as no node and holds
    /// the baton until its first switch. Dropping the guard gives the thread
    /// back to the context it ran before: none, or the task a nested run was
    /// started from. Panics the second time.
    pub fn engine(&self) -> Engine {
        assert!(!self.taken.swap(true, Ordering::Relaxed), "one engine");
        let outer = HOLDER.get();
        self.core.receive((self.core.key(NO_NODE), ENGINE));
        Engine(outer)
    }

    /// A parked context for a new task.
    pub fn new_cell(&self) -> TaskCell {
        match self.host {
            Host::Threads(_) => TaskCell::Threads(HandoffCell::new(false)),
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            Host::Fiber(_) => TaskCell::Fiber(crate::fiber::FiberCell::empty()),
        }
    }

    /// Give `cell` a stack that will run `body`, as task `owner` = `(node,
    /// task)`, the first time the baton is switched to it. No switch happens
    /// here.
    pub fn start(&self, cell: Arc<TaskCell>, body: TaskBody, owner: (usize, u32)) {
        match &self.host {
            Host::Threads(pool) => pool.dispatch(Job { cell, body, owner }),
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            Host::Fiber(rt) => {
                let (rt2, cell2) = (Arc::clone(rt), Arc::clone(&cell));
                let body = crate::fiber::FiberBody {
                    body,
                    rt: rt2,
                    cell: cell2,
                    owner,
                };
                rt.prepare(cell.fiber(), Box::new(body), owner)
            }
        }
    }

    /// Move the baton from the running context `from` to the parked context
    /// `to` (`None` is the engine) and return once it comes back to `from`.
    /// Panics unless the caller holds the baton.
    pub fn switch(&self, from: Option<&TaskCell>, to: Option<&TaskCell>) {
        let me = HOLDER.get();
        assert!(self.core.held_by(me), "{OFF_BATON}");
        match &self.host {
            Host::Threads(pool) => {
                let from = from.map_or(&pool.0.engine, TaskCell::thread);
                let to = to.map_or(&pool.0.engine, TaskCell::thread);
                from.begin_yield();
                to.resume();
                from.wait_for_turn();
            }
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            Host::Fiber(rt) => rt.switch(from.map(TaskCell::fiber), to.map(TaskCell::fiber)),
        }
        self.core.receive(me);
    }
}

/// The engine's hold on its thread ([`Backend::engine`]).
#[must_use = "the thread stops being the engine when this drops"]
pub struct Engine((NodeKey, u32));

impl Drop for Engine {
    fn drop(&mut self) {
        HOLDER.set(self.0);
    }
}

/// A scheduler's state, shared through the scheduler's `Arc` but touched
/// only by the context that holds its baton: the simulator's kernel (one
/// baton per run) and each `LocalFabric` node's scheduler (one per node). A
/// `RefCell` with no lock; its borrow flag catches a closure run under a
/// borrow that calls back into the scheduler.
pub struct BatonCell<T> {
    baton: Arc<Core>,
    value: RefCell<T>,
}

// SAFETY: every borrow first checks that the calling thread's record names
// the cell's baton and the context its holder word names. Only the baton
// writes either, as a context receives it, and one context runs per baton at
// a time; a switch synchronizes (a stack switch on one thread, or a mutex
// handoff between two), so the `RefCell` is never touched concurrently and
// each holder sees everything its predecessors wrote. `T: Send` because the
// value does change OS threads on the threads backend; `Send` itself is left
// to the compiler.
unsafe impl<T: Send> Sync for BatonCell<T> {}

impl<T> BatonCell<T> {
    /// State of `baton`'s scheduler.
    pub fn new(baton: &Backend, value: T) -> Self {
        let (baton, value) = (Arc::clone(&baton.core), RefCell::new(value));
        BatonCell { baton, value }
    }

    /// Borrow mutably as the baton's holder, whichever node it runs as.
    /// Panics with [`OFF_BATON`] from any other context, and if borrowed.
    #[inline]
    pub fn borrow_mut(&self) -> RefMut<'_, T> {
        assert!(self.baton.held_by(HOLDER.get()), "{OFF_BATON}");
        self.value.borrow_mut()
    }

    /// Borrow mutably for a handle of node `key`, as the holder running as a
    /// task of that node. Panics with [`NOT_ITS_NODE`] from a context of any
    /// other node or of none, with [`OFF_BATON`] from a second context
    /// running beside the holder, and with [`REENTRY`] if borrowed: a closure
    /// run under a borrow is calling back in.
    #[inline]
    pub fn borrow_at(&self, key: NodeKey) -> RefMut<'_, T> {
        let me = HOLDER.get();
        assert!(me.0 == key, "{NOT_ITS_NODE}");
        assert!(self.baton.held_by(me), "{OFF_BATON}");
        let value = self.value.try_borrow_mut();
        value.unwrap_or_else(|_| panic!("{REENTRY}"))
    }

    /// Borrow shared, if the calling context holds the baton and nothing
    /// borrows the value mutably.
    #[inline]
    pub fn try_borrow(&self) -> Option<Ref<'_, T>> {
        let held = self.baton.held_by(HOLDER.get());
        held.then(|| self.value.try_borrow().ok()).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    fn backends() -> Vec<BackendKind> {
        let mut kinds = vec![BackendKind::Threads];
        if cfg!(all(target_arch = "x86_64", unix, not(mpmd_no_fibers))) {
            kinds.push(BackendKind::Fibers);
        }
        kinds
    }

    /// A scheduler of one task: a baton and its state.
    struct Run {
        baton: Backend,
        state: BatonCell<u32>,
    }

    /// The task the runs below start: task 7 of node 0.
    const TASK: (usize, u32) = (0, 7);

    /// Make the calling thread the engine of a fresh baton, run `body` as
    /// [`TASK`] until it returns, and end the run. A panic in `body` reaches
    /// the caller.
    fn run_task(kind: BackendKind, body: impl FnOnce(&Arc<Run>) + Send + 'static) {
        let baton = Backend::new(kind, "test");
        let state = BatonCell::new(&baton, 0);
        let run = Arc::new(Run { baton, state });
        let _engine = run.baton.engine();
        let outcome = Arc::new(Mutex::new(None));
        let (r2, o2) = (Arc::clone(&run), Arc::clone(&outcome));
        let cell = Arc::new(run.baton.new_cell());
        let task = move || {
            let out = catch_unwind(AssertUnwindSafe(|| body(&r2)));
            *o2.lock().unwrap() = Some(out);
            None
        };
        run.baton.start(Arc::clone(&cell), Box::new(task), TASK);
        run.baton.switch(None, Some(&cell));
        // The engine holds the baton again.
        *run.state.borrow_mut() += 1;
        let out = outcome.lock().unwrap().take().expect("the task ran");
        out.unwrap_or_else(|p| resume_unwind(p));
    }

    fn panic_message(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().expect("panic message").to_string(),
        }
    }

    /// A cell is borrowed by its baton's holder alone: not from a thread
    /// that runs no context, not by the engine of another baton, not once
    /// the engine has let go. A handle's borrow also needs the holder to be
    /// a task of the handle's node, which an engine never is.
    #[test]
    fn a_baton_cell_borrowed_off_its_baton_panics() {
        for kind in backends() {
            let (a, b) = (Backend::new(kind, "test"), Backend::new(kind, "test"));
            let (in_a, in_b) = (BatonCell::new(&a, 0u32), BatonCell::new(&b, 0u32));
            let engine = a.engine();
            *in_a.borrow_mut() += 1;
            assert!(in_a.try_borrow().is_some());
            assert_eq!(panic_message(|| _ = in_b.borrow_mut()), OFF_BATON);
            assert!(in_b.try_borrow().is_none());
            let as_node = || _ = in_a.borrow_at(a.node_key(0));
            assert_eq!(panic_message(as_node), NOT_ITS_NODE);
            assert_eq!(panic_message(|| a.node_key(0).check()), NOT_ITS_NODE);
            std::thread::scope(|s| {
                let off = s.spawn(|| panic_message(|| _ = in_a.borrow_mut()));
                assert_eq!(off.join().unwrap(), OFF_BATON, "{kind:?}");
            });
            drop(engine);
            assert_eq!(panic_message(|| _ = in_a.borrow_mut()), OFF_BATON);
            assert!(in_a.try_borrow().is_none());
        }
    }

    /// A task borrows as a task of its own node and of no other, once at a
    /// time, and a second context that receives the baton while the task runs (a broken
    /// baton, staged here from a helper thread) makes the task panic at its
    /// next borrow, whichever kind.
    #[test]
    fn a_second_running_context_panics() {
        for kind in backends() {
            run_task(kind, move |run| {
                let (mine, theirs) = (run.baton.node_key(0), run.baton.node_key(1));
                assert_eq!(NodeKey::here(), mine);
                mine.check();
                assert!(mine.runs(TaskId(TASK.1)) && !mine.runs(TaskId(8)));
                let held = run.state.borrow_at(mine);
                assert_eq!(panic_message(|| _ = run.state.borrow_at(mine)), REENTRY);
                drop(held);
                *run.state.borrow_at(mine) += 1;
                let other_node = || _ = run.state.borrow_at(theirs);
                assert_eq!(panic_message(other_node), NOT_ITS_NODE, "{kind:?}");

                let r2 = Arc::clone(run);
                std::thread::spawn(move || r2.baton.core.enter((0, 8)))
                    .join()
                    .expect("helper");
                assert_eq!(panic_message(|| _ = run.state.borrow_mut()), OFF_BATON);
                let as_node = || _ = run.state.borrow_at(mine);
                assert_eq!(panic_message(as_node), OFF_BATON, "{kind:?}");
                assert!(run.state.try_borrow().is_none());
                // Hand the baton back to this task, so the run can end.
                run.baton.core.enter(TASK);
                *run.state.borrow_mut() += 1;
            });
        }
    }

    /// A task that runs a nested run is the inner engine until that run
    /// ends, and then holds its own baton again, as the same task of the
    /// same node.
    #[test]
    fn a_nested_run_gives_the_outer_holder_back() {
        for kind in backends() {
            run_task(kind, move |outer| {
                let key = outer.baton.node_key(0);
                let o2 = Arc::clone(outer);
                run_task(kind, move |inner| {
                    *inner.state.borrow_mut() += 1;
                    assert_eq!(panic_message(|| _ = o2.state.borrow_mut()), OFF_BATON);
                    assert_eq!(panic_message(|| key.check()), NOT_ITS_NODE);
                });
                assert_eq!(NodeKey::here(), key, "{kind:?}");
                *outer.state.borrow_at(key) += 1;
                *outer.state.borrow_mut() += 1;
            });
        }
    }
}
