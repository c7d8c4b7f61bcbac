//! The baton: cooperative contexts with real stacks, of which exactly one —
//! a task, or the *engine* context of the OS thread that owns the baton —
//! executes at any instant.
//!
//! A scheduler creates a parked context per task (a default [`TaskCell`]),
//! gives it a stack and a body ([`Backend::start`]) and moves the baton
//! between contexts ([`Backend::switch`]); a finished body names its own
//! successor ([`TaskBody`]). Which task runs next is entirely the
//! scheduler's business; what hosts the stacks is the build's ([`BACKEND`]).
//! Two schedulers are built on it, the two drivers of the one handle body:
//! the simulator's virtual-time engine (one baton per simulation) and
//! `LocalFabric`'s run-until-block node scheduler (one baton per node).
//!
//! The baton names its holder. The context that receives it (the engine at
//! [`Backend::engine`], a task at entry, a context returning from
//! [`Backend::switch`]) and nothing else records itself, as a node
//! ([`NodeKey`]) and a context, in one thread-local and in the baton's
//! holder word. Every node-local rule of both schedulers reads them: only
//! the holder borrows a [`BatonCell`], a handle call touches node state only
//! for a task of the handle's node, and a [`NodeCell`](crate::NodeCell) only
//! for one of the node that touched it first. The record also names the
//! slot the context's heap allocations count to
//! ([`CountingAlloc`](crate::CountingAlloc)): one per node of the baton and
//! one for its engine, taken when the baton is made.

use crate::alloc_count::{self, NO_SLOT};
use crate::fabric::{NOT_ITS_NODE, REENTRY};
use crate::host::Host;
use crate::task::TaskId;
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

pub use crate::host::{TaskCell, BACKEND};
pub use crate::task::TaskBody;

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

/// A thread's record: the node and the context that last received a baton on
/// it, and the slot their allocations count to.
type Record = (NodeKey, u32, u32);

/// The record of a thread that holds no baton.
const NOBODY: Record = (NodeKey(NO_NODE as u64), ENGINE, NO_SLOT);

thread_local! {
    static HOLDER: Cell<Record> = const { Cell::new(NOBODY) };
}

/// The allocation slot of the context running on this thread.
#[inline]
pub(crate) fn slot_here() -> u32 {
    HOLDER.get().2
}

/// Run `f`, which must keep the baton, with the calling context's
/// allocations counted to no node: how a snapshot keeps its own out of the
/// counts it reads. Nothing is added and taken back, so a reader on another
/// thread never sees a count that later falls.
pub(crate) fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the record back, on a panic too.
    struct Restore(Record);
    impl Drop for Restore {
        fn drop(&mut self) {
            HOLDER.set(self.0);
        }
    }
    let me = HOLDER.get();
    let _restore = Restore(me);
    HOLDER.set((me.0, me.1, NO_SLOT));
    f()
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
        let (node, context, _) = HOLDER.get();
        (node, context) == (self, task.0)
    }
}

/// What all contexts of one baton share: which baton it is, who holds it,
/// and where its contexts count their allocations.
pub(crate) struct Core {
    serial: u32,
    /// The context key of the last context to receive the baton.
    holder: AtomicU32,
    /// The first node whose tasks the baton runs.
    first: usize,
    /// Allocation slots: the engine's, then one per node from `first`.
    slots: Box<[u32]>,
}

impl Core {
    /// A baton whose tasks run as the nodes in `nodes`.
    pub(crate) fn new(nodes: Range<usize>) -> Arc<Core> {
        let serial = SERIALS.fetch_add(1, Ordering::Relaxed).checked_add(1);
        let serial = serial.expect("fewer than 2^32 batons");
        let holder = AtomicU32::new(ENGINE);
        let slots = (0..=nodes.len()).map(|_| alloc_count::take()).collect();
        let first = nodes.start;
        Arc::new(Core {
            serial,
            holder,
            first,
            slots,
        })
    }

    fn key(&self, node: usize) -> NodeKey {
        assert!(node <= NO_NODE, "a node index fits a key");
        NodeKey((self.serial as u64) << 32 | node as u64)
    }

    /// Node `node`'s allocation slot; [`NO_SLOT`] for a node the baton does
    /// not run.
    fn slot(&self, node: usize) -> u32 {
        let i = node.checked_sub(self.first).map(|i| i + 1);
        i.and_then(|i| self.slots.get(i))
            .copied()
            .unwrap_or(NO_SLOT)
    }

    /// Record the calling context as the holder. Called only where a
    /// context receives the baton: anywhere else it would vouch for a
    /// context that does not hold it.
    fn receive(&self, record: Record) {
        HOLDER.set(record);
        // Ordering: the hand-off already orders the holders; this word only
        // has to differ from a broken baton's view.
        self.holder.store(record.1, Ordering::Relaxed);
    }

    /// Task entry, as task `owner.1` of node `owner.0`.
    pub(crate) fn enter(&self, (node, task): (usize, u32)) {
        self.receive((self.key(node), task, self.slot(node)));
    }

    /// Whether a thread's record names this baton's holder.
    #[inline]
    fn held_by(&self, (node, context, _): Record) -> bool {
        (node.0 >> 32) as u32 == self.serial && context == self.holder.load(Ordering::Relaxed)
    }
}

impl Drop for Core {
    /// No context runs on a dropped baton: its slots go back.
    fn drop(&mut self) {
        self.slots.iter().for_each(|&s| alloc_count::give_back(s));
    }
}

/// The calling thread leaves the baton it ran a task of for good: a pooled
/// thread whose task has ended. It holds no baton, and counts to no node.
#[cfg(not(all(target_arch = "x86_64", unix, not(mpmd_no_fibers))))]
pub(crate) fn leave() {
    HOLDER.set(NOBODY);
}

/// What hosts the task stacks. The build picks it ([`BACKEND`]): fibers on
/// x86-64 unix, pooled OS threads elsewhere and under `--cfg
/// mpmd_no_fibers`. The choice affects only host-side cost; every result is
/// byte-identical on both.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// One pooled OS thread per live task, condvar hand-offs: one futex
    /// wakeup per switch.
    Threads,
    /// Userspace fibers on the baton's own OS thread: a hand-off is a stack
    /// switch, no syscalls.
    Fibers,
}

impl BackendKind {
    /// Its name, as `MPMD_SIM_BACKEND` spells it.
    pub const fn name(self) -> &'static str {
        match self {
            BackendKind::Threads => "threads",
            BackendKind::Fibers => "fibers",
        }
    }
}

/// This build's backend, checked against `MPMD_SIM_BACKEND`: unset or naming
/// [`BACKEND`], the variable selects nothing; any other value, the other
/// backend's name included, is an error naming this build's. Binaries call
/// this at startup to turn a stale environment into a usage error;
/// [`Sim::run`](crate::Sim::run) panics on the same error.
pub fn backend_from_env() -> Result<BackendKind, String> {
    let v = std::env::var_os("MPMD_SIM_BACKEND");
    check_backend_env(v.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// [`backend_from_env`] on the variable's value, `None` when unset.
fn check_backend_env(v: Option<&str>) -> Result<BackendKind, String> {
    match v {
        None => Ok(BACKEND),
        Some(v) if v == BACKEND.name() => Ok(BACKEND),
        Some(other) => Err(format!(
            "MPMD_SIM_BACKEND={other:?} does not select a backend: this build runs tasks on \
             {:?}, and only the build chooses (\"fibers\" on x86-64 unix, \"threads\" \
             elsewhere or with RUSTFLAGS=\"--cfg mpmd_no_fibers\"); unset it",
            BACKEND.name()
        )),
    }
}

/// A baton and the host of its contexts' stacks. Both hosts implement the
/// same protocol, so a scheduler makes identical decisions on either; they
/// differ only in what a handoff costs.
pub struct Backend {
    core: Arc<Core>,
    /// Whether a thread has become the engine.
    taken: AtomicBool,
    host: Host,
}

impl Backend {
    /// A baton whose engine is the thread that calls [`Backend::engine`] and
    /// whose tasks run as the nodes in `nodes`. `fabric` names the scheduler
    /// in a fiber-stack-overflow report.
    pub fn new(fabric: &'static str, nodes: Range<usize>) -> Backend {
        let core = Core::new(nodes);
        let host = Host::new(fabric, Arc::clone(&core));
        let taken = AtomicBool::new(false);
        Backend { core, taken, host }
    }

    /// Node `node`'s key: what its handles carry.
    pub fn node_key(&self, node: usize) -> NodeKey {
        self.core.key(node)
    }

    /// The heap allocations node `node`'s tasks have made so far, counted
    /// when [`CountingAlloc`](crate::CountingAlloc) is the global allocator.
    pub(crate) fn allocs(&self, node: usize) -> u64 {
        alloc_count::count(self.core.slot(node))
    }

    /// The heap allocations the engine has made so far, counted likewise.
    pub(crate) fn engine_allocs(&self) -> u64 {
        alloc_count::count(self.core.slots[0])
    }

    /// Make the calling thread the engine, which runs as no node and holds
    /// the baton until its first switch. Dropping the guard gives the thread
    /// back to the context it ran before: none, or the task a nested run was
    /// started from. Panics the second time.
    pub fn engine(&self) -> Engine {
        assert!(!self.taken.swap(true, Ordering::Relaxed), "one engine");
        let outer = HOLDER.get();
        let slot = self.core.slots[0];
        self.core.receive((self.core.key(NO_NODE), ENGINE, slot));
        Engine(outer)
    }

    /// Give `cell` a stack that will run `body`, as task `owner` = `(node,
    /// task)`, the first time the baton is switched to it. No switch happens
    /// here.
    pub fn start(&self, cell: Arc<TaskCell>, body: TaskBody, owner: (usize, u32)) {
        self.host.start(cell, body, owner);
    }

    /// Move the baton from the running context `from` to the parked context
    /// `to` (`None` is the engine) and return once it comes back to `from`.
    /// Panics unless the caller holds the baton.
    pub fn switch(&self, from: Option<&TaskCell>, to: Option<&TaskCell>) {
        let me = HOLDER.get();
        assert!(self.core.held_by(me), "{OFF_BATON}");
        self.host.switch(from, to);
        self.core.receive(me);
    }
}

/// The engine's hold on its thread ([`Backend::engine`]).
#[must_use = "the thread stops being the engine when this drops"]
pub struct Engine(Record);

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
    fn run_task(body: impl FnOnce(&Arc<Run>) + Send + 'static) {
        let baton = Backend::new("test", 0..2);
        let state = BatonCell::new(&baton, 0);
        let run = Arc::new(Run { baton, state });
        let _engine = run.baton.engine();
        let outcome = Arc::new(Mutex::new(None));
        let (r2, o2) = (Arc::clone(&run), Arc::clone(&outcome));
        let cell = Arc::new(TaskCell::default());
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
        let (a, b) = (Backend::new("test", 0..1), Backend::new("test", 0..1));
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
            assert_eq!(off.join().unwrap(), OFF_BATON);
        });
        drop(engine);
        assert_eq!(panic_message(|| _ = in_a.borrow_mut()), OFF_BATON);
        assert!(in_a.try_borrow().is_none());
    }

    /// A task borrows as a task of its own node and of no other, once at a
    /// time, and a second context that receives the baton while the task
    /// runs (a broken baton, staged here from a helper thread) makes the
    /// task panic at its next borrow.
    #[test]
    fn a_second_running_context_panics() {
        run_task(move |run| {
            let (mine, theirs) = (run.baton.node_key(0), run.baton.node_key(1));
            assert_eq!(NodeKey::here(), mine);
            mine.check();
            assert!(mine.runs(TaskId(TASK.1)) && !mine.runs(TaskId(8)));
            let held = run.state.borrow_at(mine);
            assert_eq!(panic_message(|| _ = run.state.borrow_at(mine)), REENTRY);
            drop(held);
            *run.state.borrow_at(mine) += 1;
            let other_node = || _ = run.state.borrow_at(theirs);
            assert_eq!(panic_message(other_node), NOT_ITS_NODE);

            let r2 = Arc::clone(run);
            std::thread::spawn(move || r2.baton.core.enter((0, 8)))
                .join()
                .expect("helper");
            assert_eq!(panic_message(|| _ = run.state.borrow_mut()), OFF_BATON);
            let as_node = || _ = run.state.borrow_at(mine);
            assert_eq!(panic_message(as_node), OFF_BATON);
            assert!(run.state.try_borrow().is_none());
            // Hand the baton back to this task, so the run can end.
            run.baton.core.enter(TASK);
            *run.state.borrow_mut() += 1;
        });
    }

    /// A task that runs a nested run is the inner engine until that run
    /// ends, and then holds its own baton again, as the same task of the
    /// same node.
    #[test]
    fn a_nested_run_gives_the_outer_holder_back() {
        run_task(move |outer| {
            let key = outer.baton.node_key(0);
            let o2 = Arc::clone(outer);
            run_task(move |inner| {
                *inner.state.borrow_mut() += 1;
                assert_eq!(panic_message(|| _ = o2.state.borrow_mut()), OFF_BATON);
                assert_eq!(panic_message(|| key.check()), NOT_ITS_NODE);
            });
            assert_eq!(NodeKey::here(), key);
            *outer.state.borrow_at(key) += 1;
            *outer.state.borrow_mut() += 1;
        });
    }

    /// `MPMD_SIM_BACKEND` selects nothing: unset or naming this build's
    /// backend it is that backend; anything else, the other backend's name
    /// included, is an error that names this build's and the build switch.
    #[test]
    fn the_backend_env_only_names_this_builds_backend() {
        assert_eq!(check_backend_env(None), Ok(BACKEND));
        assert_eq!(check_backend_env(Some(BACKEND.name())), Ok(BACKEND));
        let other = match BACKEND {
            BackendKind::Threads => BackendKind::Fibers,
            BackendKind::Fibers => BackendKind::Threads,
        };
        for bad in ["", "fiber", "Threads", "FIBERS", "bogus", other.name()] {
            let err = check_backend_env(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(
                err.contains(&format!("runs tasks on {:?}", BACKEND.name())),
                "{err}"
            );
            assert!(err.contains("--cfg mpmd_no_fibers"), "{err}");
        }
    }
}
