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
//! The baton is not thread-safe and does not need to be: every method must
//! be called by the context that currently holds it. The same holds for the
//! state a scheduler keeps beside it, which lives in a [`BatonCell`].

use crate::task::{HandoffCell, Job, TaskPool};
use std::cell::{BorrowError, BorrowMutError, Ref, RefCell, RefMut};
use std::sync::Arc;

pub use crate::task::{TaskBody, TaskCell};

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

/// Execution backend hosting the contexts' stacks. Both implement the same
/// baton protocol, so a scheduler makes identical decisions on either; they
/// differ only in what a baton handoff costs on the host.
pub enum Backend {
    /// One OS thread per live task, condvar handoffs (one futex wakeup per
    /// switch). The portable fallback. `engine` is the engine context's own
    /// cell.
    #[doc(hidden)]
    Threads {
        pool: Arc<TaskPool>,
        engine: Arc<HandoffCell>,
    },
    /// All tasks as userspace fibers on the engine's OS thread; a handoff is
    /// a stack switch, no syscalls. Default where supported.
    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    #[doc(hidden)]
    Fiber(Arc<crate::fiber::FiberRt>),
}

impl Backend {
    /// A baton held by the calling context, which becomes its engine.
    /// `fabric` names the scheduler in a fiber-stack-overflow report.
    pub fn new(kind: BackendKind, fabric: &'static str) -> Backend {
        #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
        if kind != BackendKind::Threads {
            return Backend::Fiber(Arc::new(crate::fiber::FiberRt::new(fabric)));
        }
        let _ = fabric;
        assert!(
            kind != BackendKind::Fibers,
            "the fiber backend is not supported on this target; \
             use MPMD_SIM_BACKEND=threads or Sim::backend(BackendKind::Threads)"
        );
        Backend::Threads {
            pool: TaskPool::new(),
            engine: Arc::new(HandoffCell::new(true)),
        }
    }

    /// A parked context for a new task.
    pub fn new_cell(&self) -> TaskCell {
        match self {
            Backend::Threads { .. } => TaskCell::Threads(HandoffCell::new(false)),
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            Backend::Fiber(_) => TaskCell::Fiber(crate::fiber::FiberCell::empty()),
        }
    }

    /// Give `cell` a stack that will run `body` the first time the baton is
    /// switched to it. No switch happens here. `owner` is the `(node, task)`
    /// a stack-overflow report names.
    pub fn start(&self, cell: Arc<TaskCell>, body: TaskBody, owner: (usize, u32)) {
        match self {
            Backend::Threads { pool, engine } => {
                let _ = owner; // an OS thread's guard page reports for itself
                pool.dispatch(Job {
                    cell,
                    body,
                    engine: Arc::clone(engine),
                })
            }
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            Backend::Fiber(rt) => rt.prepare(
                cell.fiber(),
                Box::new(crate::fiber::FiberBody {
                    body,
                    rt: Arc::clone(rt),
                    cell: Arc::clone(&cell),
                }),
                owner,
            ),
        }
    }

    /// Move the baton from the running context `from` to the parked context
    /// `to` (`None` is the engine) and return once it comes back to `from`.
    pub fn switch(&self, from: Option<&TaskCell>, to: Option<&TaskCell>) {
        match self {
            Backend::Threads { engine, .. } => {
                let from = from.map_or(&**engine, TaskCell::thread);
                let to = to.map_or(&**engine, TaskCell::thread);
                from.begin_yield();
                to.resume();
                from.wait_for_turn();
            }
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            Backend::Fiber(rt) => rt.switch(from.map(TaskCell::fiber), to.map(TaskCell::fiber)),
        }
    }
}

/// A scheduler's state, shared through the scheduler's `Arc` but touched
/// only by the context that holds its baton: the simulator's kernel (one
/// baton per run) and each `LocalFabric` node's scheduler (one per node). A
/// `RefCell` with no lock and no atomic; its borrow flag catches a closure
/// run under a borrow that calls back into the scheduler.
pub struct BatonCell<T>(RefCell<T>);

// SAFETY: `BatonCell::new`'s caller guarantees that every borrow is made by
// the context holding the baton the value belongs to. One context holds a
// baton at a time and a baton switch synchronizes (it is a stack switch on
// one thread, or a mutex handoff between two), so the `RefCell` is never
// touched concurrently, and each holder sees everything its predecessors
// wrote. `T: Send` because the value does change OS threads on the threads
// backend; `Send` itself is left to the compiler.
unsafe impl<T: Send> Sync for BatonCell<T> {}

impl<T> BatonCell<T> {
    /// Wrap a scheduler's state.
    ///
    /// # Safety
    ///
    /// Every borrow of the cell must be made by the context that holds the
    /// one baton it belongs to: the scheduler either checks the calling
    /// thread before each borrow or borrows only where it holds the baton by
    /// construction.
    pub unsafe fn new(value: T) -> Self {
        BatonCell(RefCell::new(value))
    }

    /// Borrow mutably; panics if already borrowed.
    #[inline]
    pub fn borrow_mut(&self) -> RefMut<'_, T> {
        self.0.borrow_mut()
    }

    /// Borrow mutably, or fail if already borrowed (a re-entry).
    #[inline]
    pub fn try_borrow_mut(&self) -> Result<RefMut<'_, T>, BorrowMutError> {
        self.0.try_borrow_mut()
    }

    /// Borrow shared, or fail if mutably borrowed.
    #[inline]
    pub fn try_borrow(&self) -> Result<Ref<'_, T>, BorrowError> {
        self.0.try_borrow()
    }
}
