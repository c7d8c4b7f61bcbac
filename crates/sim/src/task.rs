//! Green-thread execution machinery.
//!
//! Simulated tasks must be *stackful*: application code written against the
//! runtimes blocks in the middle of ordinary Rust call stacks (a remote read
//! deep inside an inner loop parks the task until the reply arrives). We get
//! real stacks by running every task body on an OS thread, but we keep the
//! simulation deterministic with a strict handoff protocol: at any instant
//! exactly one of {engine, one task} is executing. OS threads are pooled and
//! reused across tasks, so spawning a simulated thread does not pay OS-thread
//! creation after warm-up.
//!
//! Scheduling decisions run on whichever OS thread holds the baton. A task
//! reaching a blocking point picks the next task itself (on the kernel it
//! owns) and resumes it directly via its [`HandoffCell`] — one OS wakeup per
//! simulated context switch instead of a round trip through the engine
//! thread. The engine is a context like any task, with a [`HandoffCell`] of
//! its own: it bootstraps the run and then parks there until a task hands it
//! the baton for termination, deadlock diagnosis, or panic propagation.

use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// Identifier of a task: `seq * nodes + node`, where `seq` counts its node's
/// spawns, so an id names its node. Never reused within one run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Per-task baton context, one variant per execution backend. A scheduler
/// uses exactly one backend for all its tasks, so a cell handed to the wrong
/// backend is a logic error and panics. Opaque outside this crate (exported
/// through [`crate::baton`]): the variants' payloads cannot be named there.
pub enum TaskCell {
    /// OS-thread backend: condvar handoff cell.
    #[doc(hidden)]
    Threads(HandoffCell),
    /// Userspace-fiber backend: saved stack pointer + owned stack.
    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    #[doc(hidden)]
    Fiber(crate::fiber::FiberCell),
}

impl TaskCell {
    pub(crate) fn thread(&self) -> &HandoffCell {
        match self {
            TaskCell::Threads(c) => c,
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            TaskCell::Fiber(_) => panic!("fiber cell used by the threads backend"),
        }
    }

    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    pub(crate) fn fiber(&self) -> &crate::fiber::FiberCell {
        match self {
            TaskCell::Fiber(c) => c,
            TaskCell::Threads(_) => panic!("threads cell used by the fiber backend"),
        }
    }
}

/// One context's end of the baton: `true` while that context (a task's OS
/// thread, or the engine thread) holds it or has been handed it.
pub struct HandoffCell {
    running: Mutex<bool>,
    cv: Condvar,
}

impl HandoffCell {
    /// A cell for a context that is parked (`running == false`: every new
    /// task) or currently executing (`true`: the engine at bootstrap).
    pub(crate) fn new(running: bool) -> Self {
        HandoffCell {
            running: Mutex::new(running),
            cv: Condvar::new(),
        }
    }

    /// Hand the baton to the context parked on this cell. Does not block.
    pub(crate) fn resume(&self) {
        let mut r = self.running.lock();
        debug_assert!(!*r, "resumed a running context");
        *r = true;
        self.cv.notify_all();
    }

    /// Mark the baton as having left this context. Must happen *before*
    /// resuming the successor, so a handoff chain that circles back can
    /// legally resume us before we reach [`HandoffCell::wait_for_turn`] (the
    /// wakeup is latched in `running`, not lost).
    pub(crate) fn begin_yield(&self) {
        let mut r = self.running.lock();
        debug_assert!(*r, "yield from a parked context");
        *r = false;
    }

    /// Block until someone hands us the baton.
    pub(crate) fn wait_for_turn(&self) {
        let mut r = self.running.lock();
        while !*r {
            self.cv.wait(&mut r);
        }
    }
}

/// What a task body returns: who gets the baton next, `None` meaning the
/// engine (nothing runnable, or a panic to propagate). The body does all
/// kernel bookkeeping and *picks* the successor; the backend performs the
/// switch once the finished task's host resources are reusable.
pub type TaskBody = Box<dyn FnOnce() -> Option<Arc<TaskCell>> + Send>;

/// A unit of work shipped to a pool worker: the task's handoff cell plus its
/// body; the worker only drives the handoff protocol. `engine` is the
/// engine's cell — the `None` successor, and the backstop should the body
/// itself panic through (then nobody else will ever wake the engine).
pub(crate) struct Job {
    pub(crate) cell: Arc<TaskCell>,
    pub(crate) body: TaskBody,
    pub(crate) engine: Arc<HandoffCell>,
}

enum WorkerCmd {
    Run(Job),
    Shutdown,
}

struct WorkerSlot {
    cmd: Mutex<Option<WorkerCmd>>,
    cv: Condvar,
    /// True from dispatch until the hosted task body has fully completed.
    busy: AtomicBool,
}

struct Worker {
    slot: Arc<WorkerSlot>,
    handle: Option<thread::JoinHandle<()>>,
}

/// Pool of reusable OS threads that host task bodies.
pub struct TaskPool {
    workers: Mutex<Vec<Worker>>,
}

impl TaskPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TaskPool {
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Hand a job to an idle worker, or spawn a new worker. Returns
    /// immediately; the task does not run until it is handed the baton via
    /// `job.cell`.
    pub(crate) fn dispatch(&self, job: Job) {
        let workers = self.workers.lock();
        for w in workers.iter() {
            if !w.slot.busy.load(Ordering::Acquire) {
                // A non-busy worker is parked waiting for a command (or about
                // to be); its cmd slot is empty.
                w.slot.busy.store(true, Ordering::Release);
                let mut cmd = w.slot.cmd.lock();
                debug_assert!(cmd.is_none(), "idle worker had a pending command");
                *cmd = Some(WorkerCmd::Run(job));
                w.slot.cv.notify_all();
                return;
            }
        }
        drop(workers);
        let slot = Arc::new(WorkerSlot {
            cmd: Mutex::new(Some(WorkerCmd::Run(job))),
            cv: Condvar::new(),
            busy: AtomicBool::new(true),
        });
        let slot2 = Arc::clone(&slot);
        let handle = thread::Builder::new()
            .name("mpmd-sim-worker".into())
            .spawn(move || worker_loop(slot2))
            .expect("failed to spawn simulator worker thread");
        self.workers.lock().push(Worker {
            slot,
            handle: Some(handle),
        });
    }

    #[cfg(test)]
    fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        let mut workers = std::mem::take(&mut *self.workers.lock());
        // Queue a shutdown for every worker whose command slot is free. A
        // worker still hosting a live parked task (possible only if the
        // simulation aborted by panic) keeps its Run job in flight and is
        // detached below rather than joined.
        for w in &workers {
            let mut cmd = w.slot.cmd.lock();
            if cmd.is_none() {
                *cmd = Some(WorkerCmd::Shutdown);
                w.slot.cv.notify_all();
            }
        }
        for w in &mut workers {
            if !w.slot.busy.load(Ordering::Acquire) {
                if let Some(h) = w.handle.take() {
                    let _ = h.join();
                }
            }
            // Busy (or just-finishing) workers: detach. A just-finishing
            // worker will observe the queued Shutdown and exit cleanly.
        }
    }
}

fn worker_loop(slot: Arc<WorkerSlot>) {
    loop {
        let cmd = {
            let mut guard = slot.cmd.lock();
            loop {
                if let Some(c) = guard.take() {
                    break c;
                }
                slot.cv.wait(&mut guard);
            }
        };
        match cmd {
            WorkerCmd::Shutdown => return,
            WorkerCmd::Run(job) => {
                job.cell.thread().wait_for_turn();
                // The body is responsible for all kernel bookkeeping,
                // including panic capture and picking the hand-off target.
                // `catch_unwind` is a backstop so a worker never dies holding
                // the baton: should a body unwind anyway, the engine gets it
                // back and diagnoses a deadlock instead of the run hanging.
                // Mark the worker idle *before*
                // waking anyone: the resumed task runs immediately on a
                // single-CPU box, and any task it spawns should find this
                // thread reusable rather than growing the pool.
                let next = catch_unwind(AssertUnwindSafe(job.body)).unwrap_or(None);
                slot.busy.store(false, Ordering::Release);
                next.as_deref()
                    .map_or(&*job.engine, TaskCell::thread)
                    .resume();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn handoff_round_trip() {
        // The engine is a context with a cell of its own: each side yields
        // its cell, resumes the other's, and waits for its turn.
        let task = Arc::new(HandoffCell::new(false));
        let engine = Arc::new(HandoffCell::new(true));
        let (t2, e2) = (Arc::clone(&task), Arc::clone(&engine));
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let t = thread::spawn(move || {
            t2.wait_for_turn();
            h2.fetch_add(1, Ordering::SeqCst);
            t2.begin_yield();
            e2.resume();
            t2.wait_for_turn();
            h2.fetch_add(1, Ordering::SeqCst);
            e2.resume();
        });
        for round in 1..=2 {
            assert_eq!(hits.load(Ordering::SeqCst), round - 1);
            engine.begin_yield();
            task.resume();
            engine.wait_for_turn();
            assert_eq!(hits.load(Ordering::SeqCst), round);
        }
        t.join().unwrap();
    }

    #[test]
    fn handoff_wakeup_is_latched() {
        // A resume that lands before the task reaches wait_for_turn must not
        // be lost — this is what lets a handoff chain circle back to a task
        // that has begun yielding but not yet parked.
        let cell = HandoffCell::new(false);
        cell.resume();
        cell.wait_for_turn(); // returns immediately
        cell.begin_yield();
        cell.resume();
        cell.wait_for_turn(); // returns immediately again
    }

    fn new_cell() -> Arc<TaskCell> {
        Arc::new(TaskCell::Threads(HandoffCell::new(false)))
    }

    fn idle_job(cell: &Arc<TaskCell>, engine: &Arc<HandoffCell>) -> Job {
        Job {
            cell: Arc::clone(cell),
            body: Box::new(|| None),
            engine: Arc::clone(engine),
        }
    }

    #[test]
    fn pool_reuses_workers_for_sequential_jobs() {
        let pool = TaskPool::new();
        let engine = Arc::new(HandoffCell::new(true));
        for _ in 0..16 {
            let cell = new_cell();
            pool.dispatch(idle_job(&cell, &engine));
            engine.begin_yield();
            cell.thread().resume();
            engine.wait_for_turn();
        }
        // The worker marks itself idle before it hands the baton back, so
        // every dispatch after the first finds it reusable.
        assert_eq!(pool.worker_count(), 1);
    }

    #[test]
    fn pool_handles_concurrent_jobs() {
        // Eight live tasks need eight workers; each then finishes in turn,
        // handing the baton back to the engine.
        let pool = TaskPool::new();
        let engine = Arc::new(HandoffCell::new(true));
        let cells: Vec<_> = (0..8).map(|_| new_cell()).collect();
        for c in &cells {
            pool.dispatch(idle_job(c, &engine));
        }
        assert_eq!(pool.worker_count(), 8);
        for c in cells {
            engine.begin_yield();
            c.thread().resume();
            engine.wait_for_turn();
        }
    }

    #[test]
    fn worker_panic_wakes_the_engine() {
        let pool = TaskPool::new();
        let engine = Arc::new(HandoffCell::new(true));
        let cell = new_cell();
        pool.dispatch(Job {
            cell: Arc::clone(&cell),
            body: Box::new(|| panic!("task body panicked")),
            engine: Arc::clone(&engine),
        });
        engine.begin_yield();
        cell.thread().resume();
        // The backstop must hand the baton back even though the body
        // panicked.
        engine.wait_for_turn();
    }
}
