//! The task host off x86-64 unix, and under `--cfg mpmd_no_fibers`: every
//! task body runs on an OS thread of a pool, and a strict hand-off keeps the
//! run deterministic — at any instant exactly one context of a baton (its
//! engine, or one task) executes. A start spawns a worker only when more
//! tasks are live than workers: the pool is the baton's peak of live tasks.
//!
//! Scheduling decisions run on whichever OS thread holds the baton. A task
//! reaching a blocking point picks the next task itself (on the state its
//! baton guards) and resumes it directly via its [`HandoffCell`] — one OS
//! wakeup per context switch instead of a round trip through the engine
//! thread. The engine is a context like any task, with a [`HandoffCell`] of
//! its own: it bootstraps the run and then parks there until a task hands it
//! the baton for termination, deadlock diagnosis, or panic propagation.

use crate::baton::{self, BackendKind, Core};
use crate::task::TaskBody;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// This build's host.
pub const BACKEND: BackendKind = BackendKind::Threads;

/// A task's context here: its end of the hand-off.
pub type TaskCell = HandoffCell;

/// The host of one baton's contexts: its pool.
pub(crate) type Host = TaskPool;

/// Lock ignoring poisoning: no code that can panic runs under these locks
/// but the handoff protocol's own asserts, whose panic the run reports.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One context's end of the baton: `true` while that context (a task's OS
/// thread, or the engine thread) holds it or has been handed it.
#[derive(Default)]
pub struct HandoffCell {
    running: Mutex<bool>,
    cv: Condvar,
}

impl HandoffCell {
    /// A cell for a context that is parked (`running == false`: every new
    /// task, as [`Default`] makes) or currently executing (`true`: the
    /// engine at bootstrap).
    pub(crate) fn new(running: bool) -> Self {
        HandoffCell {
            running: Mutex::new(running),
            cv: Condvar::new(),
        }
    }

    /// Hand the baton to the context parked on this cell. Does not block.
    pub(crate) fn resume(&self) {
        let mut r = locked(&self.running);
        debug_assert!(!*r, "resumed a running context");
        *r = true;
        self.cv.notify_all();
    }

    /// Mark the baton as having left this context. Must happen *before*
    /// resuming the successor, so a handoff chain that circles back can
    /// legally resume us before we reach [`HandoffCell::wait_for_turn`] (the
    /// wakeup is latched in `running`, not lost).
    pub(crate) fn begin_yield(&self) {
        let mut r = locked(&self.running);
        debug_assert!(*r, "yield from a parked context");
        *r = false;
    }

    /// Block until someone hands us the baton.
    pub(crate) fn wait_for_turn(&self) {
        let running = locked(&self.running);
        let _turn = self.cv.wait_while(running, |r| !*r);
    }
}

/// A unit of work shipped to a pool worker: the task's handoff cell plus its
/// body; the worker only drives the handoff protocol. The baton records the
/// task as `owner` = `(node, task)` on entry.
struct Job {
    cell: Arc<TaskCell>,
    body: TaskBody,
    owner: (usize, u32),
}

/// The OS threads that host one baton's task bodies, reused: a job waits in
/// one queue for an idle worker, and one that finds none gets a new worker.
pub struct TaskPool(Arc<Pool>);

struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued for an idle worker, or the pool closes.
    cv: Condvar,
    /// The engine's cell: the `None` successor, and the backstop should a
    /// body itself panic through (then nobody else would wake the engine).
    engine: HandoffCell,
    baton: Arc<Core>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Workers holding no job: new ones, and those done with their last.
    idle: usize,
    workers: Vec<thread::JoinHandle<()>>,
    /// The pool is gone: idle workers exit.
    closed: bool,
}

impl TaskPool {
    /// A pool whose engine holds `baton`. Nothing here can overflow into
    /// the heap, so no report names the fabric.
    pub(crate) fn new(_fabric: &'static str, baton: Arc<Core>) -> Self {
        TaskPool(Arc::new(Pool {
            queue: Mutex::default(),
            cv: Condvar::new(),
            engine: HandoffCell::new(true),
            baton,
        }))
    }

    /// Queue the task's body for an idle worker, spawning one when none is
    /// left for it. Returns immediately; the task does not run until it is
    /// handed the baton via `cell`.
    pub(crate) fn start(&self, cell: Arc<TaskCell>, body: TaskBody, owner: (usize, u32)) {
        let mut q = locked(&self.0.queue);
        q.jobs.push_back(Job { cell, body, owner });
        if q.idle < q.jobs.len() {
            let pool = Arc::clone(&self.0);
            let worker = thread::Builder::new()
                .name("mpmd-sim-worker".into())
                .spawn(move || worker_loop(&pool))
                .expect("failed to spawn simulator worker thread");
            q.workers.push(worker);
            q.idle += 1;
            // A queued job always has an idle worker to take it, so the queue
            // holds at most one job per worker before a push. Room for that
            // now means it never grows later, when its length depends on how
            // soon the OS runs the workers: a spawn's allocations do not.
            let room = (q.workers.len() + 1).saturating_sub(q.jobs.len());
            q.jobs.reserve(room);
        }
        self.0.cv.notify_one();
    }

    /// Hand the baton from `from` to `to` (`None` is the engine) and wait
    /// until it comes back: one futex wakeup.
    pub(crate) fn switch(&self, from: Option<&TaskCell>, to: Option<&TaskCell>) {
        let from = from.unwrap_or(&self.0.engine);
        from.begin_yield();
        to.unwrap_or(&self.0.engine).resume();
        from.wait_for_turn();
    }

    #[cfg(test)]
    fn worker_count(&self) -> usize {
        locked(&self.0.queue).workers.len()
    }
}

impl Drop for TaskPool {
    /// Idle workers exit, and are joined when every worker is idle. After a
    /// run that aborted by panic some still host a live parked task, and
    /// then none is joined.
    fn drop(&mut self) {
        let mut q = locked(&self.0.queue);
        q.closed = true;
        self.0.cv.notify_all();
        let workers = std::mem::take(&mut q.workers);
        let all_idle = q.idle == workers.len();
        drop(q);
        for w in workers.into_iter().filter(|_| all_idle) {
            // A worker catches its bodies' panics; nothing is left to report.
            let _ = w.join();
        }
    }
}

/// A worker's one body: idle from its spawn until it takes a job, it runs
/// it and waits again, until the pool closes (a job left then goes unrun).
fn worker_loop(pool: &Pool) {
    loop {
        let mut q = pool
            .cv
            .wait_while(locked(&pool.queue), |q| q.jobs.is_empty() && !q.closed)
            .unwrap_or_else(PoisonError::into_inner);
        let Some(job) = q.jobs.pop_front().filter(|_| !q.closed) else {
            return;
        };
        q.idle -= 1;
        drop(q);
        job.cell.wait_for_turn();
        pool.baton.enter(job.owner);
        // The body is responsible for all kernel bookkeeping, including
        // panic capture and picking the hand-off target. `catch_unwind` is a
        // backstop so a worker never dies holding the baton: should a body
        // unwind anyway, the engine gets it back and diagnoses a deadlock
        // instead of the run hanging. Mark the worker idle *before* waking
        // anyone: the resumed task runs immediately on a single-CPU box, and
        // any task it spawns should find this thread reusable rather than
        // growing the pool.
        let next = catch_unwind(AssertUnwindSafe(job.body)).unwrap_or(None);
        baton::leave();
        locked(&pool.queue).idle += 1;
        next.as_deref().unwrap_or(&pool.engine).resume();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    #[test]
    fn pool_reuses_workers_for_sequential_jobs() {
        let pool = TaskPool::new("test", Core::new(0..1));
        for _ in 0..16 {
            let cell = Arc::new(TaskCell::default());
            pool.start(Arc::clone(&cell), Box::new(|| None), (0, 0));
            pool.switch(None, Some(&cell));
        }
        // The worker marks itself idle before it hands the baton back, so
        // every start after the first finds it reusable.
        assert_eq!(pool.worker_count(), 1);
    }

    #[test]
    fn pool_handles_concurrent_jobs() {
        // Eight live tasks need eight workers; each then finishes in turn,
        // handing the baton back to the engine.
        let pool = TaskPool::new("test", Core::new(0..1));
        let cells: Vec<_> = (0..8).map(|_| Arc::new(TaskCell::default())).collect();
        for c in &cells {
            pool.start(Arc::clone(c), Box::new(|| None), (0, 0));
        }
        assert_eq!(pool.worker_count(), 8);
        for c in cells {
            pool.switch(None, Some(&c));
        }
    }

    #[test]
    fn a_chain_of_tasks_runs_on_two_workers() {
        // Each task starts its successor and hands it the baton: at most two
        // tasks are live at once, so two workers host the whole chain. A
        // worker spawned for a start that the ending task's worker serves
        // must wait for the next job, not exit and leave the pool to grow.
        fn link(pool: &Arc<TaskPool>, left: usize) -> Arc<TaskCell> {
            let cell = Arc::new(TaskCell::default());
            let next = Arc::clone(pool);
            let body = move || (left > 0).then(|| link(&next, left - 1));
            pool.start(Arc::clone(&cell), Box::new(body), (0, 0));
            cell
        }
        let pool = Arc::new(TaskPool::new("test", Core::new(0..1)));
        let first = link(&pool, 999);
        pool.switch(None, Some(&first));
        let workers = pool.worker_count();
        assert!(workers <= 2, "1 000 tasks took {workers} workers");
        assert_eq!(locked(&pool.0.queue).idle, workers, "a worker is busy");
    }

    #[test]
    fn worker_panic_wakes_the_engine() {
        let pool = TaskPool::new("test", Core::new(0..1));
        let cell = Arc::new(TaskCell::default());
        let body = Box::new(|| panic!("task body panicked"));
        pool.start(Arc::clone(&cell), body, (0, 0));
        // The backstop must hand the baton back even though the body
        // panicked.
        pool.switch(None, Some(&cell));
    }
}
