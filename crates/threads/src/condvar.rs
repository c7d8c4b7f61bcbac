//! Condition variables for simulated threads.
//!
//! Like the [`Mutex`] they pair with, they are node-local: the waiter queue
//! sits in a [`NodeCell`], with no host lock, and a task of another node
//! that signals or waits panics.

use crate::mutex::{Mutex, MutexGuard};
use crate::thread::{charge_context_switch, charge_sync_op};
use mpmd_fabric::Fabric;
use mpmd_sim::{NodeCell, TaskId};
use std::collections::VecDeque;

/// A condition variable. `wait` charges one sync op and one context switch;
/// `signal`/`broadcast` charge one sync op each. The unlock/relock performed
/// internally by `wait` is not separately counted (it is not an API call).
pub struct CondVar {
    waiters: NodeCell<VecDeque<TaskId>>,
}

impl Default for CondVar {
    fn default() -> Self {
        Self::new()
    }
}

impl CondVar {
    pub fn new() -> Self {
        CondVar {
            waiters: NodeCell::new(VecDeque::new()),
        }
    }

    /// Atomically release `guard`, park until signalled, reacquire, and
    /// return the new guard. As with POSIX condition variables, callers must
    /// re-check their predicate in a loop (wall-clock fabrics return
    /// spuriously by design).
    ///
    /// Charges one sync op (the wait call) and two context switches — one
    /// for switching away when blocking and one for the scheduler dispatch
    /// when the thread resumes.
    pub fn wait<'a, T, F: Fabric>(
        &self,
        ctx: &'a F,
        guard: MutexGuard<'a, T, F>,
    ) -> MutexGuard<'a, T, F> {
        charge_sync_op(ctx);
        charge_context_switch(ctx);
        let mutex: &'a Mutex<T> = guard.release_for_wait();
        let me = ctx.task_id();
        self.waiters.with(ctx, |w| w.push_back(me));
        mutex.raw_unlock(ctx);
        ctx.park();
        charge_context_switch(ctx);
        mutex.raw_lock(ctx)
    }

    /// Wake one waiter (no-op if none). Charges one sync op.
    pub fn signal<F: Fabric>(&self, ctx: &F) {
        charge_sync_op(ctx);
        let next = self.waiters.with(ctx, VecDeque::pop_front);
        if let Some(t) = next {
            ctx.unpark(t);
        }
    }

    /// Wake all waiters. Charges one sync op.
    pub fn broadcast<F: Fabric>(&self, ctx: &F) {
        charge_sync_op(ctx);
        // Drained in place: the queue keeps its capacity, so a condition
        // variable that is waited on again (a recycled RMI call record's)
        // does not allocate per wait. `unpark` never runs the woken task, so
        // nobody can join the queue while it is borrowed.
        self.waiters.with(ctx, |w| {
            for t in w.drain(..) {
                ctx.unpark(t);
            }
        });
    }

    /// Number of parked waiters (diagnostics), asked by a task of the
    /// condition variable's node.
    pub fn waiter_count<F: Fabric>(&self, ctx: &F) -> usize {
        self.waiters.with(ctx, |w| w.len())
    }

    /// Whether nobody waits, through exclusive access.
    pub(crate) fn is_idle(&mut self) -> bool {
        self.waiters.get_mut().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::{spawn, yield_now};
    use mpmd_sim::Sim;
    use std::sync::Arc;

    #[test]
    fn broadcast_wakes_all() {
        Sim::new(1).run(|ctx| {
            let pair = Arc::new((Mutex::new(0u32), CondVar::new()));
            let mut hs = Vec::new();
            for _ in 0..5 {
                let p = Arc::clone(&pair);
                hs.push(spawn(&ctx, "waiter", move |c| {
                    let (m, cv) = &*p;
                    let mut g = m.lock(&c);
                    while *g == 0 {
                        g = cv.wait(&c, g);
                    }
                }));
            }
            // Let all five park.
            for _ in 0..10 {
                yield_now(&ctx);
            }
            let (m, cv) = &*pair;
            {
                let mut g = m.lock(&ctx);
                *g = 1;
                cv.broadcast(&ctx);
            }
            for h in hs {
                h.join(&ctx);
            }
        });
    }

    #[test]
    fn signal_without_waiters_is_noop() {
        Sim::new(1).run(|ctx| {
            let cv = CondVar::new();
            cv.signal(&ctx);
            cv.broadcast(&ctx);
            assert_eq!(cv.waiter_count(&ctx), 0);
        });
    }

    #[test]
    fn signal_wakes_in_fifo_order() {
        Sim::new(1).run(|ctx| {
            let state = Arc::new((Mutex::new(Vec::<u32>::new()), CondVar::new()));
            let mut hs = Vec::new();
            for i in 0..3u32 {
                let s = Arc::clone(&state);
                hs.push(spawn(&ctx, "w", move |c| {
                    let (m, cv) = &*s;
                    let g = m.lock(&c);
                    let mut g = cv.wait(&c, g);
                    g.push(i);
                }));
                yield_now(&ctx); // ensure deterministic park order: 0,1,2
            }
            let (m, cv) = &*state;
            for _ in 0..3 {
                cv.signal(&ctx);
                yield_now(&ctx);
                yield_now(&ctx);
            }
            for h in hs {
                h.join(&ctx);
            }
            let g = m.lock(&ctx);
            assert_eq!(&*g, &[0, 1, 2]);
        });
    }
}
