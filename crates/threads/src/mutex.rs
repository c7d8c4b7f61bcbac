//! A node-local mutex for simulated threads.
//!
//! Real mutual exclusion is provided by the fabric underneath: on both
//! backends the tasks of one node run one at a time and lose the processor
//! only at explicit scheduling points (the simulator runs one task in the
//! whole machine, `LocalFabric` one per node), so between `lock`'s look at
//! the state and its `park` nothing else touches it. The lock state needs
//! no host lock: it sits in a [`NodeCell`], which makes the type `Sync` and
//! panics when a task of another node touches it. The interesting part is
//! the *modeling*: acquisitions and releases are counted and charged,
//! contended acquisitions block the task and are counted separately (the
//! paper reports that ~95% of lock acquisitions in its applications are
//! contention-less).

use crate::thread::{charge_context_switch, charge_sync_op};
use mpmd_fabric::Fabric;
use mpmd_sim::{NodeCell, TaskId};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

struct LockState {
    locked: bool,
    waiters: VecDeque<TaskId>,
}

/// A mutex usable only by simulated threads on one node.
pub struct Mutex<T> {
    state: NodeCell<LockState>,
    value: UnsafeCell<T>,
}

// SAFETY: access to `value` is guarded by the lock protocol: a `&mut T` is
// only reachable through a `MutexGuard`, which is only constructed after
// setting `locked = true` in the node cell, whose touches are one node's
// tasks', one at a time, ordered by the node's baton.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            state: NodeCell::new(LockState {
                locked: false,
                waiters: VecDeque::new(),
            }),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquire the lock, blocking the simulated thread if contended.
    /// Charges one sync op (plus a context switch if it blocks).
    pub fn lock<'a, F: Fabric>(&'a self, ctx: &'a F) -> MutexGuard<'a, T, F> {
        charge_sync_op(ctx);
        ctx.with_stats(|s| s.lock_acquisitions.add(1));
        let mut first_attempt = true;
        while !self.acquire_or_queue(ctx) {
            if first_attempt {
                ctx.with_stats(|s| s.lock_contended.add(1));
                charge_context_switch(ctx);
                first_attempt = false;
            }
            ctx.park();
        }
        MutexGuard {
            mutex: self,
            ctx: Some(ctx),
        }
    }

    /// Try to acquire without blocking. Charges one sync op either way.
    pub fn try_lock<'a, F: Fabric>(&'a self, ctx: &'a F) -> Option<MutexGuard<'a, T, F>> {
        charge_sync_op(ctx);
        ctx.with_stats(|s| s.lock_acquisitions.add(1));
        let free = self
            .state
            .with(ctx, |st| !std::mem::replace(&mut st.locked, true));
        free.then(|| MutexGuard {
            mutex: self,
            ctx: Some(ctx),
        })
    }

    /// Consume the mutex, returning the value (no accounting — this is a
    /// host-level operation used when tearing down runtime state).
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// The value through exclusive access: nobody else can hold or wait for
    /// the lock, so there is nothing to acquire and nothing to charge.
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Release while parked in a condition-variable wait: unlocks and wakes
    /// the next waiter *without* charging (the paper counts API calls, and
    /// `wait`'s internal unlock is not an API call).
    pub(crate) fn raw_unlock<F: Fabric>(&self, ctx: &F) {
        let next = self.state.with(ctx, |st| {
            debug_assert!(st.locked, "raw_unlock of unlocked mutex");
            st.locked = false;
            st.waiters.pop_front()
        });
        if let Some(t) = next {
            ctx.unpark(t);
        }
    }

    /// Reacquire after a condition-variable wait, without charging.
    pub(crate) fn raw_lock<'a, F: Fabric>(&'a self, ctx: &'a F) -> MutexGuard<'a, T, F> {
        while !self.acquire_or_queue(ctx) {
            ctx.park();
        }
        MutexGuard {
            mutex: self,
            ctx: Some(ctx),
        }
    }

    /// Take the lock if it is free (`true`); otherwise queue the calling
    /// task behind its holder, to park until the unlock that picks it.
    fn acquire_or_queue<F: Fabric>(&self, ctx: &F) -> bool {
        let me = ctx.task_id();
        self.state.with(ctx, |st| {
            if st.locked {
                st.waiters.push_back(me);
                return false;
            }
            st.locked = true;
            true
        })
    }
}

/// RAII guard; unlocking (on drop) charges one sync op and wakes the next
/// waiter. It borrows the locker's fabric handle for that: a clone per guard
/// would be two reference-count updates on a line every node shares.
pub struct MutexGuard<'a, T, F: Fabric> {
    mutex: &'a Mutex<T>,
    /// `None` once [`MutexGuard::release_for_wait`] has defused the guard.
    ctx: Option<&'a F>,
}

impl<'a, T, F: Fabric> MutexGuard<'a, T, F> {
    /// Give the guard up without unlocking: the condition-variable wait
    /// unlocks by hand ([`Mutex::raw_unlock`]).
    pub(crate) fn release_for_wait(mut self) -> &'a Mutex<T> {
        self.ctx = None;
        self.mutex
    }
}

impl<T, F: Fabric> Deref for MutexGuard<'_, T, F> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard implies exclusive ownership (see Mutex).
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T, F: Fabric> DerefMut for MutexGuard<'_, T, F> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T, F: Fabric> Drop for MutexGuard<'_, T, F> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx {
            charge_sync_op(ctx);
            self.mutex.raw_unlock(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_sim::Sim;

    #[test]
    fn try_lock_fails_when_held() {
        Sim::new(1).run(|ctx| {
            let m = Mutex::new(1u8);
            let g = m.lock(&ctx);
            assert!(m.try_lock(&ctx).is_none());
            drop(g);
            assert!(m.try_lock(&ctx).is_some());
        });
    }

    #[test]
    fn into_inner_returns_value() {
        let m = Mutex::new(vec![1, 2, 3]);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn guard_gives_mutable_access() {
        Sim::new(1).run(|ctx| {
            let m = Mutex::new(String::new());
            {
                let mut g = m.lock(&ctx);
                g.push_str("hi");
            }
            assert_eq!(&*m.lock(&ctx), "hi");
        });
    }
}
