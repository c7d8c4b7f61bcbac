//! CC++ write-once `sync` variables.
//!
//! CC++ achieves synchronization "using write-once sync variables": a reader
//! of an unset sync variable blocks until some thread writes it, after which
//! the value is immutable and reads are non-blocking.

use crate::condvar::CondVar;
use crate::mutex::Mutex;
use mpmd_fabric::Fabric;

/// A write-once synchronization variable.
pub struct SyncVar<T> {
    slot: Mutex<Option<T>>,
    cv: CondVar,
}

impl<T> Default for SyncVar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SyncVar<T> {
    /// A new, unset sync variable.
    pub fn new() -> Self {
        SyncVar {
            slot: Mutex::new(None),
            cv: CondVar::new(),
        }
    }

    /// Set the value, waking all blocked readers. Panics if already set
    /// (write-once semantics are part of the CC++ language definition).
    pub fn write<F: Fabric>(&self, ctx: &F, value: T) {
        let mut g = self.slot.lock(ctx);
        assert!(g.is_none(), "SyncVar written twice");
        *g = Some(value);
        self.cv.broadcast(ctx);
    }

    /// Make the variable unset again, for its next use. Takes `&mut self`:
    /// whoever re-arms holds the only reference, so no reader or writer can
    /// see the variable change, and "write-once" stays true for every
    /// observer. (The RMI runtime recycles one sync variable per call record
    /// this way instead of allocating one per call.)
    pub fn rearm(&mut self) {
        debug_assert!(self.cv.is_idle(), "re-armed under a reader");
        *self.slot.get_mut() = None;
    }

    /// Whether the variable has been written (non-blocking, uncounted probe
    /// used by runtime fast paths).
    pub fn is_set<F: Fabric>(&self, ctx: &F) -> bool {
        let g = self.slot.lock(ctx);
        g.is_some()
    }
}

impl<T: Clone> SyncVar<T> {
    /// Read the value, blocking until it is written.
    pub fn read<F: Fabric>(&self, ctx: &F) -> T {
        let mut g = self.slot.lock(ctx);
        loop {
            if let Some(v) = g.as_ref() {
                return v.clone();
            }
            let sp = ctx.span_start("thr.sv_wait");
            g = self.cv.wait(ctx, g);
            ctx.span_end(sp);
        }
    }

    /// Read without blocking; `None` if unset.
    pub fn try_read<F: Fabric>(&self, ctx: &F) -> Option<T> {
        self.slot.lock(ctx).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::spawn;
    use mpmd_sim::Sim;
    use std::sync::Arc;

    #[test]
    fn read_after_write_is_immediate() {
        Sim::new(1).run(|ctx| {
            let sv = SyncVar::new();
            assert_eq!(sv.try_read(&ctx), None);
            sv.write(&ctx, 7i32);
            assert!(sv.is_set(&ctx));
            assert_eq!(sv.read(&ctx), 7);
            assert_eq!(sv.try_read(&ctx), Some(7));
        });
    }

    #[test]
    fn rearmed_variable_blocks_and_is_written_again() {
        Sim::new(1).run(|ctx| {
            let mut sv = Arc::new(SyncVar::new());
            for round in 0..3u32 {
                Arc::get_mut(&mut sv).expect("sole owner").rearm();
                assert_eq!(sv.try_read(&ctx), None);
                let s = Arc::clone(&sv);
                let reader = spawn(&ctx, "reader", move |c| assert_eq!(s.read(&c), round));
                crate::thread::yield_now(&ctx);
                sv.write(&ctx, round);
                reader.join(&ctx);
            }
        });
    }

    #[test]
    fn multiple_blocked_readers_all_wake() {
        Sim::new(1).run(|ctx| {
            let sv = Arc::new(SyncVar::new());
            let mut hs = Vec::new();
            for _ in 0..4 {
                let s = Arc::clone(&sv);
                hs.push(spawn(&ctx, "reader", move |c| {
                    assert_eq!(s.read(&c), 99u64);
                }));
            }
            crate::thread::yield_now(&ctx);
            sv.write(&ctx, 99u64);
            for h in hs {
                h.join(&ctx);
            }
        });
    }
}
