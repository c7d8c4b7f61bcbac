//! Thread spawn/join/yield with cost accounting.

use mpmd_fabric::Fabric;
use mpmd_sim::{Bucket, TaskId};

/// Handle to a spawned thread.
#[derive(Clone, Debug)]
pub struct Thread {
    id: TaskId,
}

impl Thread {
    /// The underlying simulator task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Block until the thread completes. Charges a context switch only if we
    /// actually block.
    pub fn join<F: Fabric>(&self, ctx: &F) {
        if !ctx.is_finished(self.id) {
            let _sp = ctx.span("thr.join");
            charge_context_switch(ctx);
            ctx.join(self.id);
            return;
        }
        ctx.join(self.id);
    }

    /// Whether the thread has completed.
    pub fn is_finished<F: Fabric>(&self, ctx: &F) -> bool {
        ctx.is_finished(self.id)
    }
}

/// Fork a new thread on the caller's node. Charges one thread-create.
pub fn spawn<Fab, F>(ctx: &Fab, name: &str, f: F) -> Thread
where
    Fab: Fabric,
    F: FnOnce(Fab) + Send + 'static,
{
    let cost = ctx.cost().threads.create;
    ctx.charge(Bucket::ThreadMgmt, cost);
    ctx.with_stats(|s| s.thread_creates.add(1));
    Thread {
        id: ctx.spawn(name, f),
    }
}

/// Voluntarily yield the processor. Charges one context switch.
pub fn yield_now<F: Fabric>(ctx: &F) {
    charge_context_switch(ctx);
    ctx.yield_now();
}

/// Charge and count one context switch. A blocking wait charges one when it
/// blocks and one when it resumes ([`CondVar::wait`](crate::CondVar::wait)),
/// a yield one, and CC++'s polling thread one per wake-up with work.
pub fn charge_context_switch<F: Fabric>(ctx: &F) {
    let cost = ctx.cost().threads.context_switch;
    ctx.charge(Bucket::ThreadMgmt, cost);
    ctx.with_stats(|s| s.context_switches.add(1));
}

/// Charge and count one synchronization operation (a lock, unlock, signal or
/// wait API call).
pub fn charge_sync_op<F: Fabric>(ctx: &F) {
    let cost = ctx.cost().threads.sync_op;
    ctx.charge(Bucket::ThreadSync, cost);
    ctx.with_stats(|s| s.sync_ops.add(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_sim::Sim;

    #[test]
    fn yield_now_charges_switch_cost() {
        let r = Sim::new(1).run(|ctx| {
            yield_now(&ctx);
            yield_now(&ctx);
        });
        let s = r.total_stats();
        assert_eq!(s.context_switches, 2);
        assert_eq!(s.bucket(Bucket::ThreadMgmt), 12_000);
    }

    #[test]
    fn spawn_charges_create_cost() {
        let r = Sim::new(1).run(|ctx| {
            let t = spawn(&ctx, "t", |_| {});
            t.join(&ctx);
        });
        assert_eq!(r.total_stats().thread_creates, 1);
    }

    #[test]
    fn is_finished_tracks_completion() {
        Sim::new(1).run(|ctx| {
            let t = spawn(&ctx, "t", |_| {});
            assert!(!t.is_finished(&ctx));
            t.join(&ctx);
            assert!(t.is_finished(&ctx));
        });
    }
}
