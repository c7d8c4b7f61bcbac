//! # mpmd-threads — the lightweight non-preemptive threads package
//!
//! The paper's lean CC++ runtime is "layered directly on top of AM and a
//! lightweight, native, non-preemptive POSIX-compliant threads package". This
//! crate is that package, built over `mpmd-sim` tasks. Its job is twofold:
//!
//! 1. provide the classic primitives — [`spawn`], [`yield_now`],
//!    [`Thread::join`], [`Mutex`], [`CondVar`], and CC++'s write-once
//!    [`SyncVar`];
//! 2. **account** for every operation the way the paper's instrumentation
//!    does: thread creations, context switches, and sync operations (lock,
//!    unlock, signal, wait calls) are counted and charged at the unit costs
//!    in [`mpmd_sim::ThreadCosts`].
//!
//! Accounting conventions (used consistently by the runtimes above, and by
//! the Table 4 calibration test in `mpmd-bench`):
//!
//! * `spawn` charges one *create*.
//! * Every voluntary yield and every block/wake pair charges one *context
//!   switch*, charged on the blocking/yielding side.
//! * `lock`, `unlock`, `signal`, `broadcast` and `wait` each charge one
//!   *sync op*. `wait`'s internal unlock/relock is **not** double counted
//!   (the paper counts "lock, unlock, or condition variable signal calls",
//!   i.e. API calls, not internal steps).

mod condvar;
mod mutex;
mod syncvar;
mod thread;

pub use condvar::CondVar;
pub use mutex::{Mutex, MutexGuard};
pub use syncvar::SyncVar;
pub use thread::{charge_context_switch, charge_sync_op, spawn, yield_now, Thread};

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_sim::{Bucket, Fabric, Sim};
    use std::sync::Arc;

    #[test]
    fn spawn_and_join_charge_create_and_switch() {
        let r = Sim::new(1).run(|ctx| {
            let t = spawn(&ctx, "child", |c| {
                c.charge(Bucket::Cpu, 100);
            });
            t.join(&ctx);
        });
        let s = r.total_stats();
        assert_eq!(s.thread_creates, 1);
        // join blocked (child had not finished): one context switch.
        assert_eq!(s.context_switches, 1);
        assert_eq!(s.bucket(Bucket::ThreadMgmt), 5_000 + 6_000);
        assert_eq!(s.bucket(Bucket::Cpu), 100);
    }

    #[test]
    fn join_on_finished_thread_does_not_switch() {
        let r = Sim::new(1).run(|ctx| {
            let t = spawn(&ctx, "child", |_| {});
            yield_now(&ctx); // let the child run to completion
            t.join(&ctx);
        });
        let s = r.total_stats();
        assert_eq!(s.thread_creates, 1);
        // only the explicit yield
        assert_eq!(s.context_switches, 1);
    }

    #[test]
    fn mutex_counts_lock_unlock() {
        let r = Sim::new(1).run(|ctx| {
            let m = Mutex::new(0u64);
            {
                let mut g = m.lock(&ctx);
                *g += 5;
            }
            assert_eq!(*m.lock(&ctx), 5);
        });
        let s = r.total_stats();
        assert_eq!(s.lock_acquisitions, 2);
        assert_eq!(s.lock_contended, 0);
        assert_eq!(s.sync_ops, 4); // 2 locks + 2 unlocks
        assert_eq!(s.bucket(Bucket::ThreadSync), 4 * 400);
    }

    #[test]
    fn contended_mutex_blocks_and_hands_off() {
        let r = Sim::new(1).run(|ctx| {
            let m = Arc::new(Mutex::new(Vec::<u32>::new()));
            let m2 = Arc::clone(&m);
            let holder = spawn(&ctx, "holder", move |c| {
                let mut g = m2.lock(&c);
                g.push(1);
                yield_now(&c); // hold the lock across a yield
                g.push(2);
            });
            yield_now(&ctx); // holder acquires first
            {
                let mut g = m.lock(&ctx); // contended: must block
                g.push(3);
            }
            holder.join(&ctx);
            assert_eq!(&*m.lock(&ctx), &[1, 2, 3]);
        });
        let s = r.total_stats();
        assert_eq!(s.lock_contended, 1);
        assert!(s.lock_acquisitions >= 3);
    }

    #[test]
    fn condvar_wait_signal() {
        let r = Sim::new(1).run(|ctx| {
            let pair = Arc::new((Mutex::new(false), CondVar::new()));
            let p2 = Arc::clone(&pair);
            let t = spawn(&ctx, "setter", move |c| {
                let (m, cv) = &*p2;
                let mut g = m.lock(&c);
                *g = true;
                cv.signal(&c);
            });
            let (m, cv) = &*pair;
            let mut g = m.lock(&ctx);
            while !*g {
                g = cv.wait(&ctx, g);
            }
            drop(g);
            t.join(&ctx);
        });
        let s = r.total_stats();
        // waiter: lock(1) + wait(1) + unlock(1); setter: lock+signal+unlock
        assert_eq!(s.sync_ops, 6);
        // waiter's block — at least one context switch.
        assert!(s.context_switches >= 1);
    }

    #[test]
    fn syncvar_write_once_read_many() {
        let r = Sim::new(1).run(|ctx| {
            let sv = Arc::new(SyncVar::new());
            let sv2 = Arc::clone(&sv);
            let t = spawn(&ctx, "writer", move |c| {
                sv2.write(&c, 42u64);
            });
            assert_eq!(sv.read(&ctx), 42); // blocks until written
            assert_eq!(sv.read(&ctx), 42); // immediate
            t.join(&ctx);
        });
        assert!(r.total_stats().sync_ops > 0);
    }

    #[test]
    #[should_panic(expected = "SyncVar written twice")]
    fn syncvar_rejects_double_write() {
        Sim::new(1).run(|ctx| {
            let sv = SyncVar::new();
            sv.write(&ctx, 1u8);
            sv.write(&ctx, 2u8);
        });
    }

    #[test]
    fn many_threads_fifo_fairness() {
        let r = Sim::new(1).run(|ctx| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut hs = Vec::new();
            for i in 0..10u32 {
                let l = Arc::clone(&log);
                hs.push(spawn(&ctx, "w", move |c| {
                    let mut g = l.lock(&c);
                    g.push(i);
                    drop(g);
                }));
            }
            for h in hs {
                h.join(&ctx);
            }
            assert_eq!(&*log.lock(&ctx), &(0..10).collect::<Vec<_>>());
        });
        assert_eq!(r.total_stats().thread_creates, 10);
    }

    #[test]
    fn contention_less_fraction_measurable() {
        // The paper observes ~95% of lock acquisitions are contention-less;
        // verify the counters that support that observation behave sanely.
        let r = Sim::new(1).run(|ctx| {
            let m = Arc::new(Mutex::new(0u32));
            for _ in 0..19 {
                drop(m.lock(&ctx));
            }
            let m2 = Arc::clone(&m);
            let t = spawn(&ctx, "fighter", move |c| {
                let g = m2.lock(&c);
                yield_now(&c);
                drop(g);
            });
            yield_now(&ctx);
            drop(m.lock(&ctx)); // contended
            t.join(&ctx);
        });
        let s = r.total_stats();
        assert_eq!(s.lock_acquisitions, 21);
        assert_eq!(s.lock_contended, 1);
        let contention_less = 1.0 - s.lock_contended as f64 / s.lock_acquisitions as f64;
        assert!(contention_less > 0.9);
    }
}
