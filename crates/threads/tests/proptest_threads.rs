//! Property tests of the threads package: mutual exclusion, accounting
//! arithmetic, and condition-variable liveness under randomized schedules.

use mpmd_sim::{Bucket, Sim};
use mpmd_threads::{spawn, yield_now, CondVar, Mutex, SyncVar};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mutual exclusion: concurrent critical sections interleaved with
    /// random yields never observe a torn invariant (two fields kept equal
    /// under the lock).
    #[test]
    fn mutex_preserves_invariants(
        workers in 1usize..8,
        yields in proptest::collection::vec(0usize..3, 1..8),
    ) {
        let r = Sim::new(1).run(move |ctx| {
            let cell = Arc::new(Mutex::new((0u64, 0u64)));
            let mut hs = Vec::new();
            for w in 0..workers {
                let c = Arc::clone(&cell);
                let ys = yields[w % yields.len()];
                hs.push(spawn(&ctx, "w", move |cctx| {
                    let mut g = c.lock(&cctx);
                    let (a, b) = *g;
                    assert_eq!(a, b, "torn invariant observed");
                    g.0 = a + 1;
                    // A yield *inside* the critical section: other tasks
                    // must not enter.
                    for _ in 0..ys {
                        yield_now(&cctx);
                    }
                    g.1 = b + 1;
                }));
            }
            for h in hs {
                h.join(&ctx);
            }
            let g = cell.lock(&ctx);
            assert_eq!(g.0, workers as u64);
            assert_eq!(g.1, workers as u64);
        });
        // Accounting arithmetic: ThreadSync time == sync_ops x unit cost.
        let t = r.total_stats();
        prop_assert_eq!(t.bucket(Bucket::ThreadSync), t.sync_ops * 400);
        prop_assert_eq!(t.thread_creates as usize, workers);
    }

    /// Thread-management time equals creates*create_cost +
    /// switches*switch_cost, exactly, for any workload.
    #[test]
    fn mgmt_accounting_is_exact(
        spawns in 0usize..10,
        yields in 0usize..10,
    ) {
        let r = Sim::new(1).run(move |ctx| {
            let mut hs = Vec::new();
            for _ in 0..spawns {
                hs.push(spawn(&ctx, "w", |_| {}));
            }
            for _ in 0..yields {
                yield_now(&ctx);
            }
            for h in hs {
                h.join(&ctx);
            }
        });
        let t = r.total_stats();
        prop_assert_eq!(
            t.bucket(Bucket::ThreadMgmt),
            t.thread_creates * 5_000 + t.context_switches * 6_000
        );
    }

    /// Producer/consumer over a CondVar delivers every item exactly once,
    /// for any queue capacity and item count.
    #[test]
    fn condvar_queue_delivers_everything(
        items in 1usize..25,
        capacity in 1usize..5,
    ) {
        Sim::new(1).run(move |ctx| {
            struct Q {
                buf: Mutex<Vec<usize>>,
                not_empty: CondVar,
                not_full: CondVar,
            }
            let q = Arc::new(Q {
                buf: Mutex::new(Vec::new()),
                not_empty: CondVar::new(),
                not_full: CondVar::new(),
            });
            let q2 = Arc::clone(&q);
            let producer = spawn(&ctx, "producer", move |c| {
                for i in 0..items {
                    let mut g = q2.buf.lock(&c);
                    while g.len() >= capacity {
                        g = q2.not_full.wait(&c, g);
                    }
                    g.push(i);
                    q2.not_empty.signal(&c);
                }
            });
            let q3 = Arc::clone(&q);
            let got = Arc::new(std::sync::Mutex::new(Vec::new()));
            let g2 = Arc::clone(&got);
            let consumer = spawn(&ctx, "consumer", move |c| {
                let mut received = 0;
                while received < items {
                    let mut g = q3.buf.lock(&c);
                    while g.is_empty() {
                        g = q3.not_empty.wait(&c, g);
                    }
                    let v = g.remove(0);
                    q3.not_full.signal(&c);
                    drop(g);
                    g2.lock().expect("not poisoned").push(v);
                    received += 1;
                }
            });
            producer.join(&ctx);
            consumer.join(&ctx);
            let got = got.lock().expect("not poisoned");
            assert_eq!(*got, (0..items).collect::<Vec<_>>());
        });
    }

    /// SyncVar: any number of readers blocked across any spawn pattern all
    /// observe the single written value.
    #[test]
    fn syncvar_broadcast_reaches_all(readers in 1usize..12, value in any::<u64>()) {
        Sim::new(1).run(move |ctx| {
            let sv = Arc::new(SyncVar::new());
            let mut hs = Vec::new();
            for _ in 0..readers {
                let s = Arc::clone(&sv);
                hs.push(spawn(&ctx, "r", move |c| {
                    assert_eq!(s.read(&c), value);
                }));
            }
            yield_now(&ctx);
            sv.write(&ctx, value);
            for h in hs {
                h.join(&ctx);
            }
        });
    }
}
