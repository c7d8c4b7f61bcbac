//! Property tests of the Active Messages layer: payload integrity, cost
//! monotonicity, and barrier correctness under randomized traffic.

use bytes::Bytes;
use mpmd_am as am;
use mpmd_sim::Fabric;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const H_SINK: am::HandlerId = 120;

/// One step of a randomized coalescing schedule on node 0.
#[derive(Clone, Debug)]
enum CoalesceOp {
    /// Send a sequenced short AM to this node.
    Send(usize),
    /// Force every aggregation buffer to the wire.
    Flush,
    /// A mandatory flush point that also drains inbound traffic.
    Poll,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bulk payloads of any size and content arrive intact and in order.
    #[test]
    fn bulk_payloads_arrive_intact(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 1..8),
    ) {
        let received: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&received);
        let payloads2 = payloads.clone();
        mpmd_sim::Sim::new(2).run(move |ctx| {
            am::init(&ctx, am::NetProfile::sp_am_splitc());
            am::register_barrier_handlers(&ctx);
            let r3 = Arc::clone(&r2);
            am::register(&ctx, H_SINK, move |_ctx, m| {
                r3.lock().push(m.data.as_ref().map(|d| d.to_vec()).unwrap_or_default());
            });
            am::barrier(&ctx);
            if ctx.node() == 0 {
                let ep = am::endpoint(&ctx);
                for p in &payloads2 {
                    ep.to(1).handler(H_SINK).bulk(Bytes::from(p.clone())).send();
                }
            } else {
                // Large bulk messages can be overtaken by short ones (their
                // wire time scales with size), so a barrier alone does not
                // establish delivery — count arrivals, as all_store_sync
                // does in Split-C.
                let r4 = Arc::clone(&r2);
                let n = payloads2.len();
                am::wait_until(&ctx, move || r4.lock().len() >= n);
            }
            am::barrier(&ctx);
        });
        let got = received.lock().clone();
        prop_assert_eq!(got, payloads);
    }

    /// The modeled wire delay grows monotonically with payload size for
    /// every profile.
    #[test]
    fn wire_delay_is_monotone(a in 0usize..100_000, b in 0usize..100_000) {
        for p in [
            am::NetProfile::sp_am_splitc(),
            am::NetProfile::sp_am_ccxx(),
            am::NetProfile::ibm_mpl(),
        ] {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p.wire_delay(lo) <= p.wire_delay(hi));
            prop_assert!(p.wire_delay(lo) >= p.wire_latency);
        }
    }

    /// Barriers synchronize arbitrary skews: after a barrier, every node's
    /// clock is at least the maximum pre-barrier clock.
    #[test]
    fn barrier_dominates_skew(
        skews in proptest::collection::vec(0u64..500_000, 2..6),
    ) {
        let nodes = skews.len();
        let max_skew = *skews.iter().max().unwrap();
        let after: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; nodes]));
        let a2 = Arc::clone(&after);
        mpmd_sim::Sim::new(nodes).run(move |ctx| {
            am::init(&ctx, am::NetProfile::sp_am_splitc());
            am::register_barrier_handlers(&ctx);
            ctx.charge(mpmd_sim::Bucket::Cpu, skews[ctx.node()]);
            am::barrier(&ctx);
            a2.lock()[ctx.node()] = ctx.now();
        });
        for (i, &t) in after.lock().iter().enumerate() {
            prop_assert!(t >= max_skew, "node {i} left the barrier at {t} < {max_skew}");
        }
    }

    /// With coalescing on, any interleaving of sends to mixed destinations,
    /// forced flushes, and polls — on a clean or faulty wire — delivers each
    /// (src,dst) stream in program order.
    #[test]
    fn coalesced_interleavings_preserve_program_order(
        ops in proptest::collection::vec(
            // Sends to nodes 1 and 2, with flushes and polls mixed in at a
            // 1-in-3 rate between them.
            (0usize..6).prop_map(|v| match v {
                0 => CoalesceOp::Flush,
                1 => CoalesceOp::Poll,
                d => CoalesceOp::Send(1 + (d % 2)),
            }),
            1..40),
        max_msgs in 1usize..8,
        faulty in any::<bool>(),
    ) {
        // Per-receiver log of sequence numbers, indexed by node.
        let logs: Arc<Mutex<Vec<Vec<u64>>>> =
            Arc::new(Mutex::new(vec![Vec::new(); 3]));
        let l2 = Arc::clone(&logs);
        let ops2 = ops.clone();
        let mut sim = mpmd_sim::Sim::new(3);
        if faulty {
            sim = sim.cost_model(mpmd_sim::CostModel::default().with_faults(
                mpmd_sim::FaultModel::uniform(11, 0.15, 0.1, 0.2),
            ));
        }
        sim.run(move |ctx| {
            am::init(&ctx, am::NetProfile::sp_am_splitc());
            am::register_barrier_handlers(&ctx);
            am::enable_coalescing(&ctx, am::CoalesceConfig {
                max_msgs,
                max_bytes: 8 * am::SUB_WIRE_BYTES,
                max_linger: 50_000,
            });
            let l3 = Arc::clone(&l2);
            am::register(&ctx, H_SINK, move |ctx, m| {
                l3.lock()[ctx.node()].push(m.args[0]);
            });
            am::barrier(&ctx);
            if ctx.node() == 0 {
                let ep = am::endpoint(&ctx);
                let mut seq = 0u64;
                for op in &ops2 {
                    match op {
                        CoalesceOp::Send(dst) => {
                            ep.to(*dst).handler(H_SINK).args([seq, 0, 0, 0]).send();
                            seq += 1;
                        }
                        CoalesceOp::Flush => am::flush(&ctx),
                        CoalesceOp::Poll => {
                            am::poll(&ctx);
                        }
                    }
                }
            }
            // The barrier release reaches each node after node 0's buffered
            // sends flush (poll entry) and, per link, after every data frame
            // — so arrival implies the full log is in place.
            am::barrier(&ctx);
        });
        let mut seq = 0u64;
        let mut expect: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for op in &ops {
            if let CoalesceOp::Send(dst) = op {
                expect[*dst].push(seq);
                seq += 1;
            }
        }
        prop_assert_eq!(logs.lock().clone(), expect);
    }

    /// wait_until observes a condition made true by the k-th message, never
    /// earlier.
    #[test]
    fn wait_until_counts_messages(k in 1usize..10) {
        let woke_at = Arc::new(AtomicUsize::new(0));
        let w2 = Arc::clone(&woke_at);
        mpmd_sim::Sim::new(2).run(move |ctx| {
            am::init(&ctx, am::NetProfile::sp_am_splitc());
            am::register_barrier_handlers(&ctx);
            let seen = Arc::new(AtomicUsize::new(0));
            let s2 = Arc::clone(&seen);
            am::register(&ctx, H_SINK, move |_ctx, _m| {
                s2.fetch_add(1, Ordering::AcqRel);
            });
            am::barrier(&ctx);
            if ctx.node() == 0 {
                let ep = am::endpoint(&ctx);
                for _ in 0..k {
                    ep.to(1).handler(H_SINK).send();
                    ctx.charge(mpmd_sim::Bucket::Cpu, 100_000); // spread arrivals
                }
            } else {
                let s3 = Arc::clone(&seen);
                am::wait_until(&ctx, move || s3.load(Ordering::Acquire) >= k);
                w2.store(seen.load(Ordering::Acquire), Ordering::Release);
            }
            am::barrier(&ctx);
        });
        prop_assert_eq!(woke_at.load(Ordering::Acquire), k);
    }
}
