//! # mpmd-sim — a deterministic simulated multicomputer
//!
//! The substrate for reproducing *"Evaluating the Performance Limitations of
//! MPMD Communication"* (Chang, Czajkowski, von Eicken, Kesselman; SC 1997).
//!
//! The paper's experiments ran on an IBM RS/6000 SP; its analysis is entirely
//! about *where time goes* — messaging-layer overheads, thread operations,
//! marshalling — measured with heavy instrumentation of the AM layer and the
//! threads package. This crate substitutes the SP with a discrete-event
//! simulated multicomputer:
//!
//! * every **node** has its own virtual clock (integer nanoseconds) and an
//!   instrumentation block ([`Stats`]) with the paper's five cost buckets;
//! * **tasks** are cooperative (run-until-block) green threads with real
//!   stacks, scheduled one at a time — the execution is a deterministic
//!   function of the program;
//! * **messages** are delivery events on a global queue; the engine always
//!   advances the node with the smallest clock and applies due events first,
//!   so message visibility at poll points is exact;
//! * nothing costs time unless a layered runtime **charges** it, which is
//!   precisely how the paper's instrumentation-based accounting works.
//!
//! The messaging layer (`mpmd-am`), threads package (`mpmd-threads`), and the
//! two language runtimes (`mpmd-splitc`, `mpmd-ccxx`) are built on top, over
//! the [`Fabric`] trait. Its one body, [`Handle`], runs over this simulator
//! ([`Ctx`]) and over a wall-clock machine with one OS thread per node
//! ([`LocalFabric`]), so the same stack also runs on real hardware.

mod alloc_count;
pub mod baton;
mod cost;
mod ctx;
mod engine;
mod event;
pub mod explore;
mod fabric;
pub mod flame;
// The task host, chosen by the build alone: userspace fibers on x86-64 unix,
// pooled OS threads elsewhere and under `--cfg mpmd_no_fibers`.
// `baton::BACKEND` says which.
#[cfg_attr(
    all(target_arch = "x86_64", unix, not(mpmd_no_fibers)),
    path = "fiber.rs"
)]
#[cfg_attr(
    not(all(target_arch = "x86_64", unix, not(mpmd_no_fibers))),
    path = "pool.rs"
)]
mod host;
mod kernel;
mod local;
pub mod metrics;
mod node_cell;
mod node_data;
mod probe;
mod report;
pub mod sched;
mod stats;
mod task;
pub mod time;
pub mod trace;
pub mod wait;

#[doc(hidden)]
pub use alloc_count::{thread_allocs, CountingAlloc};
pub use baton::{backend_from_env, BackendKind};
pub use cost::{CoalesceCosts, CostModel, FaultModel, LinkFaults, ReliabilityCosts, ThreadCosts};
pub use ctx::{Ctx, Handle};
pub use engine::Sim;
pub use event::{Msg, Payload};
pub use explore::{shrink, ChoicePoint, OracleSpec, RecordedTrace, ScheduleOracle, TraceOracle};
pub use fabric::{Fabric, SpanGuard, ACROSS_NODES, BORROWED, NOT_ITS_NODE, REENTRY};
pub use flame::{fold_stacks, phase_profile, Phase};
pub use kernel::FaultDecision;
pub use local::{LocalFabric, LocalFabricBuilder};
pub use metrics::{Histogram, MetricsRegistry, NodeMetrics, HIST_BUCKETS, HIST_NAMES};
pub use node_cell::{NodeCell, REENTERED};
pub use node_data::NodeData;
pub use probe::{Ledger, Probe};
pub use report::{Report, Snapshot};
pub use stats::{
    size_bucket, size_bucket_limit, Bucket, Counter, StatCells, Stats, StatsOf, NUM_BUCKETS,
};
pub use task::TaskId;
pub use time::{ms, secs, to_secs, to_us, us, Time};
pub use trace::{NodeTrace, Span, SpanId, TraceConfig, TraceEvent, TraceLog, TraceRecord};
pub use wait::{WaitPhase, WaitPolicy, Waiter};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn empty_program_terminates_at_time_zero() {
        let r = Sim::new(3).run(|_ctx| {});
        assert_eq!(r.elapsed(), 0);
        assert_eq!(r.nodes(), 3);
    }

    #[test]
    fn charge_advances_only_own_node() {
        let r = Sim::new(2).run(|ctx| {
            if ctx.node() == 0 {
                ctx.charge(Bucket::Cpu, 500);
            }
        });
        assert_eq!(r.clocks, vec![500, 0]);
        assert_eq!(r.stats[0].bucket(Bucket::Cpu), 500);
        assert_eq!(r.stats[1].bucket(Bucket::Cpu), 0);
    }

    #[test]
    fn spawned_tasks_share_the_node_clock() {
        let r = Sim::new(1).run(|ctx| {
            let c2 = ctx.clone();
            let t = ctx.spawn("child", move |c| {
                c.charge(Bucket::Cpu, 100);
                let _ = c2; // keep clone alive for type-check purposes
            });
            ctx.join(t);
            ctx.charge(Bucket::Cpu, 50);
        });
        assert_eq!(r.elapsed(), 150);
    }

    #[test]
    fn message_delivery_wakes_inbox_waiter_at_arrival_time() {
        let r = Sim::new(2).run(|ctx| {
            if ctx.node() == 0 {
                ctx.charge(Bucket::Cpu, 1_000);
                ctx.send_msg(1, 16, 5_000, Payload::any(42u64));
            } else {
                ctx.park_for_inbox();
                let m = ctx.try_recv().expect("message should be in inbox");
                assert_eq!(*m.payload.downcast::<u64>().unwrap(), 42);
                assert_eq!(ctx.now(), 6_000); // 1_000 send clock + 5_000 wire
            }
        });
        assert_eq!(r.clocks[1], 6_000);
        assert_eq!(r.stats[0].msgs_sent, 1);
        assert_eq!(r.stats[0].bytes_sent, 16);
        assert_eq!(r.stats[1].msgs_received, 1);
    }

    #[test]
    fn ping_pong_alternates_clocks() {
        // node 0 sends at t, node 1 replies; one round trip with 10us wire
        // each way and no other charges ends both clocks at 20us.
        let r = Sim::new(2).run(|ctx| {
            if ctx.node() == 0 {
                ctx.send_msg(1, 8, 10_000, Payload::any(()));
                ctx.park_for_inbox();
                ctx.try_recv().unwrap();
                assert_eq!(ctx.now(), 20_000);
            } else {
                ctx.park_for_inbox();
                ctx.try_recv().unwrap();
                assert_eq!(ctx.now(), 10_000);
                ctx.send_msg(0, 8, 10_000, Payload::any(()));
            }
        });
        assert_eq!(r.elapsed(), 20_000);
    }

    #[test]
    fn yield_now_fast_path_skips_when_alone() {
        // A single task yielding in a loop must not livelock or change time.
        let r = Sim::new(1).run(|ctx| {
            for _ in 0..1_000 {
                ctx.yield_now();
            }
        });
        assert_eq!(r.elapsed(), 0);
    }

    #[test]
    fn yield_interleaves_two_local_tasks_fifo() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let r = Sim::new(1).run(move |ctx| {
            let o_child = Arc::clone(&o1);
            ctx.spawn("child", move |c| {
                for i in 0..3 {
                    o_child.lock().push(format!("child{i}"));
                    c.yield_now();
                }
            });
            for i in 0..3 {
                o1.lock().push(format!("main{i}"));
                ctx.yield_now();
            }
        });
        assert_eq!(r.elapsed(), 0);
        let got = order.lock().clone();
        // main0 runs first (spawn doesn't preempt), then strict alternation.
        assert_eq!(
            got,
            vec!["main0", "child0", "main1", "child1", "main2", "child2"]
        );
    }

    #[test]
    fn sleep_advances_clock_exactly() {
        let r = Sim::new(1).run(|ctx| {
            ctx.sleep(7_777);
            assert_eq!(ctx.now(), 7_777);
            ctx.sleep(23);
            assert_eq!(ctx.now(), 7_800);
        });
        assert_eq!(r.elapsed(), 7_800);
    }

    #[test]
    fn park_unpark_round_trip() {
        let r = Sim::new(1).run(|ctx| {
            if ctx.node() != 0 {
                return;
            }
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            let t = ctx.spawn("sleeper", move |c| {
                c.park();
                h.fetch_add(1, Ordering::SeqCst);
            });
            ctx.yield_now(); // let sleeper park
            assert_eq!(hits.load(Ordering::SeqCst), 0);
            ctx.unpark(t);
            ctx.join(t);
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        });
        assert_eq!(r.elapsed(), 0);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn deadlock_is_detected_and_reported() {
        Sim::new(1).run(|ctx| {
            ctx.park(); // nobody will ever unpark us
        });
    }

    #[test]
    #[should_panic(expected = "boom from task")]
    fn task_panics_propagate_to_caller() {
        Sim::new(2).run(|ctx| {
            if ctx.node() == 1 {
                panic!("boom from task");
            }
        });
    }

    #[test]
    fn node_data_is_a_per_node_singleton() {
        let r = Sim::new(2).run(|ctx| {
            let a = ctx.node_data(|| AtomicUsize::new(0));
            a.fetch_add(ctx.node() + 1, Ordering::SeqCst);
            let b = ctx.node_data(|| AtomicUsize::new(99));
            assert_eq!(b.load(Ordering::SeqCst), ctx.node() + 1);
        });
        assert_eq!(r.elapsed(), 0);
    }

    #[test]
    fn determinism_same_program_same_report() {
        fn program(ctx: Ctx) {
            let n = ctx.nodes();
            if ctx.node() == 0 {
                for d in 1..n {
                    ctx.charge(Bucket::Cpu, 100);
                    ctx.send_msg(d, 8, 1_000, Payload::any(d as u64));
                }
            } else {
                ctx.park_for_inbox();
                let m = ctx.try_recv().unwrap();
                let v = *m.payload.downcast::<u64>().unwrap();
                ctx.charge(Bucket::Cpu, v * 10);
            }
        }
        let r1 = Sim::new(4).run(program);
        let r2 = Sim::new(4).run(program);
        assert_eq!(r1.clocks, r2.clocks);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn snapshot_until_measures_interval() {
        let r = Sim::new(1).run(|ctx| {
            ctx.charge(Bucket::Cpu, 1_000);
            let before = ctx.snapshot();
            ctx.charge(Bucket::Runtime, 250);
            let after = ctx.snapshot();
            let interval = before.until(&after);
            assert_eq!(interval.elapsed(), 250);
            assert_eq!(interval.bucket_total(Bucket::Runtime), 250);
            assert_eq!(interval.bucket_total(Bucket::Cpu), 0);
        });
        assert_eq!(r.elapsed(), 1_250);
    }

    #[test]
    fn many_tasks_on_many_nodes_complete() {
        let r = Sim::new(8).run(|ctx| {
            let mut handles = Vec::new();
            for i in 0..16 {
                handles.push(ctx.spawn("worker", move |c| {
                    c.charge(Bucket::Cpu, 10 * (i + 1));
                }));
            }
            for h in handles {
                ctx.join(h);
            }
        });
        // Each node ran 16 workers serially: sum 10*(1..=16) = 1360.
        for c in r.clocks {
            assert_eq!(c, 1_360);
        }
    }

    #[test]
    fn min_clock_node_runs_first() {
        // Node 1 becomes cheaper after an initial charge on node 0; the
        // engine must interleave by clock order: verify via message timing.
        let r = Sim::new(2).run(|ctx| {
            if ctx.node() == 0 {
                ctx.charge(Bucket::Cpu, 10_000);
                ctx.send_msg(1, 8, 100, Payload::any(()));
            } else {
                // waits for the message; charge happens after arrival
                ctx.park_for_inbox();
                ctx.try_recv().unwrap();
                assert_eq!(ctx.now(), 10_100);
            }
        });
        assert_eq!(r.clocks[1], 10_100);
    }
}
