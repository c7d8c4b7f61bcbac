//! Property tests of the simulator core: determinism, clock algebra, and
//! scheduling invariants under randomized workloads.

use mpmd_sim::{Bucket, Fabric, Report, Sim};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// A randomized program: per node, a list of actions.
#[derive(Clone, Debug)]
enum Action {
    Charge(u64),
    SendNext(u64), // send to (node+1)%n with given delay
    RecvOne,       // block for one message
    SpawnCharge(u64),
    Yield,
    Sleep(u64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..100_000).prop_map(Action::Charge),
        (1u64..50_000).prop_map(Action::SendNext),
        Just(Action::RecvOne),
        (1u64..10_000).prop_map(Action::SpawnCharge),
        Just(Action::Yield),
        (1u64..20_000).prop_map(Action::Sleep),
    ]
}

/// Build a runnable program where receives are balanced with sends: every
/// node performs the same action list, sending to its successor and
/// receiving exactly as many messages as its predecessor sent.
fn run_program(nodes: usize, actions: Vec<Action>) -> Report {
    let sends = actions
        .iter()
        .filter(|a| matches!(a, Action::SendNext(_)))
        .count();
    Sim::new(nodes).run(move |ctx| {
        let mut pending_recvs = sends;
        let mut handles = Vec::new();
        for a in &actions {
            match a {
                Action::Charge(ns) => ctx.charge(Bucket::Cpu, *ns),
                Action::SendNext(delay) => {
                    ctx.send_msg(
                        (ctx.node() + 1) % ctx.nodes(),
                        8,
                        *delay,
                        mpmd_sim::Payload::any(0u8),
                    );
                }
                Action::RecvOne => {} // receives happen at the end
                Action::SpawnCharge(ns) => {
                    let ns = *ns;
                    handles.push(ctx.spawn("w", move |c| c.charge(Bucket::Runtime, ns)));
                }
                Action::Yield => ctx.yield_now(),
                Action::Sleep(ns) => ctx.sleep(*ns),
            }
        }
        // Drain every message our predecessor sent (prevents deadlock).
        while pending_recvs > 0 {
            ctx.park_for_inbox();
            while ctx.try_recv().is_some() {
                pending_recvs = pending_recvs.saturating_sub(1);
            }
        }
        for h in handles {
            ctx.join(h);
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulation is a pure function: identical inputs, identical
    /// clocks and statistics.
    #[test]
    fn deterministic_replay(
        nodes in 1usize..5,
        actions in proptest::collection::vec(action_strategy(), 0..25),
    ) {
        let a = run_program(nodes, actions.clone());
        let b = run_program(nodes, actions);
        prop_assert_eq!(a.clocks, b.clocks);
        prop_assert_eq!(a.stats, b.stats);
    }

    /// Clocks never go backwards and bucket charges are conserved: the sum
    /// of charged buckets never exceeds total node-time.
    #[test]
    fn charges_bounded_by_elapsed(
        nodes in 1usize..5,
        actions in proptest::collection::vec(action_strategy(), 0..25),
    ) {
        let r = run_program(nodes, actions);
        let charged: u64 = r.stats.iter().map(|s| s.charged_total()).sum();
        prop_assert!(charged <= r.busy_total(),
            "charged {} > busy {}", charged, r.busy_total());
        // Message conservation: everything sent is received.
        let t = r.total_stats();
        prop_assert_eq!(t.msgs_sent, t.msgs_received);
    }

    /// Charging is exact: a program of pure charges elapses exactly their
    /// sum on each node.
    #[test]
    fn pure_charges_sum_exactly(
        charges in proptest::collection::vec(1u64..1_000_000, 1..30),
    ) {
        let total: u64 = charges.iter().sum();
        let r = Sim::new(3).run(move |ctx| {
            for c in &charges {
                ctx.charge(Bucket::Cpu, *c);
            }
        });
        for c in r.clocks {
            prop_assert_eq!(c, total);
        }
    }

    /// Messages from one sender to one receiver arrive in issue order
    /// regardless of payload/delay pattern, as long as delays are equal
    /// (FIFO links), and wake the receiver at the right time.
    #[test]
    fn fifo_delivery_order(
        count in 1usize..20,
        delay in 1u64..50_000,
    ) {
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        Sim::new(2).run(move |ctx| {
            if ctx.node() == 0 {
                for i in 0..count as u64 {
                    ctx.send_msg(1, 8, delay, mpmd_sim::Payload::any(i));
                }
            } else {
                let mut got = 0;
                while got < count {
                    ctx.park_for_inbox();
                    while let Some(m) = ctx.try_recv() {
                        l2.lock().push(*m.payload.downcast::<u64>().unwrap());
                        got += 1;
                    }
                }
            }
        });
        let got = log.lock().clone();
        prop_assert_eq!(got, (0..count as u64).collect::<Vec<_>>());
    }

    /// Spawned tasks all run exactly once, whatever the interleaving.
    #[test]
    fn spawned_tasks_run_once(
        spawns in 1usize..30,
        yields in 0usize..5,
    ) {
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        Sim::new(2).run(move |ctx| {
            if ctx.node() == 0 {
                let mut hs = Vec::new();
                for _ in 0..spawns {
                    let c = Arc::clone(&c2);
                    hs.push(ctx.spawn("w", move |cc| {
                        for _ in 0..yields {
                            cc.yield_now();
                        }
                        c.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                    }));
                }
                for h in hs {
                    ctx.join(h);
                }
            }
        });
        prop_assert_eq!(counter.load(std::sync::atomic::Ordering::Acquire), spawns);
    }
}
