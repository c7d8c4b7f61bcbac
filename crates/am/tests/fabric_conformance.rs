//! Fabric conformance suite: one battery of AM-layer contracts, run against
//! both [`Fabric`] implementations — the deterministic simulator
//! (`SimFabric`, via [`mpmd_sim::Sim`]) and the wall-clock backend
//! ([`LocalFabric`], one OS thread per node).
//!
//! Every battery is a single generic function over `F: Fabric`; the
//! per-fabric `#[test]`s only differ in the driver that brings the machine
//! up. A contract that holds on the simulator but not on real hardware (or
//! vice versa) fails here by construction.

use mpmd_am as am;
use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder};
use mpmd_sim::{
    Bucket, CostModel, NodeData, Payload, Report, Sim, Snapshot, SpanId, TaskId, TraceConfig,
    TraceEvent, TraceLog, ACROSS_NODES, BORROWED, NOT_ITS_NODE,
};
use mpmd_threads as thr;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

const H_SEQ: am::HandlerId = 100;

/// A fabric whose inbox a battery counts: `inbox_len` is each fabric's own
/// method, not the `Fabric` trait's.
trait Inbox: Fabric {
    fn inbox_len(&self) -> usize;
}

impl Inbox for mpmd_sim::Ctx {
    fn inbox_len(&self) -> usize {
        mpmd_sim::Ctx::inbox_len(self)
    }
}

impl Inbox for LocalFabric {
    fn inbox_len(&self) -> usize {
        LocalFabric::inbox_len(self)
    }
}

fn setup<F: Fabric>(ctx: &F) {
    am::init(ctx, am::NetProfile::sp_am_splitc());
    am::register_barrier_handlers(ctx);
}

/// A sequence-recording sink: the handler appends `args[0]` to a node-local
/// log and bumps a counter the receiver can `wait_until` on.
fn seq_sink<F: Fabric>(ctx: &F) -> (Arc<Mutex<Vec<u64>>>, Arc<AtomicU64>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let count = Arc::new(AtomicU64::new(0));
    let (l2, c2) = (Arc::clone(&log), Arc::clone(&count));
    am::register(ctx, H_SEQ, move |_ctx, m| {
        l2.lock().push(m.args[0]);
        c2.fetch_add(1, Ordering::AcqRel);
    });
    (log, count)
}

// ---------------------------------------------------------------- batteries

/// Per-(src,dst) delivery order equals program order.
fn battery_ordering<F: Fabric>(ctx: &F) {
    const K: u64 = 64;
    setup(ctx);
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for i in 0..K {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == K);
        let got = log.lock().clone();
        let want: Vec<u64> = (0..K).collect();
        assert_eq!(got, want, "messages reordered on the (0,1) link");
    }
    am::barrier(ctx);
}

/// Per-link FIFO holds whatever each frame's size or delay, without
/// coalescing. At the fabric: a frame sent with a 1 ns delay after one sent
/// with 50 µs arrives after it. At the AM layer: a short AM sent after an
/// 8 KiB bulk AM on the same link runs after it. The raw frames go first,
/// while no AM traffic is on the link for a poll to meet them.
fn battery_link_order<F: Inbox>(ctx: &F) {
    if ctx.node() == 0 {
        ctx.send_msg(1, 48, 50_000, Payload::any(0u64));
        ctx.send_msg(1, 48, 1, Payload::any(1u64));
    } else {
        let mut got = Vec::new();
        while got.len() < 2 {
            wait_for_frame(ctx);
            while let Some(m) = ctx.try_recv() {
                let Ok(seq) = m.payload.downcast::<u64>() else {
                    panic!("a frame that is not the battery's");
                };
                got.push(*seq);
            }
        }
        assert_eq!(got, [0, 1], "frames reordered on the (0,1) link");
    }
    setup(ctx);
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        let bulk = bytes::Bytes::from(vec![0u8; 8192]);
        ep.to(1).handler(H_SEQ).args([0, 0, 0, 0]).bulk(bulk).send();
        ep.to(1).handler(H_SEQ).args([1, 0, 0, 0]).send();
    } else {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == 2);
        assert_eq!(*log.lock(), [0, 1], "a short AM overtook a bulk one");
    }
    am::barrier(ctx);
}

/// `flush` publishes buffered coalesced sends: with an effectively infinite
/// linger, a synchronous reader sees the data only because of the flush.
fn battery_flush_before_sync_read<F: Fabric>(ctx: &F) {
    setup(ctx);
    am::enable_coalescing(
        ctx,
        am::CoalesceConfig {
            max_msgs: 1 << 20,
            max_bytes: 1 << 30,
            max_linger: mpmd_sim::us(1e12),
        },
    );
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for i in 0..3u64 {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
        // The buffers can never fill or expire; only this makes them move.
        am::flush(ctx);
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == 3);
        assert_eq!(log.lock().clone(), vec![0, 1, 2]);
    }
    am::barrier(ctx);
}

/// A timed inbox park terminates at its deadline even when no message ever
/// arrives (the reliable layer's pump depends on this wake).
fn battery_timeout_wake<F: Fabric>(ctx: &F) {
    setup(ctx);
    am::barrier(ctx);
    let deadline = ctx.now() + mpmd_sim::us(200.0);
    while ctx.now() < deadline {
        ctx.park_for_inbox_until(deadline);
    }
    assert!(ctx.now() >= deadline);
    am::barrier(ctx);
}

/// A sleep lasts its full time: a sibling's `unpark` finds the sleeper not
/// parked and is dropped. The sleep's timer ends that sleep and nothing else,
/// so a later `park` waits for its own `unpark`.
fn battery_sleep_ignores_unpark<F: Fabric>(ctx: &F) {
    let nap = mpmd_sim::us(200.0);
    let me = ctx.task_id();
    let late = Arc::new(AtomicBool::new(false));
    let late2 = Arc::clone(&late);
    // Spawning does not preempt: the sibling runs once `me` sleeps.
    let sibling = ctx.spawn("unparker", move |c: F| {
        c.unpark(me);
        c.sleep(3 * nap); // well past the end of `me`'s sleep
        late2.store(true, Ordering::Release);
        c.unpark(me);
    });
    let t0 = ctx.now();
    ctx.sleep(nap);
    assert!(ctx.now() - t0 >= nap, "an unpark ended a sleep early");
    ctx.park();
    assert!(
        late.load(Ordering::Acquire),
        "park ended before its unpark, by an earlier sleep's timer"
    );
    ctx.join(sibling);
}

/// No node exits barrier `r` before every node entered it.
fn battery_barrier<F: Fabric>(ctx: &F, entered: &[AtomicU64]) {
    const ROUNDS: u64 = 16;
    setup(ctx);
    for r in 0..ROUNDS {
        entered[ctx.node()].fetch_add(1, Ordering::AcqRel);
        am::barrier(ctx);
        for (n, e) in entered.iter().enumerate() {
            let seen = e.load(Ordering::Acquire);
            assert!(
                seen > r,
                "node {} left barrier {r} before node {n} entered (saw {seen})",
                ctx.node()
            );
        }
        am::barrier(ctx);
    }
}

/// The `max_msgs` buffer bound is a flush boundary: exactly `max_msgs`
/// appends go to the wire with no explicit flush, in program order.
fn battery_coalesce_boundary<F: Fabric>(ctx: &F) {
    const BOUND: u64 = 4;
    setup(ctx);
    am::enable_coalescing(
        ctx,
        am::CoalesceConfig {
            max_msgs: BOUND as usize,
            max_bytes: 1 << 30,
            max_linger: mpmd_sim::us(1e12),
        },
    );
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        // Fills the buffer exactly: the append itself must flush.
        for i in 0..BOUND {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == 0);
        // A partial buffer stays put until the explicit flush.
        for i in BOUND..BOUND + 2 {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
        am::flush(ctx);
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == BOUND + 2);
        let want: Vec<u64> = (0..BOUND + 2).collect();
        assert_eq!(log.lock().clone(), want);
    }
    am::barrier(ctx);
}

/// Timed inbox parks keep their deadline fidelity **under load**: a stream
/// of arrivals (each a productive wake that resets the adaptive-wait
/// escalation) must not starve the deadline check — every timed round
/// terminates with the clock at or past its deadline while traffic flows.
fn battery_timeout_fidelity_under_load<F: Fabric>(ctx: &F) {
    const K: u64 = 2_000;
    const ROUNDS: u32 = 8;
    setup(ctx);
    let (_log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for i in 0..K {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
    }
    if ctx.node() == 1 {
        // Deadline-driven rounds racing the arrival stream: exactly the
        // reliable-layer pump's wait pattern. A wait implementation that
        // let productive wakes postpone the timed wake would hang here.
        for _ in 0..ROUNDS {
            let deadline = ctx.now() + mpmd_sim::us(100.0);
            while ctx.now() < deadline {
                ctx.park_for_inbox_until(deadline);
                am::poll(ctx);
            }
            assert!(ctx.now() >= deadline);
        }
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == K);
    }
    am::barrier(ctx);
}

const H_SYNC: am::HandlerId = 101;

/// With coalescing on (finite linger, so an append may find the deadline
/// passed and flush early), a synchronous read issued after a burst of
/// coalesced sends must observe **all** of them: the sync request travels
/// behind the burst on the same link, whichever flush point sent what.
fn battery_coalesced_flush_before_sync_read<F: Fabric>(ctx: &F) {
    const K: u64 = 8;
    const ROUNDS: u64 = 12;
    setup(ctx);
    am::enable_coalescing(
        ctx,
        am::CoalesceConfig {
            max_msgs: 1 << 20,
            max_bytes: 1 << 30,
            max_linger: mpmd_sim::us(5.0),
        },
    );
    let (log, count) = seq_sink(ctx);
    // The sync read: node 1 replies with how many H_SEQ messages it had
    // handled when the request's handler ran.
    let seen_at_sync = Arc::new(AtomicU64::new(u64::MAX));
    let sync_replies = Arc::new(AtomicU64::new(0));
    let (seen2, replies2) = (Arc::clone(&seen_at_sync), Arc::clone(&sync_replies));
    let count_for_sync = Arc::clone(&count);
    am::register(ctx, H_SYNC, move |rctx: &F, m| {
        if m.args[0] == 0 {
            // Request on node 1: reply with the current handled count.
            let seen = count_for_sync.load(Ordering::Acquire);
            am::endpoint(rctx)
                .to(m.src)
                .handler(H_SYNC)
                .args([1, seen, 0, 0])
                .send();
        } else {
            // Reply on node 0.
            seen2.store(m.args[1], Ordering::Release);
            replies2.fetch_add(1, Ordering::AcqRel);
        }
    });
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for round in 0..ROUNDS {
            for i in 0..K {
                ep.to(1)
                    .handler(H_SEQ)
                    .args([round * K + i, 0, 0, 0])
                    .send();
            }
            ep.to(1).handler(H_SYNC).args([0, 0, 0, 0]).send();
            let r = Arc::clone(&sync_replies);
            am::wait_until(ctx, move || r.load(Ordering::Acquire) == round + 1);
            let seen = seen_at_sync.load(Ordering::Acquire);
            assert!(
                seen >= (round + 1) * K,
                "sync read overtook coalesced sends: saw {seen} of {} \
                 after round {round}",
                (round + 1) * K
            );
        }
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == ROUNDS * K);
        let want: Vec<u64> = (0..ROUNDS * K).collect();
        assert_eq!(log.lock().clone(), want, "coalesced stream reordered");
    }
    am::barrier(ctx);
}

/// Nothing runs beside a node's tasks: a sender that buffers and then blocks
/// through the raw fabric — no flush, no poll, no further append — keeps its
/// buffer however far it sleeps past `max_linger` (which three back-to-back
/// appends cannot outlast), and its next poll sends it.
fn battery_silent_sender_holds_its_buffer<F: Fabric>(ctx: &F) {
    setup(ctx);
    am::enable_coalescing(
        ctx,
        am::CoalesceConfig {
            max_msgs: 1 << 20,
            max_bytes: 1 << 30,
            max_linger: mpmd_sim::us(2_000.0),
        },
    );
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for i in 0..3u64 {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
        let sent = ctx.snapshot().stats[0].msgs_sent;
        ctx.sleep(mpmd_sim::us(10_000.0));
        assert_eq!(
            ctx.snapshot().stats[0].msgs_sent,
            sent,
            "something sent the sleeping sender's buffer for it"
        );
        am::poll(ctx);
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == 3);
        assert_eq!(log.lock().clone(), vec![0, 1, 2]);
    }
    am::barrier(ctx);
}

const H_STORM: am::HandlerId = 102;

/// Task storm (a): a `parfor` of 500 bodies, each blocked on a sync variable
/// that only a reply handler writes, 20 times over. Every body must run
/// exactly once and wake with its own value, however tasks are carried.
fn storm_parfor<F: Fabric>(ctx: &F) {
    const N: u64 = 500;
    const ROUNDS: u64 = 20;
    let vars: Arc<Vec<thr::SyncVar<u64>>> =
        Arc::new((0..N * ROUNDS).map(|_| thr::SyncVar::new()).collect());
    let served = Arc::new(AtomicU64::new(0));
    let replies = Arc::new(AtomicU64::new(0));
    let (vars2, served2, replies2) = (Arc::clone(&vars), Arc::clone(&served), Arc::clone(&replies));
    am::register(ctx, H_STORM, move |rctx: &F, m| {
        let slot = m.args[1];
        if m.args[0] == 0 {
            served2.fetch_add(1, Ordering::AcqRel);
            am::endpoint(rctx)
                .to(m.src)
                .handler(H_STORM)
                .args([1, slot, slot * 3 + 1, 0])
                .send();
        } else {
            vars2[slot as usize].write(rctx, m.args[2]);
            replies2.fetch_add(1, Ordering::AcqRel);
        }
    });
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ran: Arc<Vec<AtomicU64>> =
            Arc::new((0..N * ROUNDS).map(|_| AtomicU64::new(0)).collect());
        for round in 0..ROUNDS {
            let bodies: Vec<thr::Thread> = (round * N..(round + 1) * N)
                .map(|slot| {
                    let (vars, ran) = (Arc::clone(&vars), Arc::clone(&ran));
                    thr::spawn(ctx, "storm", move |c: F| {
                        am::endpoint(&c)
                            .to(1)
                            .handler(H_STORM)
                            .args([0, slot, 0, 0])
                            .send();
                        assert_eq!(vars[slot as usize].read(&c), slot * 3 + 1);
                        ran[slot as usize].fetch_add(1, Ordering::AcqRel);
                    })
                })
                .collect();
            let r = Arc::clone(&replies);
            am::wait_until(ctx, move || r.load(Ordering::Acquire) == (round + 1) * N);
            for b in bodies {
                b.join(ctx);
            }
        }
        for (slot, n) in ran.iter().enumerate() {
            assert_eq!(n.load(Ordering::Acquire), 1, "body {slot} run count");
        }
    } else if ctx.node() == 1 {
        let s = Arc::clone(&served);
        am::wait_until(ctx, move || s.load(Ordering::Acquire) == N * ROUNDS);
    }
    am::barrier(ctx);
}

/// Task storm (b): no wakeup token is kept. An `unpark` that finds its
/// target not parked — blocked in a `join`, which it must not end, or running
/// — is dropped and does not end the target's next `park`; neither does one
/// aimed at a task that has exited release a later task's `park`. Ids of
/// long-gone tasks stay valid: finished, joinable at once, unparkable.
fn storm_tokens<F: Fabric>(ctx: &F) {
    let me = ctx.task_id();
    let mut gone = Vec::new();
    for _ in 0..50 {
        // The unpark finds `me` blocked in the `join` below (spawn does not
        // preempt) and must not end that join before `waker` has finished.
        let waker_done = Arc::new(AtomicBool::new(false));
        let done = Arc::clone(&waker_done);
        let waker = ctx.spawn("waker", move |c: F| {
            c.unpark(me);
            c.yield_now(); // a joiner woken early would run here
            done.store(true, Ordering::Release);
        });
        ctx.join(waker);
        assert!(
            waker_done.load(Ordering::Acquire),
            "join returned before its target finished"
        );
        ctx.unpark(me); // finds `me` running
        ctx.join(waker); // join-after-finish: must not hang
        ctx.unpark(waker); // aimed at a task that has exited

        // Neither unpark of `me` ends this park: only `again` does, after a
        // sleep. A fabric that kept a token is caught by order, not by a hang.
        let second = Arc::new(AtomicBool::new(false));
        let second2 = Arc::clone(&second);
        let again = ctx.spawn("again", move |c: F| {
            c.sleep(mpmd_sim::us(200.0));
            second2.store(true, Ordering::Release);
            c.unpark(me);
        });
        ctx.park();
        assert!(
            second.load(Ordering::Acquire),
            "park ended by an unpark that came before it"
        );
        ctx.join(again);

        let at_park = Arc::new(AtomicBool::new(false));
        let released = Arc::new(AtomicBool::new(false));
        let (at_park2, released2) = (Arc::clone(&at_park), Arc::clone(&released));
        let sleeper = ctx.spawn("sleeper", move |c: F| {
            at_park2.store(true, Ordering::Release);
            c.park();
            assert!(
                released2.load(Ordering::Acquire),
                "park released by an unpark meant for an exited task"
            );
        });
        while !at_park.load(Ordering::Acquire) {
            ctx.yield_now();
        }
        // Time for a leaked token to show: with one, `sleeper` is through
        // its `park` microseconds after raising `at_park`.
        ctx.sleep(mpmd_sim::us(200.0));
        released.store(true, Ordering::Release);
        ctx.unpark(sleeper);
        ctx.join(sleeper);
        gone.extend([waker, again, sleeper]);
    }
    for t in gone {
        assert!(ctx.is_finished(t));
        ctx.join(t);
        ctx.unpark(t);
    }
}

/// The top handler id.
const H_TOP: am::HandlerId = am::HANDLER_ID_LIMIT - 1;
/// Registered by `H_TOP`'s handler while it runs.
const H_LATE: am::HandlerId = 103;

/// The handler table takes every id below the bound, and a handler may
/// register another id while it runs: the next message to that id is
/// dispatched, so nothing holds the table across a handler.
fn battery_handler_table<F: Fabric>(ctx: &F) {
    setup(ctx);
    assert!(!am::is_registered(ctx, am::HANDLER_ID_LIMIT));
    assert!(!am::is_registered(ctx, am::HandlerId::MAX));
    let log = Arc::new(Mutex::new(Vec::new()));
    let l2 = Arc::clone(&log);
    am::register(ctx, H_TOP, move |rctx: &F, m| {
        l2.lock().push((H_TOP, m.args[0]));
        let l3 = Arc::clone(&l2);
        am::register(rctx, H_LATE, move |_, m| {
            l3.lock().push((H_LATE, m.args[0]));
        });
    });
    assert!(am::is_registered(ctx, H_TOP) && !am::is_registered(ctx, H_LATE));
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        ep.to(1).handler(H_TOP).args([7, 0, 0, 0]).send();
        ep.to(1).handler(H_LATE).args([8, 0, 0, 0]).send();
    }
    if ctx.node() == 1 {
        let l = Arc::clone(&log);
        am::wait_until(ctx, move || l.lock().len() == 2);
        assert_eq!(*log.lock(), [(H_TOP, 7), (H_LATE, 8)]);
        assert!(am::is_registered(ctx, H_LATE));
    }
    am::barrier(ctx);
}

/// A node's whole program.
type Program<F> = fn(&F);

/// Registrations the table refuses, each with the message it fails the run
/// with: an id past the bound, and an id registered twice.
fn refused_registrations<F: Fabric>() -> Vec<(Program<F>, String)> {
    vec![
        (
            |c| am::register(c, am::HANDLER_ID_LIMIT, |_, _| {}),
            "AM handler id 256 is out of range: ids are below HANDLER_ID_LIMIT (256)".into(),
        ),
        (
            |c| {
                am::register(c, H_SEQ, |_, _| {});
                am::register(c, H_SEQ, |_, _| {});
            },
            "duplicate AM handler id 100".into(),
        ),
    ]
}

/// Each program must fail `run` with exactly its message.
fn check_refused<F: Fabric>(
    fabric: &str,
    refused: Vec<(Program<F>, String)>,
    run: impl Fn(Program<F>),
) {
    for (program, want) in refused {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(program)))
            .expect_err("a refused program must fail the run");
        let msg = payload.downcast::<String>().expect("a formatted panic");
        assert_eq!(*msg, want, "{fabric}");
    }
}

/// A task that joins itself fails the run at once instead of waiting forever.
fn refused_self_join<F: Fabric>() -> Vec<(Program<F>, String)> {
    vec![(
        |c| c.join(c.task_id()),
        "`join` of TaskId(0) by itself would never return".into(),
    )]
}

/// Node singletons: `Outer`'s init fetches an `Inner`.
struct Outer(u64);
struct Inner(u64);

/// One type per `NodeData` slot, and one more.
struct Tag<const N: usize>;

/// An init may fetch another type, and every later fetch — from any task of
/// the node — lends the value the first one made.
fn battery_node_data<F: Fabric>(ctx: &F) {
    let outer = ctx.node_data(|| Outer(ctx.node_data(|| Inner(7)).0 + 1));
    assert_eq!((outer.0, ctx.node_data(|| Inner(0)).0), (8, 7));
    let addr = outer as *const Outer as usize;
    let sibling = ctx.spawn("fetcher", move |c: F| {
        assert_eq!(c.node_data(|| Outer(0)) as *const Outer as usize, addr);
    });
    ctx.join(sibling);
    assert!(std::ptr::eq(ctx.node_data(|| Outer(0)), outer));
}

/// What `node_data` refuses: an init that fetches its own type, and a type
/// past the bound.
fn refused_node_data<F: Fabric>() -> Vec<(Program<F>, String)> {
    assert_eq!(NodeData::SLOTS, 8, "the second program fetches nine types");
    vec![
        (
            |c| _ = c.node_data(|| Outer(c.node_data(|| Outer(0)).0)),
            format!(
                "node_data::<{}> re-entered from its own init",
                std::any::type_name::<Outer>()
            ),
        ),
        (
            |c| {
                c.node_data(|| Tag::<0>);
                c.node_data(|| Tag::<1>);
                c.node_data(|| Tag::<2>);
                c.node_data(|| Tag::<3>);
                c.node_data(|| Tag::<4>);
                c.node_data(|| Tag::<5>);
                c.node_data(|| Tag::<6>);
                c.node_data(|| Tag::<7>);
                c.node_data(|| Tag::<8>);
            },
            "a node holds at most NodeData::SLOTS = 8 types".into(),
        ),
    ]
}

/// Task storm (c): wind-down hands the node's thread round. Every node keeps
/// two daemons: one waits, in a loop of `park`s, for a flag that the other
/// sets only once the shutdown has begun — so the waiter's parks must let
/// its sibling run even when they no longer block.
fn storm_wind_down<F: Fabric>(ctx: &F, wound_down: &Arc<AtomicU64>) {
    let handed_over = Arc::new(AtomicBool::new(false));
    let (flag, count) = (Arc::clone(&handed_over), Arc::clone(wound_down));
    let waiter = ctx.spawn_daemon("waiter", move |c: F| {
        while !flag.load(Ordering::Acquire) {
            c.park();
        }
        count.fetch_add(1, Ordering::AcqRel);
    });
    let count = Arc::clone(wound_down);
    ctx.spawn_daemon("setter", move |c: F| {
        while !c.shutting_down() {
            c.park();
        }
        handed_over.store(true, Ordering::Release);
        c.unpark(waiter);
        count.fetch_add(1, Ordering::AcqRel);
    });
}

/// Daemons of the task storm that must have wound down by the end of a run
/// on `nodes` nodes: (c)'s pair on every node.
fn storm_daemons(nodes: u64) -> u64 {
    2 * nodes
}

fn battery_task_storm<F: Fabric>(ctx: &F, wound_down: &Arc<AtomicU64>) {
    setup(ctx);
    storm_parfor(ctx);
    storm_tokens(ctx);
    storm_wind_down(ctx, wound_down);
    am::barrier(ctx);
}

/// Tasks of one node run until they block, one at a time: a section of
/// plain computation between two scheduling points is never interleaved with
/// a sibling's and never suspended. `inside` and `steps` are written with
/// plain loads and stores, no read-modify-write — the fabric's scheduling is
/// the only thing that keeps the sections apart.
fn battery_run_until_block<F: Fabric>(ctx: &F) {
    const TASKS: u64 = 8;
    const SECTIONS: u64 = 40;
    const STEPS: u64 = 200;
    let inside = Arc::new(AtomicBool::new(false));
    let steps = Arc::new(AtomicU64::new(0));
    let tasks: Vec<_> = (0..TASKS)
        .map(|me| {
            let (inside, steps) = (Arc::clone(&inside), Arc::clone(&steps));
            ctx.spawn("section", move |c: F| {
                let mut x = me;
                for _ in 0..SECTIONS {
                    assert!(
                        !inside.load(Ordering::Relaxed),
                        "a sibling is inside its section"
                    );
                    inside.store(true, Ordering::Relaxed);
                    let before = steps.load(Ordering::Relaxed);
                    for k in 1..=STEPS {
                        // Long enough that concurrent siblings would overlap.
                        for _ in 0..100 {
                            x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k);
                        }
                        steps.store(before + k, Ordering::Relaxed);
                    }
                    assert_eq!(
                        steps.load(Ordering::Relaxed),
                        before + STEPS,
                        "a sibling ran during a section that never called the fabric"
                    );
                    inside.store(false, Ordering::Relaxed);
                    c.yield_now();
                }
            })
        })
        .collect();
    for t in tasks {
        ctx.join(t);
    }
    assert_eq!(steps.load(Ordering::Relaxed), TASKS * SECTIONS * STEPS);
}

/// Timers fire in deadline order, never early, and do not need the node to
/// go idle: three tasks wait — two in `sleep`, one in a timed inbox wait —
/// for deadlines given out of order while the root keeps yielding. Ordering
/// only: nothing here bounds how late a wake-up may be.
fn battery_deadline_order<F: Fabric>(ctx: &F) {
    let t0 = ctx.now();
    // Far enough apart that starting the waiters cannot eat a deadline.
    let due_ms = [30.0, 10.0, 20.0];
    // (which waiter, root iterations so far), in wake-up order.
    let woke = Arc::new(Mutex::new(Vec::new()));
    let iterations = Arc::new(AtomicU64::new(0));
    let tasks: Vec<_> = due_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| {
            let deadline = t0 + mpmd_sim::ms(*ms);
            let (woke, iterations) = (Arc::clone(&woke), Arc::clone(&iterations));
            ctx.spawn("waiter", move |c: F| {
                if i == 1 {
                    while c.now() < deadline {
                        c.park_for_inbox_until(deadline);
                    }
                } else {
                    c.sleep(deadline.saturating_sub(c.now()));
                }
                assert!(c.now() >= deadline, "waiter {i} woke early");
                woke.lock().push((i, iterations.load(Ordering::Acquire)));
            })
        })
        .collect();
    while woke.lock().len() < due_ms.len() {
        // The simulator's clock moves only when somebody charges it.
        ctx.charge(Bucket::Cpu, 10_000);
        iterations.fetch_add(1, Ordering::AcqRel);
        ctx.yield_now();
    }
    for t in tasks {
        ctx.join(t);
    }
    let woke = woke.lock().clone();
    let order: Vec<usize> = woke.iter().map(|(i, _)| *i).collect();
    assert_eq!(order, [1, 2, 0], "wake-up order is not deadline order");
    let seen: Vec<u64> = woke.iter().map(|(_, n)| *n).collect();
    assert!(
        seen[0] > 0 && seen[0] < seen[1] && seen[1] < seen[2],
        "the yielding root did not run between wake-ups: {seen:?}"
    );
}

/// What a task may do with the id of a task of another node, or with one its
/// own node never issued: nothing.
type Reach<F> = fn(&F, TaskId);

/// An id of node 0 of two that no spawn issues: ids are `seq * nodes + node`,
/// and the battery spawns nothing.
const UNISSUED: TaskId = TaskId(2_000);

fn reaches<F: Fabric>() -> [(&'static str, Reach<F>); 3] {
    [
        ("unpark", |c, t| c.unpark(t)),
        ("join", |c, t| c.join(t)),
        ("is_finished", |c, t| _ = c.is_finished(t)),
    ]
}

/// Only messages cross nodes: node 0's root learns the id of node 1's root
/// through shared memory and `reach`es for it, which must fail the run. With
/// `unissued`, it reaches for [`UNISSUED`] instead, which must fail it too.
fn battery_across_nodes<F: Fabric>(ctx: &F, ids: &[AtomicU32; 2], reach: Reach<F>, unissued: bool) {
    ids[ctx.node()].store(ctx.task_id().0, Ordering::Release);
    if ctx.node() == 0 && unissued {
        reach(ctx, UNISSUED);
    } else if ctx.node() == 0 {
        let peer = loop {
            match ids[1].load(Ordering::Acquire) {
                u32::MAX => {
                    // The simulator runs node 1 once this node's clock has
                    // moved past it.
                    ctx.charge(Bucket::Cpu, 1_000);
                    ctx.yield_now();
                }
                id => break TaskId(id),
            }
        };
        reach(ctx, peer);
    }
}

/// Every `reach` across nodes fails `run` with the one shared message, and
/// every `reach` for an unissued id with the other one.
fn check_across_nodes<F: Fabric>(fabric: &str, run: impl Fn(Arc<[AtomicU32; 2]>, Reach<F>, bool)) {
    for (what, reach) in reaches::<F>() {
        for unissued in [false, true] {
            let ids = Arc::new([AtomicU32::new(u32::MAX), AtomicU32::new(u32::MAX)]);
            let ids2 = Arc::clone(&ids);
            let run = || run(ids2, reach, unissued);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("reaching across nodes must fail the run");
            let msg = payload.downcast::<String>().expect("a formatted panic");
            let peer = TaskId(ids[1].load(Ordering::Acquire));
            let want = if unissued {
                format!("`{what}` of {UNISSUED:?}: no such task was spawned")
            } else {
                format!("`{what}` of {peer:?} reaches across nodes: only messages cross nodes")
            };
            assert_eq!(*msg, want, "{fabric}");
        }
    }
}

/// Same-node contention and hand-off through the threads package, on each
/// node's own objects: a lock held across a yield makes its sibling block
/// and take it next, a condition variable passes a turn back and forth
/// between two tasks, and a sync-variable read blocks until its sibling
/// writes.
fn battery_node_local_sync<F: Fabric>(ctx: &F) {
    const TURNS: u32 = 50;
    let log = Arc::new(thr::Mutex::new(Vec::new()));
    let l2 = Arc::clone(&log);
    let holder = thr::spawn(ctx, "holder", move |c| {
        let mut g = l2.lock(&c);
        g.push(1);
        thr::yield_now(&c);
        g.push(2);
    });
    thr::yield_now(ctx);
    log.lock(ctx).push(3);
    holder.join(ctx);
    assert_eq!(*log.lock(ctx), [1, 2, 3], "node {}", ctx.node());

    // Even turns are the root's, odd ones the sibling's.
    let turn = Arc::new((thr::Mutex::new(0u32), thr::CondVar::new()));
    let t2 = Arc::clone(&turn);
    let take_turns = |c: &F, (m, cv): &(thr::Mutex<u32>, thr::CondVar), mine: u32| {
        let mut g = m.lock(c);
        while *g < 2 * TURNS {
            if *g % 2 == mine {
                *g += 1;
                cv.signal(c);
            } else {
                g = cv.wait(c, g);
            }
        }
    };
    let odd = thr::spawn(ctx, "odd", move |c| take_turns(&c, &t2, 1));
    take_turns(ctx, &turn, 0);
    odd.join(ctx);
    assert_eq!(turn.1.waiter_count(ctx), 0);

    let sv = Arc::new(thr::SyncVar::new());
    let s2 = Arc::clone(&sv);
    let reader = thr::spawn(ctx, "reader", move |c| assert_eq!(s2.read(&c), 7u64));
    thr::yield_now(ctx);
    sv.write(ctx, 7);
    reader.join(ctx);
}

/// Threads objects that node 0 uses first, and so owns.
struct Owned {
    m: thr::Mutex<u32>,
    cv: thr::CondVar,
    claimed: AtomicBool,
}

type Touch<F> = fn(&F, &Owned);

fn touches<F: Fabric>() -> [(&'static str, Touch<F>); 2] {
    [
        ("lock", |c, o| *o.m.lock(c) += 1),
        ("signal", |c, o| o.cv.signal(c)),
    ]
}

/// Threads objects are node-local: node 0 locks the mutex and signals the
/// condition variable, and then node 1 `touch`es one of them, which must
/// fail the run.
fn battery_node_local_rule<F: Fabric>(ctx: &F, owned: &Owned, touch: Touch<F>) {
    if ctx.node() == 0 {
        *owned.m.lock(ctx) += 1;
        owned.cv.signal(ctx);
        owned.claimed.store(true, Ordering::Release);
        return;
    }
    while !owned.claimed.load(Ordering::Acquire) {
        // The simulator runs node 0 once this node's clock has moved past it.
        ctx.charge(Bucket::Cpu, 1_000);
        ctx.yield_now();
    }
    touch(ctx, owned);
}

/// Every `touch` from the second node fails `run` with the node-local rule.
fn check_node_local_rule<F: Fabric>(fabric: &str, run: impl Fn(Arc<Owned>, Touch<F>)) {
    for (what, touch) in touches::<F>() {
        let owned = Arc::new(Owned {
            m: thr::Mutex::new(0),
            cv: thr::CondVar::new(),
            claimed: AtomicBool::new(false),
        });
        let msg = panic_message(|| {
            run(Arc::clone(&owned), touch);
            unreachable!("`{what}` from node 1 passed")
        });
        assert_eq!(
            msg,
            format!("a touch from node 1 of another node's state {ACROSS_NODES}"),
            "{fabric}: {what}"
        );
        assert!(owned.claimed.load(Ordering::Acquire), "{fabric}: {what}");
    }
}

/// What node 0 lends node 1: its handle, and a lock it owns. With
/// `sibling`, node 0's root lends its handle to a task it spawned instead.
struct Lent<F> {
    handle: Mutex<Option<F>>,
    m: thr::Mutex<u32>,
    sibling: bool,
}

impl<F> Lent<F> {
    fn new(sibling: bool) -> Arc<Self> {
        let (handle, m) = (Mutex::new(None), thr::Mutex::new(0));
        Arc::new(Lent { handle, m, sibling })
    }
}

type Misuse<F> = fn(&F, &thr::Mutex<u32>);

fn misuses<F: Fabric>() -> [(&'static str, Misuse<F>); 4] {
    [
        ("lock", |c, m| *m.lock(c) += 1),
        ("charge", |c, _| c.charge(Bucket::Cpu, 1)),
        ("with_stats", |c, _| c.with_stats(|s| s.polls.add(1))),
        ("node_data", |c, _| _ = c.node_data(|| 0u8)),
    ]
}

/// Calls a sibling makes through its parent's handle, and whether each
/// blocks: a blocking call would block the parent, not the sibling.
fn sibling_calls<F: Fabric>() -> [(&'static str, Misuse<F>, bool); 9] {
    [
        ("park", |c, _| c.park(), true),
        ("park_for_inbox", |c, _| c.park_for_inbox(), true),
        (
            "park_for_inbox_until",
            |c, _| c.park_for_inbox_until(u64::MAX),
            true,
        ),
        ("sleep", |c, _| c.sleep(1), true),
        ("yield_now", |c, _| c.yield_now(), true),
        ("join", |c, _| c.join(c.task_id()), true),
        ("charge", |c, _| c.charge(Bucket::Cpu, 1), false),
        (
            "send_msg",
            |c, _| c.send_msg(c.node(), 8, 1, Payload::any(0u64)),
            false,
        ),
        ("try_recv", |c, _| _ = c.try_recv(), false),
    ]
}

/// A handle works only for a task of its own node: node 0 locks its lock,
/// and so owns it, and lends node 1 its handle, through which node 1's task
/// then `misuse`s node 0's state, which must fail the run. A handle blocks
/// only its own task: node 0's root lends a sibling its handle, through
/// which the sibling makes a call, and waits for it.
fn battery_lent_handle<F: Fabric>(ctx: &F, lent: &Arc<Lent<F>>, misuse: Misuse<F>) {
    if lent.sibling {
        if ctx.node() == 0 {
            let (parent, lent) = (ctx.clone(), Arc::clone(lent));
            let sibling = ctx.spawn("sibling", move |_: F| misuse(&parent, &lent.m));
            ctx.join(sibling);
        }
        return;
    }
    if ctx.node() == 0 {
        *lent.m.lock(ctx) += 1;
        *lent.handle.lock() = Some(ctx.clone());
        return;
    }
    let theirs = loop {
        if let Some(h) = lent.handle.lock().take() {
            break h;
        }
        // The simulator runs node 0 once this node's clock has moved past it.
        ctx.charge(Bucket::Cpu, 1_000);
        ctx.yield_now();
    };
    misuse(&theirs, &lent.m);
}

/// Every `misuse` through the lent handle fails `run` with the handle rule.
/// Through a `sibling`'s handle, every blocking call fails `run` with its
/// own rule, and the rest go through.
fn check_lent_handle<F: Fabric>(
    fabric: &str,
    sibling: bool,
    run: impl Fn(Arc<Lent<F>>, Misuse<F>),
) {
    if sibling {
        for (what, call, blocks) in sibling_calls::<F>() {
            let run = || run(Lent::new(true), call);
            if blocks {
                let msg = panic_message(|| {
                    run();
                    unreachable!("`{what}` through the parent's handle passed")
                });
                assert_eq!(msg, BORROWED, "{fabric}: a sibling's {what}");
            } else {
                run();
            }
        }
        return;
    }
    for (what, misuse) in misuses::<F>() {
        let lent = Lent::new(false);
        let msg = panic_message(|| {
            run(Arc::clone(&lent), misuse);
            unreachable!("`{what}` through node 0's handle passed")
        });
        assert_eq!(msg, NOT_ITS_NODE, "{fabric}: {what}");
        assert!(
            lent.handle.lock().is_none(),
            "{fabric}: {what} lent nothing"
        );
    }
}

/// An inbox waiter keeps its place in line from its first wait, even when a
/// timer has woken it since: task A's timed inbox wait expires, B starts an
/// inbox wait, A waits again, a frame from node 1 arrives, and A resumes
/// first. Node 0's root keeps yielding throughout, so the node never idles
/// (`LocalFabric`'s idle park would release both waiters, spuriously).
fn battery_wake_order<F: Inbox>(ctx: &F, both_wait: &Arc<AtomicBool>) {
    if ctx.node() == 1 {
        while !both_wait.load(Ordering::Acquire) {
            ctx.charge(Bucket::Cpu, 1_000);
            ctx.yield_now();
        }
        ctx.send_msg(0, 8, 1_000, Payload::any(0u64));
        return;
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let b_waits = Arc::new(AtomicBool::new(false));
    let (both_wait, log_a) = (Arc::clone(both_wait), Arc::clone(&log));
    ctx.spawn("A", move |c: F| {
        let deadline = c.now() + mpmd_sim::us(100.0);
        while c.now() < deadline {
            c.park_for_inbox_until(deadline);
        }
        let log_b = Arc::clone(&log_a);
        let b_waits2 = Arc::clone(&b_waits);
        let b = c.spawn("B", move |c: F| {
            // Run until it blocks: nothing else runs between these lines.
            b_waits2.store(true, Ordering::Release);
            wait_for_frame(&c);
            log_b.lock().push("B");
        });
        while !b_waits.load(Ordering::Acquire) {
            c.yield_now();
        }
        both_wait.store(true, Ordering::Release);
        wait_for_frame(&c);
        log_a.lock().push("A");
        c.join(b);
    });
    while log.lock().len() < 2 {
        ctx.charge(Bucket::Cpu, 10_000);
        ctx.yield_now();
    }
    assert_eq!(
        *log.lock(),
        ["A", "B"],
        "the waiter listed first resumes first"
    );
}

fn wait_for_frame<F: Inbox>(ctx: &F) {
    while ctx.inbox_len() == 0 {
        ctx.park_for_inbox();
    }
}

const PROBES: u64 = 7;

/// Instrumentation through the generic path. Neither driver installs a
/// tracer, so the event closure must never run and spans are the sentinel;
/// the metric probes must land in the report's registry — or nowhere, with
/// metrics off — whichever fabric carried them.
fn battery_instrumentation<F: Inbox>(ctx: &F) {
    ctx.trace_event(|| panic!("trace_event built its event on a tracing-off run"));
    assert_eq!(ctx.span("conf.span").id(), SpanId(0));
    assert_eq!(ctx.metric_now().is_some(), ctx.metrics_enabled());
    let t0 = ctx.now();
    for _ in 0..PROBES {
        ctx.metric_observe_since("conf.since_ns", t0);
        if ctx.metrics_enabled() {
            ctx.metric_observe("conf.inbox_depth", ctx.inbox_len() as u64);
        }
        ctx.metric_observe("conf.probes", 2);
    }
}

fn check_instrumentation(fabric: &str, metrics_on: bool, report: &Report) {
    let Some(m) = &report.metrics else {
        assert!(!metrics_on, "{fabric}: metrics on but no registry");
        return;
    };
    assert!(metrics_on, "{fabric}: registry on a metrics-off run");
    assert!(
        report.trace.is_none(),
        "{fabric}: a trace from a tracing-off run"
    );
    let nodes = report.nodes() as u64;
    for name in ["conf.since_ns", "conf.inbox_depth", "conf.probes"] {
        let h = m
            .hist(name)
            .unwrap_or_else(|| panic!("{fabric}: no histogram {name}"));
        assert_eq!(h.count, PROBES * nodes, "{fabric}: {name} count");
    }
    // Nothing was ever sent: every sampled depth is 0.
    assert_eq!(m.hist("conf.inbox_depth").unwrap().max, 0, "{fabric}");
    assert_eq!(
        m.hist("conf.probes").unwrap().sum,
        2 * PROBES * nodes,
        "{fabric}"
    );
}

/// Per-node ring of the `trace` batteries: node 0's records fit, node 1's
/// overflow it.
const TRACE_RING: usize = 64;
/// Charges node 1 makes inside its one span, pushing the span's Start out.
const TRACE_CHARGES: u64 = 100;

/// Spans through the generic path. Node 0 nests spans and a handler frame
/// on its root and spans on a child task; node 1 opens one span and charges
/// until its ring has lost the span's Start.
fn battery_trace<F: Fabric>(ctx: &F) {
    if ctx.node() == 1 {
        let _lost = ctx.span("conf.lost");
        for _ in 0..TRACE_CHARGES {
            ctx.charge(Bucket::Cpu, 1);
        }
        return;
    }
    let _outer = ctx.span("conf.outer");
    ctx.charge(Bucket::Cpu, 1);
    let child = ctx.spawn("child", |c: F| {
        let _s = c.span("conf.child");
        let _t = c.span("conf.child.inner");
        c.charge(Bucket::Cpu, 1);
    });
    {
        let _inner = ctx.span("conf.inner");
        ctx.trace_event(|| TraceEvent::HandlerStart { handler: 7 });
        ctx.charge(Bucket::Net, 1);
        ctx.trace_event(|| TraceEvent::HandlerEnd { handler: 7 });
    }
    ctx.join(child);
}

/// Each (node, task name)'s closed frames as (name, depth), in close order.
fn span_shape(log: &TraceLog) -> BTreeMap<(usize, String), Vec<(String, usize)>> {
    let names: HashMap<TaskId, &str> = log
        .events()
        .filter_map(|r| match &r.event {
            TraceEvent::TaskSpawn { name } => Some((r.task, name.as_str())),
            _ => None,
        })
        .collect();
    let mut shape: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for s in log.spans() {
        let task = names[&s.task].to_string();
        shape
            .entry((s.node, task))
            .or_default()
            .push((s.name, s.depth));
    }
    shape
}

/// Both fabrics close the same frames at the same depths on every task, and
/// count as dropped both what overflowed node 1's ring and the End whose
/// Start it lost. `scheduler_records` is what the fabric itself records on
/// node 1 besides the spawn of its root: the simulator also records the
/// switch to it.
fn check_trace(fabric: &str, report: &Report, scheduler_records: u64) {
    let log = report
        .trace
        .as_ref()
        .expect("a traced run returns its trace");
    let frames = |v: &[(&str, usize)]| v.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let want = BTreeMap::from([
        (
            (0, "child".to_string()),
            frames(&[("conf.child.inner", 1), ("conf.child", 0)]),
        ),
        (
            (0, "main".to_string()),
            frames(&[("am.handler[7]", 2), ("conf.inner", 1), ("conf.outer", 0)]),
        ),
    ]);
    assert_eq!(span_shape(log), want, "{fabric}");
    assert_eq!(
        log.nodes[0].dropped, 0,
        "{fabric}: node 0's ring overflowed"
    );
    let lost = &log.nodes[1];
    assert_eq!(lost.events.len(), TRACE_RING, "{fabric}");
    // The root's spawn, the span's Start and End and every charge; one End
    // orphaned by its lost Start.
    let recorded = 1 + scheduler_records + 2 + TRACE_CHARGES;
    let overflowed = recorded - TRACE_RING as u64;
    assert_eq!(lost.dropped, overflowed + 1, "{fabric}: node 1's drops");
}

/// Frames node 0 sends node 1 in the wake-trace battery, each once node 1
/// has taken the one before.
const WAKE_FRAMES: u64 = 10;

/// Node 1 waits for each of node 0's frames in turn, then sleeps once and
/// joins a child it has not let run: every wait is traced as a `Park`, and
/// whatever ends it — a frame, the timer, the child's exit — as an `Unpark`.
fn battery_wake_trace<F: Inbox>(ctx: &F) {
    for i in 0..WAKE_FRAMES {
        if ctx.node() == 0 {
            ctx.send_msg(1, 8, 1_000, Payload::any(i));
        }
        wait_for_frame(ctx);
        ctx.try_recv().expect("a frame");
        if ctx.node() == 1 {
            ctx.send_msg(0, 8, 1_000, Payload::any(i));
        }
    }
    if ctx.node() == 1 {
        ctx.sleep(1_000);
        let child = ctx.spawn("child", |_: F| {});
        ctx.join(child);
    }
}

/// Every node traced as many `Unpark`s as `Park`s, and node 1 parked at
/// least for the sleep and the join — on the simulator, where no frame is
/// there before node 1 waits for it, exactly once per wait.
fn check_wake_trace(fabric: &str, report: &Report) {
    let log = report
        .trace
        .as_ref()
        .expect("a traced run returns its trace");
    let mut parks = Vec::new();
    for (node, t) in log.nodes.iter().enumerate() {
        assert_eq!(t.dropped, 0, "{fabric}: node {node}'s ring overflowed");
        let count = |want: TraceEvent| t.events.iter().filter(|r| r.event == want).count();
        let (park, unpark) = (count(TraceEvent::Park), count(TraceEvent::Unpark));
        assert_eq!(park, unpark, "{fabric}: node {node}'s parks and unparks");
        parks.push(park);
    }
    let waits = WAKE_FRAMES as usize + 2;
    if fabric == "sim" {
        assert_eq!(parks, [WAKE_FRAMES as usize, waits], "{fabric}");
    } else {
        assert!(parks[1] >= 2, "{fabric}: node 1 parked {} times", parks[1]);
    }
}

/// A span ended out of order fails the run with the tracer's message.
fn mismatched_span_end<F: Fabric>(ctx: &F) {
    let a = ctx.span_start("a");
    let _b = ctx.span_start("b");
    ctx.span_end(a);
}

const MISMATCHED_SPAN_END: &str =
    "Span(SpanId(1)) does not match innermost open span Span(SpanId(2)) on task TaskId(0)";

fn panic_message(run: impl FnOnce() -> Report) -> String {
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).expect_err("the run must fail");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast::<&str>().expect("panic message").to_string(),
    }
}

/// Sets its flag when dropped.
struct DropProbe(Arc<AtomicBool>);

impl Drop for DropProbe {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Once `run` has returned, everything the run allocated is freed: a
/// per-node singleton is dropped. The program goes through a
/// condition-variable wait, whose hand-unlocked guard once leaked a
/// reference to the whole fabric.
fn battery_teardown_frees_state<F: Fabric>(ctx: &F, freed: &Arc<AtomicBool>) {
    let probe = Arc::clone(freed);
    ctx.node_data(move || DropProbe(probe));
    let pair = Arc::new((thr::Mutex::new(false), thr::CondVar::new()));
    let p = Arc::clone(&pair);
    let waiter = thr::spawn(ctx, "waiter", move |c| {
        let (m, cv) = &*p;
        let mut go = m.lock(&c);
        while !*go {
            go = cv.wait(&c, go);
        }
    });
    let (m, cv) = &*pair;
    while cv.waiter_count(ctx) == 0 {
        thr::yield_now(ctx);
    }
    *m.lock(ctx) = true;
    cv.signal(ctx);
    waiter.join(ctx);
}

const PT_TASKS: u64 = 8;
const PT_ITERS: u64 = 2_000;
/// Iterations the extra task drives through its neighbour's handle.
const PT_LENT_ITERS: u64 = 500;
/// Iterations each root adds after the mid-run snapshot.
const PT_LATE_ITERS: u64 = 100;
/// Count / barrier / snapshot / barrier rounds after that, and the
/// iterations each root counts at the top of one.
const PT_ROUNDS: u64 = 3_000;
const PT_ROUND_ITERS: u64 = 5;
const PT_CHARGE: u64 = 3;

/// Where node 0 of a `probe_totals` run leaves its mid-run snapshot.
type ProbeSnap = Arc<Mutex<Option<Snapshot>>>;

/// `iters` rounds of every way of counting, on `count_on`, with scheduling
/// points on the task's own handle `me` in between: yields, and short timed
/// parks that the wall-clock fabric sits out waiting.
fn probe_work<F: Fabric>(count_on: &F, me: &F, iters: u64) {
    for i in 0..iters {
        count_on.charge(Bucket::Cpu, PT_CHARGE);
        count_on.with_stats(|s| s.thread_creates.add(1));
        count_on.metric_observe("probe.units", 2);
        count_on.metric_observe("probe.value", i % 5);
        match i % 250 {
            0 | 100 => me.yield_now(),
            200 => me.park_for_inbox_until(me.now() + 20_000),
            _ => {}
        }
    }
}

/// Counting is exact however many tasks do it and through whichever handle
/// of their node. Per node, `PT_TASKS` concurrent tasks count on their own
/// handles and one more counts through the root's. All of them have exited by the first barrier, so the
/// snapshot node 0 takes between the barriers holds exactly that much for
/// every node; what the roots add afterwards is only in the final report.
///
/// Then the `RegionTimer` pattern, `PT_ROUNDS` times: every root counts and
/// goes straight into a barrier — no join, no wait of its own in between —
/// and the snapshot one node takes before the next barrier must already hold
/// every node's counts of that round, exactly. (A fabric that folds a task's
/// counts into the totals only when the task happens to wait loses a round
/// here whenever the barrier's release is queued before the task looks.)
fn battery_probe_totals<F: Fabric>(ctx: &F, snap: &ProbeSnap) {
    setup(ctx);
    am::barrier(ctx);
    let roots = ctx.clone();
    let mut tasks: Vec<_> = (0..PT_TASKS)
        .map(|_| ctx.spawn("prober", |c: F| probe_work(&c, &c, PT_ITERS)))
        .collect();
    tasks.push(ctx.spawn("lent-prober", move |c: F| {
        assert_ne!(roots.task_id(), c.task_id());
        probe_work(&roots, &c, PT_LENT_ITERS);
    }));
    for t in tasks {
        ctx.join(t);
    }
    am::barrier(ctx);
    if ctx.node() == 0 {
        *snap.lock() = Some(ctx.snapshot());
    }
    am::barrier(ctx);
    probe_work(ctx, ctx, PT_LATE_ITERS);
    let before = PT_TASKS * PT_ITERS + PT_LENT_ITERS + PT_LATE_ITERS;
    for round in 1..=PT_ROUNDS {
        probe_work(ctx, ctx, PT_ROUND_ITERS);
        am::barrier(ctx);
        if ctx.node() as u64 == round % ctx.nodes() as u64 {
            let snap = ctx.snapshot();
            for node in 0..ctx.nodes() {
                check_probe_units(
                    &format!("round {round} snapshot node {node}"),
                    before + round * PT_ROUND_ITERS,
                    &snap.stats[node],
                    snap.metrics.as_ref().map(|m| &m.nodes[node]),
                );
            }
        }
        am::barrier(ctx);
    }
}

/// `units` rounds of `probe_work` must have left exactly this in `stats` and
/// `metrics` (node `node` of a report or snapshot).
fn check_probe_units(
    what: &str,
    units: u64,
    stats: &mpmd_sim::Stats,
    metrics: Option<&mpmd_sim::NodeMetrics>,
) {
    assert_eq!(stats.thread_creates, units, "{what}: with_stats count");
    assert_eq!(
        stats.bucket(Bucket::Cpu),
        PT_CHARGE * units,
        "{what}: charged ns"
    );
    let Some(m) = metrics else { return };
    let u = &m.hists["probe.units"];
    assert_eq!((u.count, u.sum), (units, 2 * units), "{what}: probe.units");
    let h = &m.hists["probe.value"];
    assert_eq!(h.count, units, "{what}: histogram count");
    // Every block of five consecutive rounds observes 0+1+2+3+4, and every
    // task's round count is a multiple of five.
    assert_eq!(h.sum, 2 * units, "{what}: histogram sum");
    assert_eq!((h.min, h.max), (0, 4), "{what}: histogram range");
}

fn check_probe_totals(fabric: &str, metrics_on: bool, snap: &ProbeSnap, report: &Report) {
    assert_eq!(report.metrics.is_some(), metrics_on, "{fabric}: registry");
    let snap = snap.lock().take().expect("node 0 took no snapshot");
    assert_eq!(snap.metrics.is_some(), metrics_on, "{fabric}: registry");
    let before = PT_TASKS * PT_ITERS + PT_LENT_ITERS;
    for node in 0..report.nodes() {
        check_probe_units(
            &format!("{fabric} metrics={metrics_on} snapshot node {node}"),
            before,
            &snap.stats[node],
            snap.metrics.as_ref().map(|m| &m.nodes[node]),
        );
        check_probe_units(
            &format!("{fabric} metrics={metrics_on} report node {node}"),
            before + PT_LATE_ITERS + PT_ROUNDS * PT_ROUND_ITERS,
            &report.stats[node],
            report.metrics.as_ref().map(|m| &m.nodes[node]),
        );
        // Whatever else the run counted (the barriers' own traffic) only
        // grows between the snapshot and the end: `since` panics otherwise.
        let _ = report.stats[node].since(&snap.stats[node]);
    }
    if let (Some(end), Some(mid)) = (&report.metrics, &snap.metrics) {
        let _ = end.since(mid);
    }
}

/// The frame battery's handler: records the round its sender reached.
const H_ROUND: am::HandlerId = 101;
/// Round trips of the frame battery (ten thousand in release), and the
/// units node 1 counts through `with_stats` in each.
const FC_ROUNDS: u64 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};
const FC_UNITS: u64 = 3;
/// Counting steps node 1 takes while node 0 snapshots in a loop, and node
/// 0's sleep between two snapshots.
const FC_SPREE: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};
const FC_GAP_NS: u64 = 2_000;

/// A frame carries its sender's counts, with no barrier. Each round node 1
/// counts through `with_stats` and `metric_observe`, sends node 0 one AM, and
/// then touches only other counters until node 0 answers; node 0, once that
/// AM has run, snapshots and must see exactly what node 1 counted before
/// sending it. Then node 0 snapshots in a loop while node 1 counts on, and
/// every interval between two snapshots must be well-formed (`until` panics
/// on a counter, histogram or clock that went backwards): every counter only
/// grows.
fn battery_frame_carries_counts<F: Fabric>(ctx: &F) {
    setup(ctx);
    let got = Arc::new(AtomicU64::new(0));
    let g = Arc::clone(&got);
    am::register(ctx, H_ROUND, move |_, m| {
        g.store(m.args[0], Ordering::Relaxed)
    });
    am::barrier(ctx);
    let (me, peer) = (ctx.node(), 1 - ctx.node());
    let reached = |round| {
        am::endpoint(ctx)
            .to(peer)
            .handler(H_ROUND)
            .args([round, 0, 0, 0])
    };
    for round in 1..=FC_ROUNDS {
        if me == 1 {
            ctx.with_stats(|s| s.thread_creates.add(FC_UNITS));
            ctx.metric_observe("frame.units", round);
            reached(round).send();
            ctx.with_stats(|s| s.lock_contended.add(1));
            ctx.metric_observe("frame.other", round);
        }
        am::wait_until(ctx, || got.load(Ordering::Relaxed) == round);
        if me == 0 {
            let snap = ctx.snapshot();
            let units = FC_UNITS * round;
            assert_eq!(snap.stats[1].thread_creates, units, "round {round}");
            let h = &snap.metrics.as_ref().expect("metrics on").nodes[1].hists["frame.units"];
            let sum = round * (round + 1) / 2;
            assert_eq!(
                (h.count, h.sum, h.max),
                (round, sum, round),
                "round {round}"
            );
            reached(round).send();
        }
    }
    let done = FC_ROUNDS + 1;
    if me == 1 {
        for i in 0..FC_SPREE {
            ctx.with_stats(|s| {
                s.thread_creates.add(1);
                s.sync_ops.add(2);
            });
            ctx.charge(Bucket::Cpu, 1);
            ctx.metric_observe("frame.units", i % 7);
            ctx.metric_observe("frame.other", i);
        }
        reached(done).send();
    } else {
        let mut earlier = ctx.snapshot();
        while got.load(Ordering::Relaxed) != done {
            ctx.sleep(FC_GAP_NS);
            am::poll(ctx);
            let later = ctx.snapshot();
            let _ = earlier.until(&later);
            earlier = later;
        }
        let units = FC_UNITS * FC_ROUNDS + FC_SPREE;
        assert_eq!(earlier.stats[1].thread_creates, units, "after the spree");
    }
    am::barrier(ctx);
}

// ------------------------------------------------------------------ drivers

/// The default cost model with its metrics switch set to `on`.
fn metrics(on: bool) -> CostModel {
    CostModel {
        metrics: on,
        ..CostModel::default()
    }
}

macro_rules! conformance {
    ($battery:ident, $sim_name:ident, $local_name:ident, $nodes:expr) => {
        #[test]
        fn $sim_name() {
            Sim::new($nodes).run(|ctx| $battery(&ctx));
        }

        #[test]
        fn $local_name() {
            LocalFabric::run($nodes, |ctx| $battery(&ctx));
        }
    };
}

conformance!(battery_ordering, ordering_sim, ordering_local, 2);
conformance!(battery_link_order, link_order_sim, link_order_local, 2);
conformance!(
    battery_run_until_block,
    run_until_block_sim,
    run_until_block_local,
    2
);
conformance!(
    battery_deadline_order,
    deadline_order_sim,
    deadline_order_local,
    1
);
conformance!(
    battery_flush_before_sync_read,
    flush_before_sync_read_sim,
    flush_before_sync_read_local,
    2
);
conformance!(
    battery_timeout_wake,
    timeout_wake_sim,
    timeout_wake_local,
    2
);
conformance!(
    battery_sleep_ignores_unpark,
    sleep_ignores_unpark_sim,
    sleep_ignores_unpark_local,
    1
);
conformance!(
    battery_coalesce_boundary,
    coalesce_boundary_sim,
    coalesce_boundary_local,
    2
);

conformance!(
    battery_timeout_fidelity_under_load,
    timeout_fidelity_under_load_sim,
    timeout_fidelity_under_load_local,
    2
);
conformance!(
    battery_coalesced_flush_before_sync_read,
    coalesced_flush_before_sync_read_sim,
    coalesced_flush_before_sync_read_local,
    2
);

conformance!(
    battery_silent_sender_holds_its_buffer,
    silent_sender_holds_its_buffer_sim,
    silent_sender_holds_its_buffer_local,
    2
);

conformance!(
    battery_handler_table,
    handler_table_sim,
    handler_table_local,
    2
);

#[test]
fn refused_registrations_sim() {
    check_refused("sim", refused_registrations(), |program| {
        Sim::new(1).run(move |ctx| program(&ctx));
    });
}

#[test]
fn refused_registrations_local() {
    check_refused("local", refused_registrations(), |program| {
        LocalFabric::run(1, move |ctx| program(&ctx));
    });
}

#[test]
fn self_join_sim() {
    check_refused("sim", refused_self_join(), |program| {
        Sim::new(1).run(move |ctx| program(&ctx));
    });
}

#[test]
fn self_join_local() {
    check_refused("local", refused_self_join(), |program| {
        LocalFabric::run(1, move |ctx| program(&ctx));
    });
}

#[test]
fn node_data_sim() {
    Sim::new(2).run(|ctx| battery_node_data(&ctx));
    check_refused("sim", refused_node_data(), |program| {
        Sim::new(1).run(move |ctx| program(&ctx));
    });
}

#[test]
fn node_data_local() {
    LocalFabric::run(2, |ctx| battery_node_data(&ctx));
    check_refused("local", refused_node_data(), |program| {
        LocalFabric::run(1, move |ctx| program(&ctx));
    });
}

#[test]
fn instrumentation_sim() {
    for on in [true, false] {
        let r = Sim::new(2)
            .cost_model(metrics(on))
            .run(|ctx| battery_instrumentation(&ctx));
        check_instrumentation("sim", on, &r);
    }
}

#[test]
fn instrumentation_local() {
    for on in [true, false] {
        let r = LocalFabricBuilder::new(2)
            .metrics(on)
            .run(|ctx| battery_instrumentation(&ctx));
        check_instrumentation("local", on, &r);
    }
}

#[test]
fn trace_sim() {
    let tracing = || TraceConfig::new().capacity(TRACE_RING);
    let r = Sim::new(2)
        .tracing(tracing())
        .run(|ctx| battery_trace(&ctx));
    check_trace("sim", &r, 1);
    let msg = panic_message(|| {
        Sim::new(1)
            .tracing(tracing())
            .run(|ctx| mismatched_span_end(&ctx))
    });
    assert_eq!(msg, MISMATCHED_SPAN_END, "sim");
}

#[test]
fn trace_local() {
    let tracing = || TraceConfig::new().capacity(TRACE_RING);
    let r = LocalFabricBuilder::new(2)
        .tracing(tracing())
        .run(|ctx| battery_trace(&ctx));
    check_trace("local", &r, 0);
    let msg = panic_message(|| {
        LocalFabricBuilder::new(1)
            .tracing(tracing())
            .run(|ctx| mismatched_span_end(&ctx))
    });
    assert_eq!(msg, MISMATCHED_SPAN_END, "local");
}

#[test]
fn wake_trace_sim() {
    let r = Sim::new(2)
        .tracing(TraceConfig::new())
        .run(|ctx| battery_wake_trace(&ctx));
    check_wake_trace("sim", &r);
}

#[test]
fn wake_trace_local() {
    let r = LocalFabricBuilder::new(2)
        .tracing(TraceConfig::new())
        .run(|ctx| battery_wake_trace(&ctx));
    check_wake_trace("local", &r);
}

#[test]
fn probe_totals_sim() {
    for on in [true, false] {
        let shared = ProbeSnap::default();
        let s = Arc::clone(&shared);
        let r = Sim::new(2)
            .cost_model(metrics(on))
            .run(move |ctx| battery_probe_totals(&ctx, &s));
        check_probe_totals("sim", on, &shared, &r);
    }
}

#[test]
fn probe_totals_local() {
    for on in [true, false] {
        let shared = ProbeSnap::default();
        let s = Arc::clone(&shared);
        let r = LocalFabricBuilder::new(2)
            .metrics(on)
            .run(move |ctx| battery_probe_totals(&ctx, &s));
        check_probe_totals("local", on, &shared, &r);
    }
}

#[test]
fn frame_carries_counts_sim() {
    Sim::new(2)
        .cost_model(metrics(true))
        .run(|ctx| battery_frame_carries_counts(&ctx));
}

#[test]
fn frame_carries_counts_local() {
    LocalFabricBuilder::new(2)
        .metrics(true)
        .run(|ctx| battery_frame_carries_counts(&ctx));
}

#[test]
fn barrier_sim() {
    let entered: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    Sim::new(4).run(move |ctx| battery_barrier(&ctx, &entered));
}

#[test]
fn barrier_local() {
    let entered: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    LocalFabric::run(4, move |ctx| battery_barrier(&ctx, &entered));
}

#[test]
fn across_nodes_sim() {
    check_across_nodes("sim", |ids, reach, unissued| {
        Sim::new(2).run(move |ctx| battery_across_nodes(&ctx, &ids, reach, unissued));
    });
}

#[test]
fn across_nodes_local() {
    check_across_nodes("local", |ids, reach, unissued| {
        LocalFabric::run(2, move |ctx| {
            battery_across_nodes(&ctx, &ids, reach, unissued)
        });
    });
}

conformance!(
    battery_node_local_sync,
    node_local_sync_sim,
    node_local_sync_local,
    2
);

#[test]
fn node_local_rule_sim() {
    check_node_local_rule("sim", |owned, touch| {
        Sim::new(2).run(move |ctx| battery_node_local_rule(&ctx, &owned, touch));
    });
}

#[test]
fn node_local_rule_local() {
    check_node_local_rule("local", |owned, touch| {
        LocalFabric::run(2, move |ctx| battery_node_local_rule(&ctx, &owned, touch));
    });
}

fn lent_handle_on_sim(sibling: bool) {
    check_lent_handle("sim", sibling, |lent, misuse| {
        Sim::new(2).run(move |ctx| battery_lent_handle(&ctx, &lent, misuse));
    });
}

fn lent_handle_on_local(sibling: bool) {
    check_lent_handle("local", sibling, |lent, misuse| {
        LocalFabric::run(2, move |ctx| battery_lent_handle(&ctx, &lent, misuse));
    });
}

#[test]
fn lent_handle_sim() {
    lent_handle_on_sim(false);
}

#[test]
fn lent_handle_local() {
    lent_handle_on_local(false);
}

#[test]
fn lent_handle_sibling_sim() {
    lent_handle_on_sim(true);
}

#[test]
fn lent_handle_sibling_local() {
    lent_handle_on_local(true);
}

#[test]
fn wake_order_sim() {
    let both_wait = Arc::new(AtomicBool::new(false));
    Sim::new(2).run(move |ctx| battery_wake_order(&ctx, &both_wait));
}

#[test]
fn wake_order_local() {
    let both_wait = Arc::new(AtomicBool::new(false));
    LocalFabric::run(2, move |ctx| battery_wake_order(&ctx, &both_wait));
}

#[test]
fn task_storm_sim() {
    let wound_down = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&wound_down);
    Sim::new(2).run(move |ctx| battery_task_storm(&ctx, &w));
    assert_eq!(
        wound_down.load(Ordering::Acquire),
        storm_daemons(2),
        "daemons outlived the run"
    );
}

#[test]
fn task_storm_local() {
    let wound_down = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&wound_down);
    LocalFabric::run(2, move |ctx| battery_task_storm(&ctx, &w));
    assert_eq!(
        wound_down.load(Ordering::Acquire),
        storm_daemons(2),
        "daemons outlived the run"
    );
}

#[test]
fn teardown_frees_state_sim() {
    let freed = Arc::new(AtomicBool::new(false));
    let f = Arc::clone(&freed);
    Sim::new(1).run(move |ctx| battery_teardown_frees_state(&ctx, &f));
    assert!(freed.load(Ordering::Acquire), "the run's state outlived it");
}

#[test]
fn teardown_frees_state_local() {
    let freed = Arc::new(AtomicBool::new(false));
    let f = Arc::clone(&freed);
    LocalFabric::run(1, move |ctx| battery_teardown_frees_state(&ctx, &f));
    assert!(freed.load(Ordering::Acquire), "the run's state outlived it");
}
