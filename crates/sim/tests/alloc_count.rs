//! Proof of the zero-allocation short-message and timer fast paths.
//!
//! After a warm-up phase (event-heap, inbox/ready/waiter capacities, fiber
//! stacks), a steady-state run of short AM round trips, with or without an
//! expiring timed inbox wait before each, must perform **zero** heap
//! allocations: argument words travel inline in [`Payload::Short`], the
//! event heap holds each event whole and reuses its capacity, and baton
//! handoffs reuse pooled stacks (fiber backend) or parked OS threads
//! (threads backend). Counted by [`CountingAlloc`] per node, over every node
//! and the engine. On the fiber backend, a steady-state wave of spawn/join
//! pairs allocates the same per task however wide it is: the runtime keeps
//! every stack a wave retired, so a wave no wider than the last draws none.

use mpmd_sim::{CountingAlloc, Ctx, Fabric, Payload, Report, Sim};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP: usize = 50;
const MEASURED: usize = 1_000;

fn short() -> Payload {
    Payload::Short {
        handler: 7,
        args: [1, 2, 3, 4],
        token: None,
    }
}

/// One short-message round trip: node 0 sends, node 1 receives and replies.
fn round_trips(ctx: &Ctx, n: usize) {
    if ctx.node() == 0 {
        for _ in 0..n {
            ctx.send_msg(1, 8, 1_000, short());
            ctx.park_for_inbox();
            let m = ctx.try_recv().unwrap();
            assert!(matches!(m.payload, Payload::Short { handler: 7, .. }));
        }
    } else {
        for _ in 0..n {
            ctx.park_for_inbox();
            ctx.try_recv().unwrap();
            ctx.send_msg(0, 8, 1_000, short());
        }
    }
}

/// One expiring timed inbox wait on node 0 (a `TimeoutWake` event on the
/// heap), then one round trip.
fn timed_rounds(ctx: &Ctx, n: usize) {
    for _ in 0..n {
        if ctx.node() == 0 {
            let deadline = ctx.now() + 500;
            ctx.park_for_inbox_until(deadline);
            assert!(
                ctx.now() >= deadline && ctx.inbox_len() == 0,
                "the wait must expire"
            );
        }
        round_trips(ctx, 1);
    }
}

/// Every node's allocations and the engine's over an interval.
fn all_allocs(d: &Report) -> u64 {
    d.allocs.iter().sum::<u64>() + d.engine_allocs
}

/// Run `rounds` on both nodes, `WARMUP` then `MEASURED` of them, and return
/// the allocations every node and the engine made during the measured ones.
/// The ping-pong is self-synchronizing and the simulation runs one context
/// at a time, so node 0's two snapshots bracket every allocation between
/// them.
fn measured_allocs(rounds: fn(&Ctx, usize)) -> u64 {
    let delta = Arc::new(AtomicU64::new(u64::MAX));
    let out = Arc::clone(&delta);
    let r = Sim::new(2).run(move |ctx| {
        // Warm-up: grows the event heap, inbox and waiter-list capacities,
        // and (on the fiber backend) the runtime's free list of stacks.
        rounds(&ctx, WARMUP);
        if ctx.node() == 0 {
            let before = ctx.snapshot();
            rounds(&ctx, MEASURED);
            out.store(all_allocs(&before.until(&ctx.snapshot())), Relaxed);
        } else {
            rounds(&ctx, MEASURED);
        }
    });
    assert_eq!(r.stats[0].msgs_sent as usize, WARMUP + MEASURED);
    delta.load(Relaxed)
}

#[test]
fn short_message_round_trip_allocates_nothing() {
    let n = measured_allocs(round_trips);
    assert_eq!(
        n, 0,
        "short-message round trips must not allocate ({n} allocations \
         across {MEASURED} round trips)"
    );
}

#[test]
fn expiring_timer_then_round_trip_allocates_nothing() {
    let n = measured_allocs(timed_rounds);
    assert_eq!(
        n, 0,
        "expiring timed waits must not allocate ({n} allocations \
         across {MEASURED} rounds)"
    );
}

/// Allocations per task of spawn/join waves `width` tasks wide on one node,
/// measured after warm-up waves of the same width. Asserts the count
/// divides evenly: every task must cost the same.
fn wave_allocs_per_task(width: usize) -> u64 {
    const WAVES: usize = 20;
    let delta = Arc::new(AtomicU64::new(u64::MAX));
    let out = Arc::clone(&delta);
    Sim::new(1).run(move |ctx| {
        let mut tasks = Vec::with_capacity(width);
        let mut waves =
            |n: usize| {
                for _ in 0..n {
                    tasks.extend((0..width as u64).map(|i| {
                        ctx.spawn("wave", move |c| c.charge(mpmd_sim::Bucket::Cpu, i + 1))
                    }));
                    // Every task of the wave holds its stack from its spawn on.
                    // Yielding lets them all finish, so no join parks (the first
                    // parked join of a task allocates its joiner list).
                    ctx.yield_now();
                    for t in tasks.drain(..) {
                        ctx.join(t);
                    }
                }
            };
        waves(3);
        let before = ctx.snapshot();
        waves(WAVES);
        out.store(all_allocs(&before.until(&ctx.snapshot())), Relaxed);
    });
    let total = delta.load(Relaxed);
    let tasks = (WAVES * width) as u64;
    assert_eq!(
        total % tasks,
        0,
        "{width}-wide waves: {total} allocations over {tasks} tasks"
    );
    total / tasks
}

/// A fiber runtime keeps every stack a wave retired, so a wave no wider than
/// the last draws none. The stacks are the fiber host's: a build that hosts
/// tasks on pooled threads has none to count.
#[test]
fn wide_task_waves_allocate_no_stacks() {
    if mpmd_sim::baton::BACKEND != mpmd_sim::BackendKind::Fibers {
        return;
    }
    let narrow = wave_allocs_per_task(1);
    let wide = wave_allocs_per_task(300);
    assert_eq!(
        wide, narrow,
        "a 300-wide wave must allocate per task what a 1-wide one does"
    );
}
