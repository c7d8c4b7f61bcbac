//! Proof of the zero-allocation short-message fast path.
//!
//! After a warm-up phase (event-pool slabs, inbox/ready/waiter capacities,
//! fiber stacks), a steady-state run of short AM round trips must perform
//! **zero** heap allocations: argument words travel inline in
//! [`Payload::Short`], event bodies come from the kernel's slab pool, and
//! baton handoffs reuse pooled stacks (fiber backend) or parked OS threads
//! (threads backend). Counted per thread by [`CountingAlloc`], whose docs
//! say why.

use mpmd_sim::{thread_allocs, CountingAlloc, Fabric, Payload, Sim};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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
fn round_trips(ctx: &mpmd_sim::Ctx, n: usize) {
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

#[test]
fn short_message_round_trip_allocates_nothing() {
    // The ping-pong is self-synchronizing and the whole simulation runs one
    // task at a time (on ONE OS thread under the fiber backend), so every
    // simulator allocation between node 0's bracketing reads lands in the
    // measured delta.
    static MEASURED_DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    let r = Sim::new(2).run(|ctx| {
        // Warm-up: grows the event-pool slab, inbox and waiter-list
        // capacities, and (on the fiber backend) the recycled stack pool.
        round_trips(&ctx, WARMUP);
        if ctx.node() == 0 {
            let before = thread_allocs();
            round_trips(&ctx, MEASURED);
            let after = thread_allocs();
            MEASURED_DELTA.store(after - before, Relaxed);
        } else {
            round_trips(&ctx, MEASURED);
        }
    });
    assert_eq!(r.stats[0].msgs_sent as usize, WARMUP + MEASURED);
    assert_eq!(
        MEASURED_DELTA.load(Relaxed),
        0,
        "short-message round trips must not allocate ({} allocations \
         across {MEASURED} round trips)",
        MEASURED_DELTA.load(Relaxed)
    );
}
