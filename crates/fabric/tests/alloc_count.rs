//! Zero-allocation proof for the **wall-clock** short-send path.
//!
//! PR 7 proved the simulated kernel's short-message round trip allocates
//! nothing in steady state; this test extends the guarantee to
//! `LocalFabric`, with the same per-thread [`CountingAlloc`] as
//! `crates/sim/tests/alloc_count.rs`. Here per-thread counting is not just
//! convenient but required — a `LocalFabric` node is one OS thread, so node
//! 0's count is exactly the path being proven: ring push (under the link's
//! producer lock, message moved by value into the slot), parker bump (a fence
//! and a load), the node's idle loop (inbox-waiter list, run queue, futex
//! park), ring pop (message moved by value out of the slot).
//!
//! After warm-up (queue capacities, stats maps, thread start-up debris), a
//! steady-state run of `Payload::Short` ping-pongs on node 0's thread must
//! perform **zero** heap allocations — bare, and with the probes a runtime
//! layer fires per message (`charge`, `with_stats`, two histograms):
//! those write the node's probe block, and merging it into the node totals
//! at every send allocates only while a name is new.

use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::{thread_allocs, Bucket, CountingAlloc, Payload};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP: usize = 200;
const MEASURED: usize = 1_000;

fn short() -> Payload {
    Payload::Short {
        handler: 7,
        args: [1, 2, 3, 4],
        token: None,
    }
}

/// What a runtime layer records around one message.
fn probes(fab: &LocalFabric) {
    let t0 = fab.metric_now();
    fab.charge(Bucket::Net, 2_000);
    fab.with_stats(|s| s.short_msgs.add(1));
    fab.metric_observe("alloc.trips", 1);
    fab.metric_observe_since("alloc.trip_ns", t0.expect("metrics are on by default"));
}

/// `n` short-message round trips: node 0 sends, node 1 receives and
/// replies; `per_trip` runs on both sides of each.
fn round_trips(fab: &LocalFabric, n: usize, per_trip: fn(&LocalFabric)) {
    if fab.node() == 0 {
        for _ in 0..n {
            per_trip(fab);
            fab.send_msg(1, 8, 0, short());
            loop {
                if let Some(m) = fab.try_recv() {
                    assert!(matches!(m.payload, Payload::Short { handler: 7, .. }));
                    break;
                }
                fab.park_for_inbox();
            }
        }
    } else {
        for _ in 0..n {
            loop {
                if fab.try_recv().is_some() {
                    break;
                }
                fab.park_for_inbox();
            }
            per_trip(fab);
            fab.send_msg(0, 8, 0, short());
        }
    }
}

/// Node 0's allocations across `MEASURED` steady-state round trips.
fn measured_allocs(per_trip: fn(&LocalFabric)) -> u64 {
    let delta = Arc::new(AtomicU64::new(u64::MAX));
    let d = Arc::clone(&delta);
    let r = LocalFabric::run(2, move |fab| {
        // Warm-up: the scheduler's queues and probe block, stats/metrics map
        // nodes, and whatever the OS thread's first futex waits touch.
        round_trips(&fab, WARMUP, per_trip);
        if fab.node() == 0 {
            let before = thread_allocs();
            round_trips(&fab, MEASURED, per_trip);
            let after = thread_allocs();
            d.store(after - before, Relaxed);
        } else {
            round_trips(&fab, MEASURED, per_trip);
        }
    });
    assert_eq!(r.stats[0].msgs_sent as usize, WARMUP + MEASURED);
    delta.load(Relaxed)
}

#[test]
fn wall_clock_short_round_trip_allocates_nothing() {
    let allocs = measured_allocs(|_| {});
    assert_eq!(
        allocs, 0,
        "wall-clock short round trips must not allocate ({allocs} allocations \
         across {MEASURED} round trips)"
    );
}

#[test]
fn wall_clock_probed_round_trip_allocates_nothing() {
    let allocs = measured_allocs(probes);
    assert_eq!(
        allocs, 0,
        "probed round trips must not allocate ({allocs} allocations across \
         {MEASURED} round trips)"
    );
}
