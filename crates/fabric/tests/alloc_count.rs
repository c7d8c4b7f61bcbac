//! Heap allocations count to the node that makes them, and the wall-clock
//! short-send path makes none.
//!
//! [`CountingAlloc`] counts each allocation to the node whose task holds the
//! baton on the allocating thread, on both fabrics and both task hosts; a
//! snapshot reads the counts like any other per-node count. The first test
//! holds that attribution to known allocations. The others extend the
//! simulator's zero-allocation proof (`crates/sim/tests/alloc_count.rs`) to
//! `LocalFabric`: ring push (the message moved by value into the slot),
//! parker bump (a fence and a load), the node's idle loop (inbox-waiter list,
//! run queue, futex park) and ring pop (the message moved out of the slot).
//!
//! After warm-up (queue capacities, histogram names, thread start-up), a
//! steady-state run of `Payload::Short` ping-pongs performs **zero** heap
//! allocations on every node and engine: bare, and with the probes a runtime
//! layer fires per message (`charge`, `with_stats`, two histograms), which
//! write the node's ledger in place.

use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::{Bucket, CountingAlloc, Payload, Report, Sim};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

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
fn probes<F: Fabric>(fab: &F) {
    let t0 = fab.metric_now();
    fab.charge(Bucket::Net, 2_000);
    fab.with_stats(|s| s.short_msgs.add(1));
    fab.metric_observe("alloc.trips", 1);
    fab.metric_observe_since("alloc.trip_ns", t0.expect("metrics are on"));
}

/// Wait for the next frame.
fn receive<F: Fabric>(fab: &F) -> Payload {
    loop {
        if let Some(m) = fab.try_recv() {
            return m.payload;
        }
        fab.park_for_inbox();
    }
}

/// `n` short-message round trips: node 0 sends, node 1 receives and
/// replies; `per_trip` runs on both sides of each.
fn round_trips<F: Fabric>(fab: &F, n: usize, per_trip: fn(&F)) {
    for _ in 0..n {
        if fab.node() == 0 {
            per_trip(fab);
            fab.send_msg(1, 8, 1_000, short());
            assert!(matches!(receive(fab), Payload::Short { handler: 7, .. }));
        } else {
            receive(fab);
            per_trip(fab);
            fab.send_msg(0, 8, 1_000, short());
        }
    }
}

/// Allocations per node, and the engines', over `MEASURED` steady-state
/// round trips on `LocalFabric`, as node 0 reads them after the last reply.
fn measured_allocs(per_trip: fn(&LocalFabric)) -> Report {
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let r = LocalFabric::run(2, move |fab| {
        round_trips(&fab, WARMUP, per_trip);
        let before = fab.snapshot();
        round_trips(&fab, MEASURED, per_trip);
        if fab.node() == 0 {
            *o2.lock().unwrap() = Some(before.until(&fab.snapshot()));
        }
    });
    assert_eq!(r.stats[0].msgs_sent as usize, WARMUP + MEASURED);
    let d = out.lock().unwrap().take();
    d.expect("node 0 measured")
}

#[test]
fn wall_clock_short_round_trip_allocates_nothing() {
    let d = measured_allocs(|_| {});
    assert_eq!(
        (d.allocs, d.engine_allocs),
        (vec![0, 0], 0),
        "(per node, engines) allocations across {MEASURED} round trips"
    );
}

#[test]
fn wall_clock_probed_round_trip_allocates_nothing() {
    let d = measured_allocs(probes);
    assert_eq!(
        (d.allocs, d.engine_allocs),
        (vec![0, 0], 0),
        "(per node, engines) allocations across {MEASURED} probed round trips"
    );
}

/// Allocations each made by node 1's task and by a sibling it spawns.
const K: u64 = 100;

/// `K` allocations, each freed at once.
fn allocate() {
    for i in 0..K {
        black_box(Box::new(i));
    }
}

/// What node 1 measures: an interval over a bare spawn + join of a sibling,
/// then one over `K` allocations of its own and a sibling that makes `K`.
/// Node 0 waits for a reply meanwhile, on its steady-state receive path.
fn attribution<F: Fabric>(fab: &F, out: &Mutex<Vec<Report>>) {
    if fab.node() == 1 {
        // Nothing the task did yet: a run's slots start at zero.
        assert_eq!(fab.snapshot().allocs[1], 0, "node 1 at its first line");
    }
    round_trips(fab, WARMUP, |_| {});
    if fab.node() == 0 {
        round_trips(fab, 1, |_| {});
        return;
    }
    receive(fab);
    let interval = |work: fn(&F)| {
        let before = fab.snapshot();
        work(fab);
        before.until(&fab.snapshot())
    };
    let bare = |f: &F| f.join(f.spawn("sibling", |_| {}));
    (0..3).for_each(|_| bare(fab));
    let bare = interval(bare);
    let made = interval(|f| {
        allocate();
        f.join(f.spawn("sibling", |_| allocate()));
    });
    *out.lock().unwrap() = vec![bare, made];
    fab.send_msg(0, 8, 1_000, short());
}

/// Checks the intervals `attribution` measured and the run's report.
fn check_attribution(fabric: &str, intervals: &Mutex<Vec<Report>>, run: Report) {
    let [bare, made] = <[Report; 2]>::try_from(std::mem::take(&mut *intervals.lock().unwrap()))
        .unwrap_or_else(|_| panic!("{fabric}: node 1 measured"));
    assert_eq!(
        bare.allocs[0], 0,
        "{fabric}: node 0 over a bare spawn + join"
    );
    let want = vec![0, bare.allocs[1] + 2 * K];
    assert_eq!(made.allocs, want, "{fabric}: per-node allocations");
    let engines = (bare.engine_allocs, made.engine_allocs);
    assert_eq!(engines, (0, 0), "{fabric}: the engines over both");
    // Starting the roots is the engines' work, counted to no node.
    assert!(run.engine_allocs > 0, "{fabric}: the engines count apart");
}

#[test]
fn allocations_count_to_the_node_that_made_them() {
    for _ in 0..2 {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&out);
        let run = Sim::new(2).run(move |ctx| attribution(&ctx, &o2));
        check_attribution("sim", &out, run);
        let o2 = Arc::clone(&out);
        let run = LocalFabric::run(2, move |fab| attribution(&fab, &o2));
        check_attribution("local", &out, run);
    }
}
