//! Allocation accounting for the message fast path, measured end to end
//! through the AM layer (the sim-level proof lives in
//! `crates/sim/tests/alloc_count.rs` with a hard zero assertion).
//!
//! A counting `#[global_allocator]` brackets steady-state loops and prints
//! one parseable line per scenario:
//!
//! ```text
//! alloc_count/<scenario>: <allocs> allocs / <ops> ops
//! ```
//!
//! Counts are per thread ([`CountingAlloc`]'s docs say why); under the fiber
//! backend the whole simulation runs on the measuring thread, so coverage of
//! the simulator is total.
//!
//! Asserted bounds (the process aborts on regression, failing `cargo bench`):
//! * raw short-message round trip — **0** allocations;
//! * AM bulk send — bounded (the payload buffer and its transfer frames),
//!   currently ≤ 16 allocations per send;
//! * warm `Simple` null RMI — **0** allocations (the call record is recycled,
//!   and the request and reply carry the call in their frames; every mode
//!   and the GP accesses on both fabrics are in
//!   `crates/ccxx/tests/alloc_count.rs`);
//! * Split-C blocking `read` — **0** allocations, caller and owner together:
//!   its call record (`mpmd_am::CallRecord`, `crates/am/src/reply.rs`) comes
//!   from the node's free list and goes back to it;
//! * Split-C 8 KiB `bulk_store` — **2** per op: the encoded payload and its
//!   shared handle; the receiver decodes straight into the region;
//! * CC++ 8 KiB `bulk_put_flat` (a threaded RMI) — **6** per op: the
//!   marshalling buffer is reserved once, and the array is not staged
//!   through a copy of its own.

use mpmd_am as am;
use mpmd_ccxx as cx;
use mpmd_sim::{thread_allocs, CountingAlloc, Fabric, Payload, Sim};
use mpmd_splitc as sc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP: usize = 50;
const OPS: usize = 1_000;

fn short() -> Payload {
    Payload::Short {
        handler: 7,
        args: [1, 2, 3, 4],
        token: None,
    }
}

/// Raw substrate short round trips, identical to the sim-level proof.
fn count_short_round_trips() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    Sim::new(2).run(|ctx| {
        let trips = |n: usize| {
            if ctx.node() == 0 {
                for _ in 0..n {
                    ctx.send_msg(1, 8, 1_000, short());
                    ctx.park_for_inbox();
                    ctx.try_recv().unwrap();
                }
            } else {
                for _ in 0..n {
                    ctx.park_for_inbox();
                    ctx.try_recv().unwrap();
                    ctx.send_msg(0, 8, 1_000, short());
                }
            }
        };
        trips(WARMUP);
        if ctx.node() == 0 {
            let before = thread_allocs();
            trips(OPS);
            DELTA.store(thread_allocs() - before, Relaxed);
        } else {
            trips(OPS);
        }
    });
    DELTA.load(Relaxed)
}

/// AM-layer bulk writes: each send builds a 1 KiB payload (caller buffer),
/// ships it through the endpoint, and the receiver's handler drops it.
fn count_bulk_sends() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    const H_SINK: am::HandlerId = 40;
    Sim::new(2).run(|ctx| {
        am::init(&ctx, am::NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        am::register(&ctx, H_SINK, |_ctx, _m| {});
        am::barrier(&ctx);
        let send_one = || {
            am::endpoint(&ctx)
                .to(1)
                .handler(H_SINK)
                .bulk(bytes::Bytes::from(vec![0u8; 1024]))
                .send();
            am::flush(&ctx);
        };
        if ctx.node() == 0 {
            for _ in 0..WARMUP {
                send_one();
            }
            let before = thread_allocs();
            for _ in 0..OPS {
                send_one();
            }
            DELTA.store(thread_allocs() - before, Relaxed);
        }
        am::barrier(&ctx);
    });
    DELTA.load(Relaxed)
}

/// Doubles in an 8 KiB bulk transfer.
const BULK_DOUBLES: usize = 1024;

/// Split-C 8 KiB `bulk_store`s from node 0 to node 1, the receiver's
/// handler included (both nodes run on the measuring thread).
fn count_sc_bulk_stores() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    Sim::new(2).run(|ctx| {
        sc::init(&ctx);
        let a = sc::all_spread_alloc(&ctx, BULK_DOUBLES, 0.0);
        if ctx.node() == 0 {
            let block = vec![1.5; BULK_DOUBLES];
            let stores = |n: usize| {
                for _ in 0..n {
                    sc::bulk_store(&ctx, a.node_chunk(1), &block);
                }
            };
            stores(WARMUP);
            let before = thread_allocs();
            stores(OPS);
            DELTA.store(thread_allocs() - before, Relaxed);
        }
        sc::all_store_sync(&ctx);
    });
    DELTA.load(Relaxed)
}

/// Split-C blocking `read`s by node 0 of a double on node 1, the owner's
/// handler included.
fn count_sc_reads() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    Sim::new(2).run(|ctx| {
        sc::init(&ctx);
        let a = sc::all_spread_alloc(&ctx, 1, 0.5);
        if ctx.node() == 0 {
            let reads = |n: usize| {
                for _ in 0..n {
                    sc::read(&ctx, a.node_chunk(1));
                }
            };
            reads(WARMUP);
            let before = thread_allocs();
            reads(OPS);
            DELTA.store(thread_allocs() - before, Relaxed);
        }
        sc::barrier(&ctx);
    });
    DELTA.load(Relaxed)
}

/// CC++ 8 KiB `bulk_put_flat`s (threaded RMIs) from node 0 to node 1.
fn count_cx_bulk_puts() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    Sim::new(2).run(|ctx| {
        cx::init(&ctx, cx::CcxxConfig::tham());
        let region = cx::alloc_region(&ctx, BULK_DOUBLES, 0.0);
        if ctx.node() == 0 {
            let block = vec![1.5; BULK_DOUBLES];
            let to = cx::CxPtr {
                node: 1,
                region,
                offset: 0,
            };
            let puts = |n: usize| {
                for _ in 0..n {
                    cx::bulk_put_flat(&ctx, to, &block);
                }
            };
            puts(WARMUP);
            let before = thread_allocs();
            puts(OPS);
            DELTA.store(thread_allocs() - before, Relaxed);
        }
        cx::finalize(&ctx);
    });
    DELTA.load(Relaxed)
}

/// Warm `Simple` null RMIs from node 0 to node 1.
fn count_null_rmis() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    Sim::new(2).run(|ctx| {
        cx::init(&ctx, cx::CcxxConfig::tham());
        if ctx.node() == 0 {
            let calls = |n: usize| {
                for _ in 0..n {
                    cx::rmi(&ctx, 1, cx::M_NULL, &[], None, cx::CallMode::Simple);
                }
            };
            calls(WARMUP);
            let before = thread_allocs();
            calls(OPS);
            DELTA.store(thread_allocs() - before, Relaxed);
        }
        cx::finalize(&ctx);
    });
    DELTA.load(Relaxed)
}

fn main() {
    // One-shot counts, printed so CI and humans see the same numbers the
    // assertions gate on.
    let short_allocs = count_short_round_trips();
    println!("alloc_count/short_round_trip: {short_allocs} allocs / {OPS} ops");
    assert_eq!(
        short_allocs, 0,
        "short-message round trips must stay allocation-free"
    );
    let bulk_allocs = count_bulk_sends();
    let per_send = bulk_allocs.div_ceil(OPS as u64);
    println!("alloc_count/bulk_send_1k: {bulk_allocs} allocs / {OPS} ops ({per_send}/op)");
    assert!(
        per_send <= 16,
        "bulk sends must stay bounded: {per_send} allocs per send"
    );
    let rmi_allocs = count_null_rmis();
    println!("alloc_count/null_rmi: {rmi_allocs} allocs / {OPS} ops");
    assert_eq!(rmi_allocs, 0, "warm null RMIs must stay allocation-free");
    // Whole allocations per op; what is left over is amortized growth of the
    // simulator's and runtimes' containers, well under one per op.
    let read_allocs = count_sc_reads();
    println!("alloc_count/sc_read: {read_allocs} allocs / {OPS} ops");
    assert_eq!(
        read_allocs, 0,
        "a blocking Split-C read reuses its call record"
    );
    let sc_allocs = count_sc_bulk_stores();
    let sc_per_op = sc_allocs / OPS as u64;
    println!("alloc_count/sc_bulk_store_8k: {sc_allocs} allocs / {OPS} ops ({sc_per_op}/op)");
    assert_eq!(
        sc_per_op, 2,
        "an 8 KiB bulk_store allocates its payload and the payload's share count"
    );
    let cx_allocs = count_cx_bulk_puts();
    let cx_per_op = cx_allocs / OPS as u64;
    println!("alloc_count/cx_bulk_put_flat: {cx_allocs} allocs / {OPS} ops ({cx_per_op}/op)");
    assert_eq!(
        cx_per_op, 6,
        "an 8 KiB bulk_put_flat allocates its payload once, with no staging copy"
    );
}
