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
//! * warm `Simple` null RMI — **0** allocations (the call record is recycled;
//!   every mode on both fabrics is in `crates/ccxx/tests/alloc_count.rs`).

use mpmd_am as am;
use mpmd_ccxx as cx;
use mpmd_sim::{thread_allocs, CountingAlloc, Fabric, Payload, Sim};
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
}
