//! A one-way Split-C stream of 8 KiB `bulk_store`s on the wall-clock fabric
//! holds at most one ring of frames in flight: a sender that outruns its
//! receiver waits for room instead of queueing without bound.
//!
//! The receiver lets the sender run ahead before its first poll, then checks
//! its inbox depth at every poll. A link that did not hold its sender back
//! would queue every store issued meanwhile.
//!
//! The two nodes hand off through flags around the stream: the sender starts
//! only once the receiver is out of the barrier, whose last poll would
//! otherwise handle stores the receiver's count never sees (and wait for the
//! rest forever), and the receiver sends its store-sync frame only once the
//! sender has checked its own inbox.

use mpmd_am as am;
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_splitc as sc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const STORES: usize = 20_000;
/// 8 KiB of doubles per store.
const DOUBLES: usize = 1024;
/// Blocks on the receiver the stores rotate through.
const SLOTS: usize = 4;
/// `LocalFabricBuilder`'s default per-link ring capacity.
const RING_CAPACITY: usize = 1024;

#[test]
fn a_bulk_store_stream_holds_at_most_one_ring_in_flight() {
    let issued = Arc::new(AtomicUsize::new(0));
    let (ready, checked) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let deepest = Arc::new(AtomicUsize::new(0));
    let deepest_seen = Arc::clone(&deepest);
    LocalFabric::run(2, move |ctx| {
        sc::init(&ctx);
        let a = sc::all_spread_alloc(&ctx, SLOTS * DOUBLES, -1.0);
        sc::barrier(&ctx);
        if ctx.node() == 0 {
            let base = a.node_chunk(1);
            let mut block = vec![0.0; DOUBLES];
            while !ready.load(Ordering::Acquire) {
                ctx.sleep(10_000);
            }
            let received = ctx.snapshot().stats[0].msgs_received;
            for i in 0..STORES {
                block.fill(i as f64);
                sc::bulk_store(&ctx, base.add((i % SLOTS) * DOUBLES), &block);
                issued.store(i + 1, Ordering::Release);
            }
            // Nothing came back, so a wait for room found no full link to
            // stash: no frame was received, and none waits in the stash
            // (which a node's own `inbox_len` counts).
            assert_eq!(ctx.snapshot().stats[0].msgs_received, received);
            assert_eq!(ctx.inbox_len(), 0);
            checked.store(true, Ordering::Release);
        } else {
            ready.store(true, Ordering::Release);
            while issued.load(Ordering::Acquire) < RING_CAPACITY {
                ctx.sleep(50_000);
            }
            ctx.sleep(20_000_000);
            let mut handled = 0;
            while handled < STORES {
                let depth = ctx.inbox_len();
                assert!(
                    depth <= RING_CAPACITY,
                    "{depth} frames queued on a {RING_CAPACITY}-slot link after {handled} stores"
                );
                deepest.fetch_max(depth, Ordering::Relaxed);
                handled += am::poll(&ctx);
                if handled < STORES {
                    ctx.park_for_inbox();
                }
            }
            while !checked.load(Ordering::Acquire) {
                ctx.sleep(50_000);
            }
        }
        sc::all_store_sync(&ctx);
        if ctx.node() == 1 {
            // Each block holds the last store that went to it.
            sc::with_local(&ctx, a.region, |v| {
                for (k, block) in v.chunks_exact(DOUBLES).enumerate() {
                    let last = (STORES - SLOTS..STORES).find(|i| i % SLOTS == k);
                    let want = last.expect("every block is stored to") as f64;
                    assert!(
                        block.iter().all(|x| *x == want),
                        "block {k} is not store {want}"
                    );
                }
            });
        }
        sc::barrier(&ctx);
    });
    // The link did fill: the receiver's first look found a full ring.
    assert_eq!(deepest_seen.load(Ordering::Relaxed), RING_CAPACITY);
}
