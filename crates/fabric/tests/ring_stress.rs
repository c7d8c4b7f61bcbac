//! Stress tests for the link rings and the node parker under real concurrency.
//!
//! A per-(src, dst) `Ring` is a bounded ring with one producer and one
//! consumer, each keeping its cursor in a block of its own; a send that finds
//! it full waits in place for room. The promises these tests hammer through
//! the public API:
//!
//! * **per-link FIFO through full rings** — a 1-slot ring is full after
//!   nearly every send, a 1024-slot ring in bursts;
//! * **nothing lost, nothing twice**: every count is exact;
//! * **a link holds at most its capacity**, whatever a sampler reads;
//! * **no lost wake-up**: with a policy that parks at once for 200 ms, a
//!   waker that missed a parked (or parking) node would cost a whole slice,
//!   and thousands of hand-offs would not finish in seconds.
//!
//! What a full link does to its sender — and to nodes that fill links to
//! each other — is `mpmd-am`'s `tests/bounded_links.rs`.

use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder, WaitPolicy};
use mpmd_sim::{Msg, Payload};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Blast `n` sequence-stamped messages from node 0 to node 1; the receiver
/// drains interleaved with the sends (it starts immediately, so pops race
/// pushes through every fill level) and asserts strict send order.
fn fifo_blast(capacity: usize, n: u64) {
    let r = LocalFabricBuilder::new(2)
        .ring_capacity(capacity)
        .run(move |fab| {
            if fab.node() == 0 {
                for i in 0..n {
                    fab.send_msg(1, 8, 0, Payload::any(i));
                    if i % 97 == 0 {
                        // Give the receiver a chance to drain the ring, so
                        // sends find it empty, part full and full.
                        fab.yield_now();
                    }
                }
            } else {
                let mut expect = 0u64;
                while expect < n {
                    match fab.try_recv() {
                        Some(m) => {
                            let got = *m.payload.downcast::<u64>().unwrap();
                            assert_eq!(
                                got, expect,
                                "per-link FIFO violated at message {expect} \
                                 (ring capacity {capacity})"
                            );
                            expect += 1;
                        }
                        None => fab.park_for_inbox(),
                    }
                }
            }
        });
    assert_eq!(r.stats[0].msgs_sent, n);
    assert_eq!(r.stats[1].msgs_received, n);
}

#[test]
fn fifo_through_a_full_one_slot_ring() {
    // Minimum capacity: almost every push finds the ring full and waits.
    fifo_blast(1, 20_000);
}

#[test]
fn fifo_through_a_full_default_ring() {
    // 1024 slots: long runs with room, punctuated by waits on a full ring.
    fifo_blast(1024, 50_000);
}

#[test]
fn fifo_per_source_with_concurrent_senders() {
    // Two producer nodes flood one receiver. Cross-link order is not
    // promised, but each (src, dst) link must stay FIFO while the two
    // senders' bumps and the receiver's rotating drain interleave freely.
    const N: u64 = 10_000;
    LocalFabricBuilder::new(3)
        .ring_capacity(4)
        .run(|fab| match fab.node() {
            0 => {
                let mut expect = [0u64; 2];
                let mut total = 0;
                while total < 2 * N {
                    match fab.try_recv() {
                        Some(m) => {
                            let got = *m.payload.downcast::<u64>().unwrap();
                            let e = &mut expect[m.src - 1];
                            assert_eq!(got, *e, "link {} reordered", m.src);
                            *e += 1;
                            total += 1;
                        }
                        None => fab.park_for_inbox(),
                    }
                }
            }
            src => {
                for i in 0..N {
                    fab.send_msg(0, 8, 0, Payload::any(i));
                }
                let _ = src;
            }
        });
}

#[test]
fn inbox_depth_sampling_never_blocks_a_sender() {
    // `Ring::depth` takes no lock and reads nothing a producer owns: it
    // counts the published stamps from the consumer's cursor. A sampler task
    // hammering `inbox_len` while a sender floods the same links must
    // observe plausible depths and the run must complete with both sides
    // making progress. What this test pins is correctness of the lock-free
    // count: bounded by the ring's capacity, zero at quiescence.
    const N: u64 = 30_000;
    const CAPACITY: usize = 8;
    let max_seen = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let (max_c, done_c) = (Arc::clone(&max_seen), Arc::clone(&done));
    let r = LocalFabricBuilder::new(2)
        .ring_capacity(CAPACITY)
        .run(move |fab| {
            if fab.node() == 0 {
                for i in 0..N {
                    fab.send_msg(1, 8, 0, Payload::any(i));
                }
            } else {
                // Sampler daemon on the receiving node: tight depth loop
                // with no locks between it and the flooding producer. It shares
                // the node's thread with the receiver, so it yields per sample.
                let max_s = Arc::clone(&max_c);
                let done_s = Arc::clone(&done_c);
                fab.spawn_daemon("sampler", move |f| {
                    while !done_s.load(Ordering::Relaxed) && !f.shutting_down() {
                        let d = f.inbox_len();
                        max_s.fetch_max(d, Ordering::Relaxed);
                        f.yield_now();
                    }
                });
                let mut expect = 0u64;
                while expect < N {
                    match fab.try_recv() {
                        Some(m) => {
                            assert_eq!(*m.payload.downcast::<u64>().unwrap(), expect);
                            expect += 1;
                        }
                        None => fab.park_for_inbox(),
                    }
                }
                done_c.store(true, Ordering::Relaxed);
                assert_eq!(fab.inbox_len(), 0, "drained link must read depth 0");
            }
        });
    assert_eq!(r.stats[1].msgs_received, N);
    // The sampler ran concurrently with real traffic: a one-way link never
    // holds more than its ring, and its receiver never stashes.
    assert!(max_seen.load(Ordering::Relaxed) <= CAPACITY);
}

/// The next frame, waiting for it on the inbox.
fn recv(fab: &LocalFabric) -> Msg {
    loop {
        match fab.try_recv() {
            Some(m) => return m,
            None => fab.park_for_inbox(),
        }
    }
}

/// Every wait parks at once, for up to 200 ms: a single lost wake-up costs
/// the whole slice, so 2 000 hand-offs that each need one finish in well
/// under the limit only if none is lost.
fn parks_at_once() -> LocalFabricBuilder {
    LocalFabricBuilder::new(2).wait_policy(WaitPolicy::park_only(200_000_000))
}

const HANDOFFS: u64 = 2_000;
const LIMIT: Duration = Duration::from_secs(10);

#[test]
fn no_wakeup_is_lost_between_frames_and_a_parking_node() {
    let t0 = Instant::now();
    let r = parks_at_once().run(|fab| {
        let peer = 1 - fab.node();
        for i in 0..HANDOFFS {
            if fab.node() == 0 {
                fab.send_msg(peer, 8, 0, Payload::any(i));
            }
            let m = recv(&fab);
            assert_eq!(*m.payload.downcast::<u64>().unwrap(), i);
            if fab.node() == 1 {
                fab.send_msg(peer, 8, 0, Payload::any(i));
            }
        }
    });
    assert_eq!(r.stats[0].msgs_received, HANDOFFS);
    assert_eq!(r.stats[1].msgs_received, HANDOFFS);
    assert!(
        t0.elapsed() < LIMIT,
        "wake-ups were lost: {:?}",
        t0.elapsed()
    );
}
