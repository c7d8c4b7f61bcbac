//! Stress tests for the lock-free link rings under real concurrency.
//!
//! The per-(src, dst) `Ring` is a bounded lock-free MPMC fast path with an
//! unbounded mutex-guarded overflow behind it. The delicate promise is
//! **per-link FIFO across the ring→overflow→ring transition**: a producer
//! moves to the overflow when the ring fills (or while the overflow is
//! still draining), and the consumer must keep draining older ring slots
//! before touching the overflow — including the re-check-under-lock subtlety
//! documented on `Ring::pop`. These tests hammer exactly those transitions
//! through the public API: a 1-slot ring (carried internally as 2 slots)
//! overflows on nearly every send, a 1024-slot ring overflows in bursts.

use mpmd_fabric::{Fabric, LocalFabricBuilder};
use mpmd_sim::Payload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

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
                        // Give the receiver a chance to drain the ring back
                        // below capacity so later sends re-enter the fast
                        // path: exercises overflow→ring as well as
                        // ring→overflow.
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
fn fifo_across_overflow_one_slot_ring() {
    // Minimum capacity: almost every push overflows, and the consumer
    // crosses ring→overflow→ring constantly.
    fifo_blast(1, 20_000);
}

#[test]
fn fifo_across_overflow_default_ring() {
    // 1024 slots: long fast-path runs punctuated by overflow bursts.
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
    // Regression for `Ring::depth` taking the producer mutex: depth reads
    // are now pure atomics, so a sampler task hammering `inbox_len` while
    // a sender floods the same links must observe plausible depths and the
    // run must complete with both sides making progress. (With the old
    // lock-taking depth this test still terminated — just slowly; latency
    // is `benchmark/`'s business. What this test pins is correctness of the
    // lock-free count: bounded by in-flight traffic, zero at quiescence.)
    const N: u64 = 30_000;
    let max_seen = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let (max_c, done_c) = (Arc::clone(&max_seen), Arc::clone(&done));
    let r = LocalFabricBuilder::new(2).ring_capacity(8).run(move |fab| {
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
    // The sampler ran concurrently with real traffic: it must have seen a
    // depth bounded by what was ever in flight.
    assert!(max_seen.load(Ordering::Relaxed) <= N as usize);
}
