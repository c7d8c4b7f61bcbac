//! # mpmd-am — Active Messages over the simulated multicomputer
//!
//! Both language runtimes in the paper are built over Active Messages (von
//! Eicken et al., ISCA '92) on the IBM SP: short 4-word request/reply
//! messages whose arrival invokes a *handler*, bulk-transfer primitives for
//! contiguous data, and polling-based reception ("due to the high cost of
//! software interrupts ... message reception is based on polling that occurs
//! on a node every time a message is sent").
//!
//! This crate provides that layer: per-node handler tables, an [`Endpoint`]
//! handle with a typed send builder (`endpoint(ctx).to(dst).handler(H_X)
//! .args([..]).send()`), [`poll`], the spin-wait [`wait_until`], reply
//! continuation cells, a node-0 barrier and all-reduce, the global-memory
//! [`RegionTable`] both runtimes keep per node, and calibrated [`NetProfile`]s
//! (Split-C's single-threaded endpoint at a 53 µs null round trip, the CC++
//! thread-safe endpoint at 55 µs, IBM MPL at 88 µs). Runtimes can opt into
//! adaptive per-destination [message coalescing](coalesce) ([`CoalesceConfig`])
//! that aggregates short sends into one wire frame per destination.
//!
//! The whole layer is generic over a [`mpmd_fabric::Fabric`]: the same
//! runtime code runs on the discrete-event simulator
//! ([`mpmd_fabric::SimFabric`]) and on real OS threads with wall-clock
//! timing ([`mpmd_fabric::LocalFabric`]).

pub mod coalesce;
mod collective;
mod endpoint;
mod ops;
mod profile;
mod regions;
mod reliable;
mod reply;
mod state;

pub use coalesce::{coalescing_enabled, enable_coalescing, CoalesceConfig, SUB_WIRE_BYTES};
pub use collective::{
    all_reduce, barrier, register_barrier_handlers, ReduceOp, H_BARRIER_ARRIVE, H_BARRIER_RELEASE,
};
pub use endpoint::{endpoint, Endpoint, SendBuilder};
pub use ops::{flush, poll, wait_until, Token, SHORT_WIRE_BYTES};
pub use profile::NetProfile;
pub use regions::{pack_addr, unpack_addr, RegionTable};
pub use reply::ReplyCell;
pub use state::{init, is_registered, profile, register, Handler, HandlerId, HANDLER_ID_LIMIT};

use bytes::Bytes;
use mpmd_sim::Payload;

/// A delivered active message, as seen by its handler.
pub struct AmMsg {
    /// Sending node.
    pub src: usize,
    /// Destination handler id.
    pub handler: HandlerId,
    /// The four 64-bit argument words.
    pub args: [u64; 4],
    /// Bulk payload, if sent with a `.bulk(..)` send.
    pub data: Option<Bytes>,
    /// Opaque continuation (reply-buffer "address").
    pub token: Option<Token>,
}

impl AmMsg {
    /// Lower to the simulator's wire payload. A short message travels fully
    /// inline ([`Payload::Short`]) — the send allocates nothing; a bulk
    /// message adds its reference-counted byte payload.
    pub(crate) fn into_payload(self) -> Payload {
        match self.data {
            Some(data) => Payload::Bulk {
                handler: self.handler,
                args: self.args,
                data,
                token: self.token,
            },
            None => Payload::Short {
                handler: self.handler,
                args: self.args,
                token: self.token,
            },
        }
    }

    /// Rebuild from a delivered wire payload (the sender's node id comes
    /// from the message envelope).
    pub(crate) fn from_payload(src: usize, p: Payload) -> AmMsg {
        match p {
            Payload::Short {
                handler,
                args,
                token,
            } => AmMsg {
                src,
                handler,
                args,
                data: None,
                token,
            },
            Payload::Bulk {
                handler,
                args,
                data,
                token,
            } => AmMsg {
                src,
                handler,
                args,
                data: Some(data),
                token,
            },
            Payload::Any(_) => panic!("non-AM message in inbox"),
        }
    }
}

/// Append `vals` to a bulk payload under construction, little-endian: the
/// one copy a sender makes. Every runtime that ships doubles uses this pair,
/// whatever it charges for the work.
pub fn encode_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    let start = out.len();
    out.resize(start + 8 * vals.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode a payload of [`encode_f64s`] straight into its destination, bit
/// for bit: the one copy a receiver makes. Panics unless `bytes` holds
/// exactly `out.len()` doubles.
pub fn decode_f64s(bytes: &[u8], out: &mut [f64]) {
    assert!(
        bytes.len().is_multiple_of(8),
        "bulk payload not a whole number of f64s: {} bytes",
        bytes.len()
    );
    assert!(
        bytes.len() / 8 == out.len(),
        "bulk payload holds {} f64s, its destination {}",
        bytes.len() / 8,
        out.len()
    );
    for (v, src) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = f64::from_le_bytes(src.try_into().expect("an 8-byte chunk"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpmd_sim::{to_us, us, Bucket, Fabric, Sim};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Test handler ids (outside the reserved 0-15 range).
    const H_ECHO: HandlerId = 100;
    const H_SINK: HandlerId = 101;
    const H_REPLY: HandlerId = 102;

    fn setup(ctx: &mpmd_sim::Ctx, profile: NetProfile) {
        init(ctx, profile);
        register_barrier_handlers(ctx);
    }

    /// Run a null AM ping-pong and return the measured round-trip time.
    /// The responder waits until it has served the echo before re-entering
    /// the final barrier, so no barrier traffic lands in the timed window.
    /// With `coalesce`, both endpoints aggregate — the adaptive singleton
    /// path must keep strictly request-reply traffic at the same cost.
    fn measure_null_rtt(profile: NetProfile, coalesce: Option<CoalesceConfig>) -> u64 {
        let rtt_out = Arc::new(AtomicU64::new(0));
        let rtt2 = Arc::clone(&rtt_out);
        Sim::new(2).run(move |ctx| {
            setup(&ctx, profile.clone());
            if let Some(cfg) = coalesce.clone() {
                enable_coalescing(&ctx, cfg);
            }
            let ep = endpoint(&ctx);
            if ctx.node() == 0 {
                register(&ctx, H_REPLY, |_ctx, m| {
                    let cell = m.token.unwrap().downcast::<Arc<ReplyCell>>().unwrap();
                    cell.complete(m.args);
                });
                barrier(&ctx);
                let t0 = ctx.now();
                let cell = ReplyCell::new();
                ep.to(1)
                    .handler(H_ECHO)
                    .args([7, 0, 0, 0])
                    .token(Box::new(Arc::clone(&cell)) as Token)
                    .send();
                let c2 = Arc::clone(&cell);
                ep.wait_until(move || c2.is_done());
                assert_eq!(cell.words()[0], 7);
                rtt2.store(ctx.now() - t0, Ordering::SeqCst);
                barrier(&ctx);
            } else {
                let served = Arc::new(AtomicU64::new(0));
                let s2 = Arc::clone(&served);
                register(&ctx, H_ECHO, move |ctx, m| {
                    endpoint(ctx)
                        .to(m.src)
                        .handler(H_REPLY)
                        .args(m.args)
                        .token(m.token)
                        .send();
                    s2.fetch_add(1, Ordering::SeqCst);
                });
                barrier(&ctx);
                ep.wait_until(move || served.load(Ordering::SeqCst) >= 1);
                barrier(&ctx);
            }
        });
        rtt_out.load(Ordering::SeqCst)
    }

    #[test]
    fn null_ping_pong_round_trip_is_53us_on_splitc_profile() {
        let rtt = measure_null_rtt(NetProfile::sp_am_splitc(), None);
        assert_eq!(rtt, us(53.0), "rtt = {} µs", to_us(rtt));
    }

    #[test]
    fn thread_safe_profile_costs_55us() {
        let rtt = measure_null_rtt(NetProfile::sp_am_ccxx(), None);
        assert_eq!(rtt, us(55.0), "rtt = {} µs", to_us(rtt));
    }

    #[test]
    fn adaptive_singletons_keep_request_reply_at_53us() {
        // Coalescing on, but the traffic is strictly request-reply: every
        // buffer flushes as a singleton, which must charge exactly like an
        // uncoalesced send.
        let rtt = measure_null_rtt(NetProfile::sp_am_splitc(), Some(CoalesceConfig::default()));
        assert_eq!(rtt, us(53.0), "rtt = {} µs", to_us(rtt));
    }

    #[test]
    fn bulk_transfer_delivers_payload_intact() {
        Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            if ctx.node() == 0 {
                barrier(&ctx);
                let data: Vec<u8> = (0..=255).collect();
                endpoint(&ctx)
                    .to(1)
                    .handler(H_SINK)
                    .args([255, 0, 0, 0])
                    .bulk(Bytes::from(data))
                    .send();
                barrier(&ctx);
            } else {
                let seen = Arc::new(AtomicU64::new(0));
                let s2 = Arc::clone(&seen);
                register(&ctx, H_SINK, move |_ctx, m| {
                    let d = m.data.as_ref().unwrap();
                    assert_eq!(d.len(), 256);
                    assert!(d.iter().enumerate().all(|(i, &b)| b as usize == i));
                    s2.store(1, Ordering::SeqCst);
                });
                barrier(&ctx);
                barrier(&ctx);
                assert_eq!(seen.load(Ordering::SeqCst), 1);
            }
        });
    }

    #[test]
    fn bulk_send_charges_bulk_setup() {
        let r = Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            register(&ctx, H_SINK, |_ctx, _m| {});
            if ctx.node() == 0 {
                barrier(&ctx);
                endpoint(&ctx)
                    .to(1)
                    .handler(H_SINK)
                    .bulk(Bytes::from(vec![0u8; 160]))
                    .send();
            } else {
                barrier(&ctx);
            }
            barrier(&ctx);
        });
        let t = r.total_stats();
        assert_eq!(t.bulk_msgs, 1);
        // Net charges include bulk_setup on top of the barrier traffic.
        assert!(t.bucket(Bucket::Net) > 0);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let r = Sim::new(4).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            // Skew the nodes badly, then barrier.
            ctx.charge(Bucket::Cpu, 1_000 * (ctx.node() as u64 * 50));
            barrier(&ctx);
            let after = ctx.now();
            // Everyone leaves the barrier no earlier than the slowest
            // arrival (150 µs of cpu on node 3).
            assert!(after >= us(150.0), "left barrier at {} µs", to_us(after));
        });
        assert_eq!(r.nodes(), 4);
    }

    #[test]
    fn barrier_is_reusable_many_times() {
        Sim::new(3).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            for i in 0..20u64 {
                ctx.charge(Bucket::Cpu, (ctx.node() as u64 + 1) * 100 * (i % 3 + 1));
                barrier(&ctx);
            }
        });
    }

    #[test]
    fn poll_on_send_services_pending_messages() {
        Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            let hits = Arc::new(AtomicU64::new(0));
            let h2 = Arc::clone(&hits);
            register(&ctx, H_SINK, move |_ctx, _m| {
                h2.fetch_add(1, Ordering::SeqCst);
            });
            barrier(&ctx);
            if ctx.node() == 0 {
                endpoint(&ctx).to(1).handler(H_SINK).send();
                barrier(&ctx);
            } else {
                // Burn time so the message is already in our inbox, then
                // send our own message: poll-on-send must run the handler.
                ctx.charge(Bucket::Cpu, us(500.0));
                endpoint(&ctx).to(0).handler(H_SINK).send();
                assert_eq!(hits.load(Ordering::SeqCst), 1);
                barrier(&ctx);
            }
        });
    }

    #[test]
    #[should_panic(expected = "no AM handler registered")]
    fn unregistered_handler_panics() {
        Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            if ctx.node() == 0 {
                endpoint(&ctx).to(1).handler(999).send();
            } else {
                wait_until(&ctx, || false); // poll forever: panics on dispatch
            }
        });
    }

    #[test]
    #[should_panic(expected = "duplicate AM handler id")]
    fn duplicate_registration_panics() {
        Sim::new(1).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            register(&ctx, H_ECHO, |_, _| {});
            register(&ctx, H_ECHO, |_, _| {});
        });
    }

    #[test]
    fn handler_registration_is_per_node() {
        Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            if ctx.node() == 0 {
                register(&ctx, H_ECHO, |_, _| {});
                assert!(is_registered(&ctx, H_ECHO));
            } else {
                assert!(!is_registered(&ctx, H_ECHO));
            }
            barrier(&ctx);
        });
    }

    #[test]
    fn messages_from_one_sender_arrive_in_order() {
        Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let l2 = Arc::clone(&log);
            register(&ctx, H_SINK, move |_ctx, m| {
                l2.lock().push(m.args[0]);
            });
            barrier(&ctx);
            if ctx.node() == 0 {
                for i in 0..10u64 {
                    endpoint(&ctx)
                        .to(1)
                        .handler(H_SINK)
                        .args([i, 0, 0, 0])
                        .send();
                }
                barrier(&ctx);
            } else {
                barrier(&ctx);
                assert_eq!(&*log.lock(), &(0..10).collect::<Vec<u64>>());
            }
        });
    }

    #[test]
    fn pipelined_requests_overlap_on_the_wire() {
        // 10 back-to-back one-way messages: wall time must be far below
        // 10 full one-way latencies (only send overheads serialize).
        let r = Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            register(&ctx, H_SINK, |_, _| {});
            barrier(&ctx);
            if ctx.node() == 0 {
                for i in 0..10u64 {
                    endpoint(&ctx)
                        .to(1)
                        .handler(H_SINK)
                        .args([i, 0, 0, 0])
                        .send();
                }
            }
            barrier(&ctx);
        });
        // Wall clock after barriers exists; the real assertion is indirect:
        // 10 sends at 2 µs overhead + 22.5 µs wire ≈ 45 µs, not 265 µs.
        assert!(
            r.elapsed() < us(200.0),
            "elapsed = {} µs",
            to_us(r.elapsed())
        );
    }

    /// One-directional burst with per-node stats: the workhorse for the
    /// coalescing assertions below.
    fn run_burst(coalesce: Option<CoalesceConfig>, n_msgs: u64) -> (mpmd_sim::Report, Vec<u64>) {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l_out = Arc::clone(&log);
        let r = Sim::new(2).run(move |ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            if let Some(cfg) = coalesce.clone() {
                enable_coalescing(&ctx, cfg);
            }
            let seen = Arc::new(AtomicU64::new(0));
            let s2 = Arc::clone(&seen);
            let l2 = Arc::clone(&log);
            register(&ctx, H_SINK, move |_ctx, m| {
                l2.lock().push(m.args[0]);
                s2.fetch_add(1, Ordering::SeqCst);
            });
            barrier(&ctx);
            if ctx.node() == 0 {
                let ep = endpoint(&ctx);
                for i in 0..n_msgs {
                    ep.to(1).handler(H_SINK).args([i, 0, 0, 0]).send();
                }
            } else {
                wait_until(&ctx, move || seen.load(Ordering::SeqCst) >= n_msgs);
            }
            barrier(&ctx);
        });
        let got = l_out.lock().clone();
        (r, got)
    }

    #[test]
    fn coalescing_preserves_order_and_cuts_wire_messages() {
        let (off, log_off) = run_burst(None, 32);
        let (on, log_on) = run_burst(Some(CoalesceConfig::default()), 32);
        assert_eq!(log_off, (0..32).collect::<Vec<u64>>());
        assert_eq!(log_on, log_off, "coalescing reordered the stream");
        let t_off = off.total_stats();
        let t_on = on.total_stats();
        // Logical message counts are unchanged; wire counts shrink.
        assert_eq!(t_on.short_msgs, t_off.short_msgs);
        assert!(
            t_on.msgs_sent < t_off.msgs_sent,
            "wire messages not reduced: {} vs {}",
            t_on.msgs_sent,
            t_off.msgs_sent
        );
        // 32 bursts at max_msgs=8 → 4 aggregate frames.
        assert_eq!(t_on.agg_flushes, 4);
        assert_eq!(t_on.agg_msgs, 32);
        assert_eq!(
            t_on.agg_bytes,
            4 * (SHORT_WIRE_BYTES as u64 + 8 * SUB_WIRE_BYTES as u64)
        );
        assert_eq!(t_off.agg_flushes, 0);
        // The aggregate pays fewer fixed overheads: net time drops.
        assert!(
            t_on.bucket(Bucket::Net) < t_off.bucket(Bucket::Net),
            "net did not drop: {} vs {} ns",
            t_on.bucket(Bucket::Net),
            t_off.bucket(Bucket::Net)
        );
    }

    #[test]
    fn coalescing_survives_faults_in_order() {
        use mpmd_sim::{CostModel, FaultModel};
        let run = |coalesce: Option<CoalesceConfig>| {
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let l_out = Arc::clone(&log);
            let cost = CostModel::default().with_faults(FaultModel::uniform(77, 0.15, 0.1, 0.2));
            let r = Sim::new(2).cost_model(cost).run(move |ctx| {
                setup(&ctx, NetProfile::sp_am_splitc());
                if let Some(cfg) = coalesce.clone() {
                    enable_coalescing(&ctx, cfg);
                }
                let seen = Arc::new(AtomicU64::new(0));
                let s2 = Arc::clone(&seen);
                let l2 = Arc::clone(&log);
                register(&ctx, H_SINK, move |_ctx, m| {
                    l2.lock().push(m.args[0]);
                    s2.fetch_add(1, Ordering::SeqCst);
                });
                barrier(&ctx);
                if ctx.node() == 0 {
                    let ep = endpoint(&ctx);
                    for i in 0..40u64 {
                        ep.to(1).handler(H_SINK).args([i, 0, 0, 0]).send();
                    }
                } else {
                    wait_until(&ctx, move || seen.load(Ordering::SeqCst) >= 40);
                }
                barrier(&ctx);
            });
            let got = l_out.lock().clone();
            (r, got)
        };
        let (r, log) = run(Some(CoalesceConfig::default()));
        assert_eq!(log, (0..40).collect::<Vec<u64>>());
        assert!(r.total_stats().wire_drops > 0, "fault model never fired");
        assert!(r.total_stats().agg_flushes > 0, "nothing was coalesced");
    }

    #[test]
    fn flush_points_bound_buffering() {
        // A lone message below every threshold still goes out at the next
        // poll (here: the barrier's wait_until), never stranding the buffer.
        Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            enable_coalescing(&ctx, CoalesceConfig::default());
            let seen = Arc::new(AtomicU64::new(0));
            let s2 = Arc::clone(&seen);
            register(&ctx, H_SINK, move |_ctx, _m| {
                s2.fetch_add(1, Ordering::SeqCst);
            });
            barrier(&ctx);
            if ctx.node() == 0 {
                endpoint(&ctx).to(1).handler(H_SINK).send();
            }
            barrier(&ctx);
            if ctx.node() == 1 {
                assert_eq!(seen.load(Ordering::SeqCst), 1);
            }
        });
    }

    #[test]
    fn bulk_send_flushes_buffered_shorts_first() {
        // Shorts buffered before a bulk to the same destination must be
        // handled before it.
        Sim::new(2).run(|ctx| {
            setup(&ctx, NetProfile::sp_am_splitc());
            enable_coalescing(
                &ctx,
                CoalesceConfig {
                    max_msgs: 64,
                    ..CoalesceConfig::default()
                },
            );
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let l2 = Arc::clone(&log);
            let done = Arc::new(AtomicU64::new(0));
            let d2 = Arc::clone(&done);
            register(&ctx, H_SINK, move |_ctx, m| {
                l2.lock().push((m.args[0], m.data.is_some()));
                if m.data.is_some() {
                    d2.store(1, Ordering::SeqCst);
                }
            });
            barrier(&ctx);
            if ctx.node() == 0 {
                let ep = endpoint(&ctx);
                ep.to(1).handler(H_SINK).args([1, 0, 0, 0]).send();
                ep.to(1).handler(H_SINK).args([2, 0, 0, 0]).send();
                ep.to(1)
                    .handler(H_SINK)
                    .args([3, 0, 0, 0])
                    .bulk(Bytes::from(vec![0u8; 8]))
                    .send();
            } else {
                wait_until(&ctx, move || done.load(Ordering::SeqCst) == 1);
                let l = log.lock().clone();
                let shorts: Vec<u64> = l.iter().filter(|(_, b)| !b).map(|(a, _)| *a).collect();
                assert_eq!(shorts, vec![1, 2], "shorts lost or reordered: {l:?}");
            }
            barrier(&ctx);
        });
    }
}
