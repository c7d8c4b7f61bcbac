//! Integration tests spanning the whole stack: simulator → AM → both
//! language runtimes, exercised through the facade crate exactly as a
//! downstream user would.

use mpmd_repro::am;
use mpmd_repro::ccxx::{self, CallMode, CcxxConfig, CxPtr};
use mpmd_repro::sim::{to_us, us, Bucket, Fabric, Sim};
use mpmd_repro::splitc::{self};
use mpmd_repro::threads;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn both_runtimes_coexist_on_one_machine() {
    // A single simulated machine can host Split-C style traffic and CC++
    // RMIs side by side (they share the AM layer; the profile must agree,
    // so this uses the CC++ profile for both kinds of handlers).
    Sim::new(2).run(|ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        let region = ccxx::alloc_region(&ctx, 8, ctx.node() as f64);
        ccxx::barrier(&ctx);
        if ctx.node() == 0 {
            // RMI path.
            let r = ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], None, CallMode::Blocking);
            assert_eq!(r.words, [0; 4]);
            // GP path into the same region.
            let v = ccxx::gp_read(
                &ctx,
                CxPtr {
                    node: 1,
                    region,
                    offset: 0,
                },
            );
            assert_eq!(v, 1.0);
        }
        ccxx::finalize(&ctx);
    });
}

#[test]
fn split_c_global_ops_compose_end_to_end() {
    let r = Sim::new(4).run(|ctx| {
        splitc::init(&ctx);
        let a = splitc::all_spread_alloc(&ctx, 8, 0.0);
        splitc::barrier(&ctx);
        // Everyone writes its id into slot 0 of the next node (ring).
        let next = (ctx.node() + 1) % ctx.nodes();
        splitc::write(&ctx, a.node_chunk(next), ctx.node() as f64);
        splitc::barrier(&ctx);
        // Split-phase-read it back from the previous node.
        let prev = (ctx.node() + ctx.nodes() - 1) % ctx.nodes();
        let h = splitc::get(&ctx, a.node_chunk(ctx.node()));
        splitc::sync(&ctx);
        assert_eq!(h.value(), prev as f64);
        // Sum of everyone's id via reduction.
        let total = splitc::reduce_sum_u64(&ctx, ctx.node() as u64);
        assert_eq!(total, 6);
        splitc::barrier(&ctx);
    });
    assert_eq!(r.total_stats().thread_creates, 0, "Split-C never threads");
}

#[test]
fn mpmd_server_with_spmd_like_clients() {
    // MPMD: node 0 runs a different program than nodes 1..N.
    let served = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&served);
    Sim::new(3).run(move |ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        if ctx.node() == 0 {
            let hits = Arc::new(AtomicU64::new(0));
            let h2 = Arc::clone(&hits);
            ccxx::register_method(&ctx, "count", move |_ctx, _args| {
                let n = h2.fetch_add(1, Ordering::AcqRel) + 1;
                ccxx::RmiRet::of_words([n, 0, 0, 0])
            });
            ccxx::barrier(&ctx);
            let h3 = Arc::clone(&hits);
            ccxx::spin_until(&ctx, move || h3.load(Ordering::Acquire) >= 10);
            s2.store(hits.load(Ordering::Acquire), Ordering::Release);
        } else {
            ccxx::barrier(&ctx);
            for _ in 0..5 {
                ccxx::rmi(&ctx, 0, "count", &[], None, CallMode::Atomic);
            }
        }
        ccxx::finalize(&ctx);
    });
    assert_eq!(served.load(Ordering::Acquire), 10);
}

#[test]
fn am_round_trips_match_calibration_through_the_facade() {
    // End-to-end sanity: the calibrated latencies survive the full stack.
    let rtt = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&rtt);
    Sim::new(2).run(move |ctx| {
        splitc::init(&ctx);
        let a = splitc::all_spread_alloc(&ctx, 1, 2.5);
        splitc::barrier(&ctx);
        if ctx.node() == 0 {
            let t0 = ctx.now();
            let v = splitc::read(&ctx, a.node_chunk(1));
            assert_eq!(v, 2.5);
            r2.store(ctx.now() - t0, Ordering::Release);
        }
        splitc::barrier(&ctx);
    });
    let got = to_us(rtt.load(Ordering::Acquire));
    assert!((got - 57.0).abs() < 2.0, "GP read = {got} µs (Table 4: 57)");
}

#[test]
fn threads_and_am_interleave_without_losing_messages() {
    // Spawned threads, condition variables, and message traffic all at
    // once: a small stress of the scheduling core.
    Sim::new(2).run(|ctx| {
        am::init(&ctx, am::NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        let got = Arc::new(AtomicU64::new(0));
        let g2 = Arc::clone(&got);
        am::register(&ctx, 77, move |_ctx, m| {
            g2.fetch_add(m.args[0], Ordering::AcqRel);
        });
        am::barrier(&ctx);
        if ctx.node() == 0 {
            let mut handles = Vec::new();
            for i in 1..=10u64 {
                handles.push(threads::spawn(&ctx, "sender", move |c| {
                    am::endpoint(&c).to(1).handler(77).args([i, 0, 0, 0]).send();
                }));
            }
            for h in handles {
                h.join(&ctx);
            }
        }
        am::barrier(&ctx);
        if ctx.node() == 1 {
            assert_eq!(got.load(Ordering::Acquire), 55);
        }
        am::barrier(&ctx);
    });
}

#[test]
fn nexus_runtime_is_dramatically_slower_end_to_end() {
    fn one_rmi(cfg: CcxxConfig, cost: mpmd_repro::sim::CostModel) -> u64 {
        let out = Arc::new(AtomicU64::new(0));
        let o2 = Arc::clone(&out);
        Sim::new(2).cost_model(cost).run(move |ctx| {
            ccxx::init(&ctx, cfg.clone());
            ccxx::barrier(&ctx);
            if ctx.node() == 0 {
                // warm (as warm as Nexus gets — no caches there)
                ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], None, CallMode::Threaded);
                let t0 = ctx.now();
                ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], None, CallMode::Threaded);
                o2.store(ctx.now() - t0, Ordering::Release);
            }
            ccxx::finalize(&ctx);
        });
        out.load(Ordering::Acquire)
    }
    let tham = one_rmi(CcxxConfig::tham(), mpmd_repro::sim::CostModel::default());
    let nexus = one_rmi(
        mpmd_repro::nexus::nexus_config(),
        mpmd_repro::nexus::nexus_sim_cost_model(),
    );
    assert!(
        nexus > 20 * tham,
        "nexus {} µs vs tham {} µs",
        to_us(nexus),
        to_us(tham)
    );
    assert!(nexus > us(3_000.0), "nexus null RMI should be milliseconds");
}

#[test]
fn charged_buckets_are_conserved_across_the_stack() {
    // busy_total == sum of buckets + residual(net) by construction; check
    // the identity holds for a non-trivial mixed workload.
    let r = Sim::new(2).run(|ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        let region = ccxx::alloc_region(&ctx, 20, 1.0);
        ccxx::barrier(&ctx);
        if ctx.node() == 0 {
            ccxx::bulk_get(
                &ctx,
                CxPtr {
                    node: 1,
                    region,
                    offset: 0,
                },
                20,
            );
            ccxx::charge_cpu(&ctx, 5_000);
            ccxx::gp_write(
                &ctx,
                CxPtr {
                    node: 1,
                    region,
                    offset: 3,
                },
                9.0,
            );
        }
        ccxx::finalize(&ctx);
    });
    let busy = r.busy_total();
    let parts: u64 = [
        Bucket::Cpu,
        Bucket::ThreadMgmt,
        Bucket::ThreadSync,
        Bucket::Runtime,
    ]
    .iter()
    .map(|&b| r.bucket_total(b))
    .sum::<u64>()
        + r.net_component();
    assert_eq!(busy, parts);
}
