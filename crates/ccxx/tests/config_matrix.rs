//! Cross-configuration integration tests: every call mode against every
//! runtime configuration, verifying that optimization switches change costs
//! but never semantics.

use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig, CxPtr, MarshalBuf, UnmarshalBuf};
use mpmd_sim::{CostModel, Fabric, Sim};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn configs() -> Vec<(&'static str, CcxxConfig)> {
    vec![
        ("tham", CcxxConfig::tham()),
        ("no-stub-cache", CcxxConfig::tham().without_stub_caching()),
        (
            "no-pbuffers",
            CcxxConfig::tham().without_persistent_buffers(),
        ),
        (
            "ret-buffer",
            CcxxConfig::tham().with_return_buffer_passing(),
        ),
        (
            "interrupts",
            CcxxConfig::tham().with_interrupts(mpmd_sim::us(30.0)),
        ),
    ]
}

#[test]
fn every_mode_times_every_config_returns_correct_results() {
    for (name, cfg) in configs() {
        for mode in [
            CallMode::Simple,
            CallMode::Blocking,
            CallMode::Threaded,
            CallMode::Atomic,
            CallMode::Optimistic,
        ] {
            let cfg2 = cfg.clone();
            Sim::new(2).run(move |ctx| {
                cx::init(&ctx, cfg2.clone());
                cx::register_method_full(&ctx, cx::DEFAULT_PROGRAM, "twice", false, |_c, a| {
                    cx::RmiRet::of_words([a.words[0] * 2, 0, 0, 0])
                });
                cx::barrier(&ctx);
                if ctx.node() == 0 {
                    for i in 1..=3u64 {
                        let r = cx::rmi(&ctx, 1, "twice", &[i], None, mode);
                        assert_eq!(r.words[0], 2 * i, "{mode:?}");
                    }
                }
                cx::finalize(&ctx);
            });
            let _ = name;
        }
    }
}

#[test]
fn marshalled_payloads_survive_every_config() {
    for (name, cfg) in configs() {
        let seen: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        Sim::new(2).run(move |ctx| {
            cx::init(&ctx, cfg.clone());
            let s3 = Arc::clone(&s2);
            cx::register_method(&ctx, "sink", move |c, args| {
                let d = args.data.expect("payload");
                let mut u = UnmarshalBuf::new(&d);
                *s3.lock() = u.next::<Vec<f64>, _>(c);
                cx::RmiRet::null()
            });
            cx::barrier(&ctx);
            if ctx.node() == 0 {
                // twice: cold then warm (exercises the R-buffer paths)
                for _ in 0..2 {
                    let mut b = MarshalBuf::new();
                    b.push(&ctx, &vec![1.5, -2.5, 4.0]);
                    cx::rmi(&ctx, 1, "sink", &[], Some(b), CallMode::Threaded);
                }
            }
            cx::finalize(&ctx);
        });
        assert_eq!(*seen.lock(), vec![1.5, -2.5, 4.0], "config {name}");
    }
}

#[test]
fn gp_and_bulk_paths_work_under_interrupt_reception() {
    Sim::new(2).run(|ctx| {
        cx::init(&ctx, CcxxConfig::tham().with_interrupts(mpmd_sim::us(50.0)));
        let region = cx::alloc_region(&ctx, 20, ctx.node() as f64);
        cx::barrier(&ctx);
        if ctx.node() == 0 {
            let p = CxPtr {
                node: 1,
                region,
                offset: 0,
            };
            assert_eq!(cx::gp_read(&ctx, p), 1.0);
            cx::gp_write(&ctx, p, 3.25);
            assert_eq!(cx::gp_read3(&ctx, p), [3.25, 1.0, 1.0]);
            let all = cx::bulk_get(&ctx, p, 20);
            assert_eq!(all[0], 3.25);
            assert!(all[1..].iter().all(|&v| v == 1.0));
        }
        cx::finalize(&ctx);
    });
}

#[test]
fn prefetch_and_parfor_work_without_stub_caching() {
    Sim::new(2).run(|ctx| {
        cx::init(&ctx, CcxxConfig::tham().without_stub_caching());
        let region = cx::alloc_region(&ctx, 10, 0.0);
        cx::with_local(&ctx, region, |v| {
            for (i, x) in v.iter_mut().enumerate() {
                *x = (ctx.node() * 10 + i) as f64;
            }
        });
        cx::barrier(&ctx);
        if ctx.node() == 0 {
            let ptrs: Vec<CxPtr> = (0..10)
                .map(|i| CxPtr {
                    node: 1,
                    region,
                    offset: i,
                })
                .collect();
            let got = cx::prefetch(&ctx, &ptrs);
            assert!(got.iter().enumerate().all(|(i, &v)| v == (10 + i) as f64));
        }
        cx::finalize(&ctx);
    });
}

#[test]
fn mixed_traffic_under_heavyweight_threads() {
    // Nexus-like thread costs change only timing, never outcomes.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let r = Sim::new(3)
        .cost_model(CostModel {
            threads: mpmd_sim::ThreadCosts::heavyweight(),
            ..Default::default()
        })
        .run(move |ctx| {
            cx::init(&ctx, CcxxConfig::tham());
            let region = cx::alloc_region(&ctx, 4, 0.0);
            cx::barrier(&ctx);
            if ctx.node() != 0 {
                for i in 0..4 {
                    cx::atomic_add(
                        &ctx,
                        CxPtr {
                            node: 0,
                            region,
                            offset: i,
                        },
                        ctx.node() as f64,
                    );
                }
                if ctx.node() == 1 {
                    stop2.store(true, Ordering::Release);
                    cx::rmi(&ctx, 0, cx::M_NULL, &[], None, CallMode::Simple);
                }
            }
            cx::barrier(&ctx);
            if ctx.node() == 0 {
                cx::with_local(&ctx, region, |v| {
                    assert!(v.iter().all(|&x| x == 3.0)); // 1 + 2 from nodes 1,2
                });
            }
            cx::finalize(&ctx);
        });
    assert!(r.total_stats().bucket(mpmd_sim::Bucket::ThreadMgmt) > 0);
}
