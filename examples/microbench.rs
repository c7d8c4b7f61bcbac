//! The paper's Figure 2/3 micro-benchmarks, written directly against the
//! public APIs (the `table4` binary runs the full calibrated suite; this
//! example shows what the pseudo-code in the paper looks like here).
//!
//! Run with: `cargo run --release --example microbench`

use mpmd_repro::ccxx::{self, CallMode, CcxxConfig, CxPtr, MarshalBuf};
use mpmd_repro::sim::{to_us, Fabric, Sim};
use mpmd_repro::splitc::{self, GlobalPtr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    println!("CC++ micro-benchmarks (Figure 3 pseudo-code):");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    Sim::new(2).run(move |ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        let region = ccxx::alloc_region(&ctx, 20, 1.5);
        ccxx::barrier(&ctx);
        if ctx.node() == 0 {
            let gp_y = CxPtr {
                node: 1,
                region,
                offset: 0,
            };
            let gp_a = CxPtr {
                node: 1,
                region,
                offset: 0,
            };

            let bench = |name: &str, f: &dyn Fn()| {
                // warm-up populates the stub cache and persistent buffers
                f();
                let t0 = ctx.now();
                f();
                println!("  {name:24} {:>7.1} µs", to_us(ctx.now() - t0));
            };

            // gpObj->foo();
            bench("0-Word RMI", &|| {
                ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], None, CallMode::Blocking);
            });
            // gpObj->foo(ly, lz);
            bench("2-Word RMI", &|| {
                let mut b = MarshalBuf::new();
                b.push(&ctx, &1u32).push(&ctx, &2u32);
                ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], Some(b), CallMode::Blocking);
            });
            // gpObj->atomic_foo();
            bench("0-Word Atomic RMI", &|| {
                ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], None, CallMode::Atomic);
            });
            // lx = *gpY;
            bench("GP Read", &|| {
                ccxx::gp_read(&ctx, gp_y);
            });
            // lA = gpObj->get(gpA);
            bench("Bulk Read (20 doubles)", &|| {
                ccxx::bulk_get(&ctx, gp_a, 20);
            });
            // parfor (i) lx = *gpY;
            let ptrs: Vec<CxPtr> = (0..20)
                .map(|i| CxPtr {
                    node: 1,
                    region,
                    offset: i,
                })
                .collect();
            bench("Prefetch (20 doubles)", &|| {
                ccxx::prefetch(&ctx, &ptrs);
            });

            stop2.store(true, Ordering::Release);
            ccxx::rmi(&ctx, 1, ccxx::M_NULL, &[], None, CallMode::Simple);
        } else {
            let s = Arc::clone(&stop2);
            ccxx::spin_until(&ctx, move || s.load(Ordering::Acquire));
        }
        ccxx::finalize(&ctx);
    });

    println!("Split-C micro-benchmarks (Figure 2 pseudo-code):");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    Sim::new(2).run(move |ctx| {
        splitc::init(&ctx);
        let region = splitc::alloc_region(&ctx, 20, 1.5);
        splitc::barrier(&ctx);
        if ctx.node() == 0 {
            let gp_y = GlobalPtr {
                node: 1,
                region,
                offset: 0,
            };
            let bench = |name: &str, f: &dyn Fn()| {
                f();
                let t0 = ctx.now();
                f();
                println!("  {name:24} {:>7.1} µs", to_us(ctx.now() - t0));
            };
            // atomic(foo, 0);
            bench("0-Word Atomic RPC", &|| {
                splitc::atomic_rpc(&ctx, 1, splitc::ATOMIC_NULL, [0; 3]);
            });
            // lx = *gpY;
            bench("GP Read", &|| {
                splitc::read(&ctx, gp_y);
            });
            // bulk_read(&lA, gpA, 20*sizeof(double));
            bench("Bulk Read (20 doubles)", &|| {
                splitc::bulk_read(&ctx, gp_y, 20);
            });
            // for (i) lx := *gpY; sync();
            bench("Prefetch (20 doubles)", &|| {
                let hs: Vec<_> = (0..20)
                    .map(|i| {
                        splitc::get(
                            &ctx,
                            GlobalPtr {
                                node: 1,
                                region,
                                offset: i,
                            },
                        )
                    })
                    .collect();
                splitc::sync(&ctx);
                let _ = hs;
            });
            stop2.store(true, Ordering::Release);
            splitc::atomic_rpc(&ctx, 1, splitc::ATOMIC_NULL, [0; 3]);
        } else {
            let s = Arc::clone(&stop2);
            mpmd_repro::am::wait_until(&ctx, move || s.load(Ordering::Acquire));
        }
        splitc::barrier(&ctx);
    });
}
