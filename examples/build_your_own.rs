//! Build your own experiment on the simulated multicomputer: this example
//! measures how the CC++/Split-C gap for a simple all-to-all exchange scales
//! with message size, using nothing but the public APIs — the kind of
//! follow-up question the paper invites.
//!
//! Run with: `cargo run --release --example build_your_own`

use mpmd_repro::ccxx::{self, CcxxConfig, CxPtr};
use mpmd_repro::sim::{to_us, Fabric, Sim};
use mpmd_repro::splitc::{self, GlobalPtr};
use parking_lot::Mutex;
use std::sync::Arc;

const PROCS: usize = 4;

/// All-to-all exchange of `len` doubles per pair under Split-C (one-way
/// bulk stores + all_store_sync). Returns elapsed µs.
fn splitc_exchange(len: usize) -> f64 {
    let out = Arc::new(Mutex::new(0.0));
    let o = Arc::clone(&out);
    Sim::new(PROCS).run(move |ctx| {
        splitc::init(&ctx);
        let region = splitc::alloc_region(&ctx, len * PROCS, 0.0);
        splitc::barrier(&ctx);
        let t0 = ctx.now();
        let vals = vec![ctx.node() as f64; len];
        for q in 0..PROCS {
            if q != ctx.node() {
                splitc::bulk_store(
                    &ctx,
                    GlobalPtr {
                        node: q,
                        region,
                        offset: len * ctx.node(),
                    },
                    &vals,
                );
            }
        }
        splitc::all_store_sync(&ctx);
        if ctx.node() == 0 {
            *o.lock() = to_us(ctx.now() - t0);
        }
        splitc::barrier(&ctx);
    });
    let v = *out.lock();
    v
}

/// The same exchange under CC++ (bulk-put RMIs from a par block).
fn ccxx_exchange(len: usize) -> f64 {
    let out = Arc::new(Mutex::new(0.0));
    let o = Arc::clone(&out);
    Sim::new(PROCS).run(move |ctx| {
        ccxx::init(&ctx, CcxxConfig::tham());
        let region = ccxx::alloc_region(&ctx, len * PROCS, 0.0);
        ccxx::barrier(&ctx);
        // Warm the stub caches and persistent buffers.
        warm_and_run(&ctx, region, len);
        let t0 = ctx.now();
        warm_and_run(&ctx, region, len);
        ccxx::barrier(&ctx);
        if ctx.node() == 0 {
            *o.lock() = to_us(ctx.now() - t0);
        }
        ccxx::finalize(&ctx);
    });
    let v = *out.lock();
    v
}

fn warm_and_run(ctx: &mpmd_repro::sim::Ctx, region: u32, len: usize) {
    let mut bodies: Vec<Box<dyn FnOnce(mpmd_repro::sim::Ctx) + Send>> = Vec::new();
    for q in 0..PROCS {
        if q != ctx.node() {
            let vals = vec![ctx.node() as f64; len];
            let dst = CxPtr {
                node: q,
                region,
                offset: len * ctx.node(),
            };
            bodies.push(Box::new(move |cctx| {
                ccxx::bulk_put(&cctx, dst, &vals);
            }));
        }
    }
    ccxx::par(ctx, bodies);
    ccxx::barrier(ctx);
}

fn main() {
    println!("All-to-all exchange on {PROCS} nodes: MPMD/SPMD gap vs message size");
    println!();
    println!(
        "{:>10} {:>12} {:>12} {:>7}",
        "doubles", "split-c µs", "cc++ µs", "ratio"
    );
    for len in [1, 5, 20, 100, 500, 2000] {
        let sc = splitc_exchange(len);
        let cc = ccxx_exchange(len);
        println!("{len:>10} {sc:>12.1} {cc:>12.1} {:>7.2}", cc / sc);
    }
    println!();
    println!("Marshalling costs scale with bytes, so the MPMD penalty grows");
    println!("with message size — Table 4's BulkWrite row, extrapolated.");
}
