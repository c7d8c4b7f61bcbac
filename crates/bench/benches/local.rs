//! Criterion benches of the wall-clock [`LocalFabric`] hot path: the link
//! ring + adaptive-wait data path measured end to end through the CC++ and AM
//! layers on real OS threads.
//!
//! These complement `benchmark/` (the acceptance harness, parent vs change
//! on the same host) with quick relative numbers for before/after work on
//! the fabric (`cargo bench -p mpmd-bench --bench local`). Each sample spawns the node
//! threads, so per-iteration figures include fabric setup amortized over the
//! in-loop round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use mpmd_am as am;
use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabric};

/// CC++ Simple null RMIs between two OS threads — the full stack.
fn bench_null_rmi(c: &mut Criterion) {
    let mut g = c.benchmark_group("local");
    g.sample_size(10);
    g.bench_function("null_rmi_x200", |b| {
        b.iter(|| {
            LocalFabric::run(2, |ctx| {
                cx::init(&ctx, CcxxConfig::tham());
                cx::barrier(&ctx);
                if ctx.node() == 0 {
                    for _ in 0..200 {
                        cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
                    }
                }
                cx::finalize(&ctx);
            })
        })
    });
    // The AM barrier across four threads: the broadcast/gather pattern that
    // stresses the per-(src,dst) rings and the parker wake path at fan-in.
    g.bench_function("barrier_x50_4threads", |b| {
        b.iter(|| {
            LocalFabric::run(4, |ctx| {
                am::init(&ctx, am::NetProfile::sp_am_splitc());
                am::register_barrier_handlers(&ctx);
                for _ in 0..50 {
                    am::barrier(&ctx);
                }
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_null_rmi);
criterion_main!(benches);
