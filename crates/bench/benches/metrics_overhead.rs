//! Proof that the metrics registry is zero-cost when absent: every `Ctx`
//! recording hook takes the kernel lock it would have taken anyway and
//! bails on `metrics.is_none()` without building any payload (the same
//! gating discipline as the tracer's enabled-check).
//!
//! `ci.sh` parses these numbers and asserts the disabled-hook run stays
//! within a small absolute budget of the no-hooks baseline — i.e. a
//! disabled `metric_observe` costs tens of nanoseconds of lock traffic,
//! unmeasurable next to the 50+ µs virtual operations it instruments.

use criterion::{criterion_group, criterion_main, Criterion};
use mpmd_sim::{Bucket, Fabric, Sim};
use mpmd_splitc as sc;

/// Hook calls per simulation run; large enough that the per-call cost
/// dominates the fixed `Sim` setup/teardown share.
const OBSERVES: u64 = 10_000;

fn bench_hook_gating(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    // No hook calls at all: bounds the fixed setup/teardown share.
    g.bench_function("no_hooks_baseline", |b| {
        b.iter(|| {
            Sim::new(1).run(|ctx| {
                ctx.charge(Bucket::Cpu, 1);
            })
        })
    });
    // 10k disabled observes: the gate bails under the kernel lock.
    g.bench_function("observe_disabled_x10k", |b| {
        b.iter(|| {
            Sim::new(1).run(|ctx| {
                for _ in 0..OBSERVES {
                    ctx.metric_observe("bench.lat_ns", 53_000);
                }
                ctx.charge(Bucket::Cpu, 1);
            })
        })
    });
    // Same 10k observes with a registry installed, for contrast.
    g.bench_function("observe_enabled_x10k", |b| {
        b.iter(|| {
            Sim::new(1).metrics(true).run(|ctx| {
                for _ in 0..OBSERVES {
                    ctx.metric_observe("bench.lat_ns", 53_000);
                }
                ctx.charge(Bucket::Cpu, 1);
            })
        })
    });
    g.finish();
}

/// Workload-level check: a Split-C remote-read loop (the instrumented hot
/// path) with metrics off vs on. The off run is what every pre-existing
/// caller sees.
fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_workload");
    g.sample_size(20);
    let reads = |metrics: bool| {
        Sim::new(2).metrics(metrics).run(|ctx| {
            sc::init(&ctx);
            let a = sc::all_spread_alloc(&ctx, 4, 1.0);
            sc::barrier(&ctx);
            if ctx.node() == 0 {
                for _ in 0..100 {
                    sc::read(&ctx, a.node_chunk(1));
                }
            }
            sc::barrier(&ctx);
        })
    };
    g.bench_function("splitc_100_reads_metrics_off", |b| b.iter(|| reads(false)));
    g.bench_function("splitc_100_reads_metrics_on", |b| b.iter(|| reads(true)));
    g.finish();
}

criterion_group!(benches, bench_hook_gating, bench_workload);
criterion_main!(benches);
