//! Criterion benches of the substrates themselves: engine scheduling,
//! AM dispatch, runtime primitives. These measure the real wall-clock
//! performance of the simulator (the virtual-time results come from the
//! table/figure binaries, which are deterministic).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mpmd_am as am;
use mpmd_ccxx as cx;
use mpmd_ccxx::{CallMode, CcxxConfig};
use mpmd_sim::{Bucket, Fabric, Payload, Sim};
use mpmd_splitc as sc;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("spawn_join_100_tasks", |b| {
        b.iter(|| {
            Sim::new(1).run(|ctx| {
                let hs: Vec<_> = (0..100)
                    .map(|i| ctx.spawn("w", move |c| c.charge(Bucket::Cpu, i)))
                    .collect();
                for h in hs {
                    ctx.join(h);
                }
            })
        })
    });
    g.bench_function("message_ping_pong_100", |b| {
        b.iter(|| {
            Sim::new(2).run(|ctx| {
                if ctx.node() == 0 {
                    for _ in 0..100 {
                        ctx.send_msg(1, 8, 1_000, Payload::any(0u64));
                        ctx.park_for_inbox();
                        ctx.try_recv().unwrap();
                    }
                } else {
                    for _ in 0..100 {
                        ctx.park_for_inbox();
                        ctx.try_recv().unwrap();
                        ctx.send_msg(0, 8, 1_000, Payload::any(0u64));
                    }
                }
            })
        })
    });
    // Same round trip on the allocation-free inline path: handler id and
    // argument words travel inside the event body (no boxing anywhere).
    g.bench_function("short_ping_pong_100", |b| {
        b.iter(|| {
            Sim::new(2).run(|ctx| {
                let short = || Payload::Short {
                    handler: 0,
                    args: [1, 2, 3, 4],
                    token: None,
                };
                if ctx.node() == 0 {
                    for _ in 0..100 {
                        ctx.send_msg(1, 8, 1_000, short());
                        ctx.park_for_inbox();
                        ctx.try_recv().unwrap();
                    }
                } else {
                    for _ in 0..100 {
                        ctx.park_for_inbox();
                        ctx.try_recv().unwrap();
                        ctx.send_msg(0, 8, 1_000, short());
                    }
                }
            })
        })
    });
    g.finish();
}

/// The three substrate hot paths this repo optimizes: the scheduler's
/// min-clock decision (exercised across many nodes), the task-to-task
/// baton handoff, and timed-event application.
fn bench_hot_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_paths");
    // Scheduler decision with a wide node set: every yield forces a
    // min-clock choice among 64 runnable nodes (the indexed-heap path).
    g.bench_function("sched_decide_64_nodes", |b| {
        b.iter(|| {
            Sim::new(64).run(|ctx| {
                for i in 0..20 {
                    // Stagger clocks so the min keeps moving between nodes.
                    ctx.charge(Bucket::Cpu, 100 + ((ctx.node() as u64 + i) % 7) * 10);
                    ctx.yield_now();
                }
            })
        })
    });
    // Pure baton handoff: two tasks on one node alternating via yield —
    // each iteration of the pair is one OS-level switch each way.
    g.bench_function("task_switch_ping", |b| {
        b.iter(|| {
            Sim::new(1).run(|ctx| {
                let h = ctx.spawn("peer", |c| {
                    for _ in 0..100 {
                        c.charge(Bucket::Cpu, 10);
                        c.yield_now();
                    }
                });
                for _ in 0..100 {
                    ctx.charge(Bucket::Cpu, 10);
                    ctx.yield_now();
                }
                ctx.join(h);
            })
        })
    });
    // Timed-event application: sleeps post wake events through the event
    // heap; each must be applied before the clock may advance past it.
    g.bench_function("event_apply_1000_sleeps", |b| {
        b.iter(|| {
            Sim::new(2).run(|ctx| {
                for _ in 0..500 {
                    ctx.sleep(1_000);
                }
            })
        })
    });
    g.finish();
}

fn bench_runtimes(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtimes");
    g.sample_size(20);
    g.bench_function("splitc_100_remote_reads", |b| {
        b.iter_batched(
            || (),
            |_| {
                Sim::new(2).run(|ctx| {
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
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("ccxx_100_simple_rmis", |b| {
        b.iter_batched(
            || (),
            |_| {
                Sim::new(2).run(|ctx| {
                    cx::init(&ctx, CcxxConfig::tham());
                    cx::barrier(&ctx);
                    if ctx.node() == 0 {
                        for _ in 0..100 {
                            cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
                        }
                    }
                    cx::finalize(&ctx);
                })
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("am_barrier_x20_on_4_nodes", |b| {
        b.iter(|| {
            Sim::new(4).run(|ctx| {
                am::init(&ctx, am::NetProfile::sp_am_splitc());
                am::register_barrier_handlers(&ctx);
                for _ in 0..20 {
                    am::barrier(&ctx);
                }
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine, bench_hot_paths, bench_runtimes);
criterion_main!(benches);
