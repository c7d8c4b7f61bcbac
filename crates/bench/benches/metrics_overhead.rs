//! Proof that instrumentation is zero-cost when off: a disabled
//! `metric_observe` bails on the cost model's `metrics` switch, and a
//! disabled `span(..)` guard or `trace_event` on the fabric's `tracing`
//! flag, without borrowing the node's probe or building any payload. All
//! three are the `Fabric` trait's own bodies, the same on every fabric.
//!
//! The gate decides in-process: alternating timed trials of a run with no
//! hook calls and runs with 10 000 disabled calls of each hook, compared by
//! the **minimum** of each — load on the host only ever adds time, while a
//! hook that really costs 150 ns moves the minimum too — and the bench aborts
//! when a disabled hook costs that much. `ci.sh` runs it once.
//!
//! The same pattern prices metrics on `LocalFabric`: node 0's Split-C stores
//! to node 1, each followed by the AM poll a Split-C program makes between
//! them, with metrics on and with metrics off, and the difference per store.
//! Each node's counters are its totals, so with metrics on a store pays for
//! the poll's one `am.inbox_depth` sample, recorded in place, and nothing
//! else. Each variant's time is its fastest burst: node 1 takes no frame
//! while node 0 stores. The bench aborts when metrics cost a store
//! `STORE_BUDGET_NS` or more.

use mpmd_am as am;
use mpmd_fabric::LocalFabricBuilder;
use mpmd_sim::{Bucket, CostModel, Fabric, Sim, TraceEvent};
use mpmd_splitc as sc;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hook calls per simulation run; large enough that the per-call cost
/// dominates the fixed `Sim` setup/teardown share.
const CALLS: u64 = 10_000;
/// Alternating trials per variant, and simulation runs timed in one trial.
const TRIALS: usize = 9;
const RUNS: u32 = 20;
/// What a disabled hook may cost, in nanoseconds per call.
const BUDGET_NS: f64 = 150.0;
/// Split-C stores in one burst, which a link holds whole, and bursts in one
/// `LocalFabric` run; alternating runs per variant; and what metrics may add
/// to one store, in nanoseconds.
const BURST: usize = 1_000;
const BURSTS: u64 = 32;
const STORE_TRIALS: usize = 61;
const STORE_BUDGET_NS: f64 = 20.0;

/// What a run calls `CALLS` times.
#[derive(Clone, Copy)]
enum Hook {
    Nothing,
    Observe,
    Span,
    TraceEvent,
}

/// Mean wall nanoseconds of one run that calls `hook`, with metrics on or
/// off (tracing is always off).
fn run_ns(metrics: bool, hook: Hook) -> f64 {
    let cost = CostModel {
        metrics,
        ..CostModel::default()
    };
    let t0 = Instant::now();
    for _ in 0..RUNS {
        Sim::new(1).cost_model(cost.clone()).run(move |ctx| {
            for _ in 0..CALLS {
                // Opaque on every call, so no check is hoisted out of the loop.
                let ctx = black_box(&ctx);
                match hook {
                    Hook::Nothing => {}
                    Hook::Observe => ctx.metric_observe("bench.lat_ns", 53_000),
                    Hook::Span => drop(ctx.span("bench.span")),
                    Hook::TraceEvent => ctx.trace_event(|| TraceEvent::BarrierEnter { epoch: 0 }),
                }
            }
            ctx.charge(Bucket::Cpu, 1);
        });
    }
    t0.elapsed().as_nanos() as f64 / RUNS as f64
}

/// A flag in a 128-byte block of its own: node 1 reads it while node 0
/// stores, and must not pull node 0's lines as it does.
#[repr(align(128))]
#[derive(Default)]
struct Sent(AtomicU64);

/// Wall nanoseconds per store of the fastest of node 0's `BURSTS` bursts of
/// `BURST` Split-C stores to node 1, each store followed by one AM poll,
/// timed on node 0 alone: node 1 takes no frame until the burst is sent, so
/// the receiver's pace does not enter.
fn store_ns(metrics: bool) -> f64 {
    let took = Arc::new(AtomicU64::new(0));
    let sent = Arc::new(Sent::default());
    let (t, s) = (Arc::clone(&took), Arc::clone(&sent));
    LocalFabricBuilder::new(2).metrics(metrics).run(move |ctx| {
        sc::init(&ctx);
        let a = sc::all_spread_alloc(&ctx, BURST, 0.0);
        sc::barrier(&ctx);
        let mut best = u64::MAX;
        for burst in 1..=BURSTS {
            if ctx.node() == 0 {
                let base = a.node_chunk(1);
                let t0 = Instant::now();
                for i in 0..BURST {
                    sc::store(&ctx, base.add(i), i as f64);
                    am::poll(&ctx);
                }
                best = best.min(t0.elapsed().as_nanos() as u64);
                s.0.store(burst, Ordering::Release);
            } else {
                // Off the CPU while it waits: node 0 may share it.
                while s.0.load(Ordering::Acquire) < burst {
                    std::thread::yield_now();
                }
            }
            sc::all_store_sync(&ctx);
        }
        if ctx.node() == 0 {
            t.store(best, Ordering::Relaxed);
        }
    });
    took.load(Ordering::Relaxed) as f64 / BURST as f64
}

/// Metrics on minus metrics off, per `LocalFabric` store, from the fastest
/// burst of alternating runs of each.
fn store_probe_cost() {
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for trial in 0..STORE_TRIALS {
        for metrics in [trial % 2 == 0, trial % 2 == 1] {
            let ns = store_ns(metrics);
            let best = if metrics { &mut on } else { &mut off };
            *best = best.min(ns);
        }
    }
    let cost = on - off;
    println!(
        "metrics/local_store: {off:.1} ns/store off, {on:.1} ns/store on, \
         {cost:.1} ns/store for metrics (fastest of {STORE_TRIALS} runs x {BURSTS} bursts)"
    );
    assert!(
        cost < STORE_BUDGET_NS,
        "metrics must cost a LocalFabric store under {STORE_BUDGET_NS} ns"
    );
}

fn main() {
    let variants = [
        ("no_hooks_baseline", false, Hook::Nothing),
        ("observe_disabled_x10k", false, Hook::Observe),
        ("span_disabled_x10k", false, Hook::Span),
        ("trace_event_disabled_x10k", false, Hook::TraceEvent),
        ("observe_enabled_x10k", true, Hook::Observe),
    ];
    let n = variants.len();
    let mut best = vec![f64::INFINITY; n];
    for trial in 0..TRIALS {
        for k in 0..n {
            // Odd trials run the variants in reverse order.
            let v = if trial % 2 == 0 { k } else { n - 1 - k };
            let (_, metrics, hook) = variants[v];
            best[v] = best[v].min(run_ns(metrics, hook));
        }
    }
    let per_op = |ns: f64| (ns - best[0]) / CALLS as f64;
    for ((name, _, _), ns) in variants.iter().zip(&best) {
        println!(
            "metrics/{name}: {ns:.0} ns/run, {:.1} ns/op (minimum of {TRIALS} trials)",
            per_op(*ns)
        );
    }
    for (v, (name, metrics, _)) in variants.iter().enumerate().skip(1) {
        if !metrics {
            assert!(
                per_op(best[v]) < BUDGET_NS,
                "{name}: a disabled hook must stay under {BUDGET_NS} ns"
            );
        }
    }
    println!("disabled hooks: each under the {BUDGET_NS} ns budget");
    store_probe_cost();
}
