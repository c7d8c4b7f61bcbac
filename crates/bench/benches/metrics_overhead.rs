//! Proof that instrumentation is zero-cost when off: a disabled
//! `metric_observe` bails on the cost model's `metrics` switch, and a
//! disabled `span(..)` guard or `trace_event` on the fabric's `tracing`
//! flag, without borrowing the node's probe or building any payload. All
//! three are the `Fabric` trait's own bodies, the same on every fabric.
//!
//! The gate decides in-process, like `alloc_count` does: alternating timed
//! trials of a run with no hook calls and runs with 10 000 disabled calls of
//! each hook, compared by the **minimum** of each — load on the host only
//! ever adds time, while a hook that really costs 150 ns moves the minimum
//! too — and the bench aborts when a disabled hook costs that much. `ci.sh`
//! runs it once.

use mpmd_sim::{Bucket, CostModel, Fabric, Sim, TraceEvent};
use std::hint::black_box;
use std::time::Instant;

/// Hook calls per simulation run; large enough that the per-call cost
/// dominates the fixed `Sim` setup/teardown share.
const CALLS: u64 = 10_000;
/// Alternating trials per variant, and simulation runs timed in one trial.
const TRIALS: usize = 9;
const RUNS: u32 = 20;
/// What a disabled hook may cost, in nanoseconds per call.
const BUDGET_NS: f64 = 150.0;

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
}
