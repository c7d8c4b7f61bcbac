//! Proof that the metrics registry is zero-cost when absent: every `Ctx`
//! recording hook is gated on a plain bool captured at `Sim::run` and bails
//! without building any payload (the same gating discipline as the tracer's
//! enabled-check).
//!
//! The gate decides in-process, like `alloc_count` does: alternating timed
//! trials of a run with no hook calls and a run with 10 000 disabled
//! observes, compared by the **minimum** of each — load on the host only
//! ever adds time, while a hook that really costs 150 ns moves the minimum
//! too — and the bench aborts when a disabled `metric_observe` costs that
//! much. `ci.sh` runs it once.

use mpmd_sim::{Bucket, Fabric, Sim};
use std::time::Instant;

/// Hook calls per simulation run; large enough that the per-call cost
/// dominates the fixed `Sim` setup/teardown share.
const OBSERVES: u64 = 10_000;
/// Alternating trials per variant, and simulation runs timed in one trial.
const TRIALS: usize = 9;
const RUNS: u32 = 20;
/// What a disabled hook may cost, in nanoseconds per call.
const BUDGET_NS: f64 = 150.0;

/// Mean wall nanoseconds of one run that makes `observes` hook calls.
fn run_ns(metrics: bool, observes: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..RUNS {
        Sim::new(1).metrics(metrics).run(move |ctx| {
            for _ in 0..observes {
                ctx.metric_observe("bench.lat_ns", 53_000);
            }
            ctx.charge(Bucket::Cpu, 1);
        });
    }
    t0.elapsed().as_nanos() as f64 / RUNS as f64
}

fn main() {
    // [no hooks, 10k disabled observes, 10k enabled ones (for contrast)]
    let variants = [(false, 0), (false, OBSERVES), (true, OBSERVES)];
    let mut best = [f64::INFINITY; 3];
    for trial in 0..TRIALS {
        for k in 0..3 {
            // Odd trials run the variants in reverse order.
            let v = if trial % 2 == 0 { k } else { 2 - k };
            best[v] = best[v].min(run_ns(variants[v].0, variants[v].1));
        }
    }
    let [base, disabled, enabled] = best;
    let per_op = |ns: f64| (ns - base) / OBSERVES as f64;
    println!("metrics/no_hooks_baseline: {base:.0} ns/run (minimum of {TRIALS} trials)");
    println!("metrics/observe_disabled_x10k: {disabled:.0} ns/run");
    println!("metrics/observe_enabled_x10k: {enabled:.0} ns/run");
    println!(
        "disabled hook: {:.1} ns/op (budget {BUDGET_NS}); enabled: {:.1} ns/op",
        per_op(disabled),
        per_op(enabled)
    );
    assert!(
        per_op(disabled) < BUDGET_NS,
        "a disabled metric_observe must stay under {BUDGET_NS} ns"
    );
}
