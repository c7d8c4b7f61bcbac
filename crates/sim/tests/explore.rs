//! Engine-level schedule exploration: perturbing every don't-care decision
//! point through a [`TraceOracle`] must leave a deterministic program's
//! observable result — final clocks and per-node stats — untouched, and a
//! recorded decision trace must replay byte-for-byte.
//!
//! These tests run the raw `Ctx` API (no AM layer) so failures localize to
//! the engine: tie-break choices in `decide()`, same-time event application
//! order, and forced slow-path detours in `yield_now`/`poll_point`. Every
//! run here also exercises the kernel's baton-holder check.

use mpmd_sim::{Bucket, Ctx, Fabric, OracleSpec, Payload, Sim, TraceOracle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 3;
const MSGS: u64 = 16;

/// A tie-heavy deterministic workload: all nodes do identical work, so
/// runnable-node ties and same-time cross-node events occur constantly;
/// a yielding sibling task exercises ready-queue order and the fast-path
/// skip in `yield_now`; the receive loop exercises `poll_point` and inbox
/// parking. Each node folds its received payloads into `sums[node]`.
fn workload(ctx: &Ctx, sums: &Arc<Vec<AtomicU64>>) {
    let me = ctx.node();
    let t = ctx.spawn("sibling", |c| {
        for _ in 0..8 {
            c.charge(Bucket::Cpu, 10);
            c.yield_now();
        }
    });
    for i in 0..MSGS {
        let dst = (me + 1) % NODES;
        ctx.send_msg(dst, 8, 1_000, Payload::any(me as u64 * 1_000 + i));
        ctx.charge(Bucket::Cpu, 25);
        ctx.poll_point();
    }
    ctx.join(t);
    let mut got = 0u64;
    while got < MSGS {
        match ctx.try_recv() {
            Some(m) => {
                let v = *m.payload.downcast::<u64>().expect("u64 payload");
                sums[me].fetch_add(v, Ordering::SeqCst);
                got += 1;
            }
            None => ctx.park_for_inbox(),
        }
    }
}

/// The expected per-node payload sum: node `me` receives `MSGS` messages
/// from its left neighbour `l`, valued `l*1000 + i`.
fn expected_sum(me: usize) -> u64 {
    let l = (me + NODES - 1) % NODES;
    (0..MSGS).map(|i| l as u64 * 1_000 + i).sum()
}

/// Run the workload, optionally perturbed, returning the comparable
/// observables (clocks, stats, per-node sums).
fn run(oracle: Option<Box<TraceOracle>>) -> (Vec<u64>, Vec<mpmd_sim::Stats>, Vec<u64>) {
    let sums: Arc<Vec<AtomicU64>> = Arc::new((0..NODES).map(|_| AtomicU64::new(0)).collect());
    let s2 = Arc::clone(&sums);
    let mut sim = Sim::new(NODES);
    if let Some(o) = oracle {
        sim = sim.schedule_oracle(o);
    }
    let r = sim.run(move |ctx| workload(&ctx, &s2));
    let out: Vec<u64> = sums.iter().map(|a| a.load(Ordering::SeqCst)).collect();
    (r.clocks, r.stats, out)
}

#[test]
fn unperturbed_run_is_reproducible_and_correct() {
    let a = run(None);
    let b = run(None);
    assert_eq!(a, b);
    for me in 0..NODES {
        assert_eq!(a.2[me], expected_sum(me), "node {me} payload sum");
    }
}

/// The tentpole invariant at engine granularity: every seeded perturbation
/// of node ties, event ties, and forced slow paths leaves clocks, stats,
/// and application sums identical to the unperturbed run.
#[test]
fn result_is_invariant_under_full_perturbation() {
    let base = run(None);
    for seed in 0..24u64 {
        let (o, rec) = TraceOracle::seeded(OracleSpec::full(seed));
        let got = run(Some(o));
        assert_eq!(
            got,
            base,
            "seed {seed} perturbed the result (trace: {:?})",
            rec.decisions()
        );
        assert!(
            !rec.decisions().is_empty(),
            "seed {seed} never hit a decision point — workload lost its ties"
        );
    }
}

/// A recorded decision trace replayed positionally reproduces the run —
/// the property that makes shrunk corpus traces trustworthy.
#[test]
fn recorded_trace_replays_identically() {
    for seed in [3u64, 11, 42] {
        let spec = OracleSpec::full(seed);
        let (o, rec) = TraceOracle::seeded(spec);
        let first = run(Some(o));
        let trace = rec.decisions();
        let (o2, rec2) = TraceOracle::replay(spec, trace.clone());
        let second = run(Some(o2));
        assert_eq!(first, second, "seed {seed} replay diverged");
        assert_eq!(
            trace,
            rec2.decisions(),
            "seed {seed} re-recorded trace differs"
        );
    }
}

/// Forcing EVERY fast-path skip into the slow detour (slow_period = 1,
/// ties untouched) must be result-invisible: the detour re-enqueues the
/// task without charging or reordering anything observable.
#[test]
fn forced_slow_paths_are_result_invisible() {
    let base = run(None);
    let spec = OracleSpec {
        seed: 9,
        node_ties: false,
        event_ties: false,
        slow_period: 1,
    };
    let (o, rec) = TraceOracle::seeded(spec);
    let got = run(Some(o));
    assert_eq!(got, base);
    assert!(
        rec.decisions().iter().any(|&d| d != 0),
        "slow_period=1 must actually force detours"
    );
}

/// Widening task waves under an active oracle: a 74-wide wave, then
/// 300-wide ones that run on its recycled fiber stacks plus fresh ones, and
/// a second run that starts on the stacks the first handed to the
/// process-wide spare list. Stack recycling plus schedule perturbation must
/// still match the unperturbed run bit-for-bit.
#[test]
fn widening_task_waves_under_perturbation() {
    fn storm(ctx: &Ctx) {
        for (wave, width) in [74, 300, 300].into_iter().enumerate() {
            let wave = wave as u64;
            let tasks: Vec<_> = (0..width)
                .map(|i| {
                    ctx.spawn("storm", move |c| {
                        c.charge(Bucket::Cpu, wave * 7 + (i % 5) + 1);
                        c.yield_now();
                    })
                })
                .collect();
            for t in tasks {
                ctx.join(t);
            }
        }
    }
    let go = |oracle: Option<Box<TraceOracle>>| {
        let mut sim = Sim::new(2);
        if let Some(o) = oracle {
            sim = sim.schedule_oracle(o);
        }
        let r = sim.run(|ctx| {
            if ctx.node() == 0 {
                storm(&ctx);
            }
        });
        (r.clocks, r.stats)
    };
    let base = go(None);
    for seed in 0..4u64 {
        for run in ["first", "second"] {
            let (o, _) = TraceOracle::seeded(OracleSpec::full(seed));
            assert_eq!(go(Some(o)), base, "seed {seed}, {run} run");
        }
    }
}
