//! The node-0 collective: a global all-reduce built from short active
//! messages, and the barrier, which is the all-reduce with no value.
//!
//! Centralized algorithm: every node sends an *arrive* message (its
//! collective generation, its value and the operator) to node 0; when node 0
//! has seen all arrivals of a generation it folds the values and sends a
//! *release* carrying the result to every node. Waiting spin-polls, so a
//! collective costs no thread operations — matching Split-C's `barrier()` on
//! a single-threaded node. The experiment harnesses also use the barrier to
//! quiesce the machine around measured regions. Every node must enter the
//! same collectives in the same order; a reduction traces as a barrier.

use crate::endpoint::endpoint;
use crate::ops::wait_until;
use crate::state::{register, AmState, HandlerId};
use crate::AmMsg;
use mpmd_fabric::Fabric;
use mpmd_sim::TraceEvent;
use std::collections::{BTreeMap, HashMap};

/// Handler ids reserved by the AM layer itself.
pub const H_BARRIER_ARRIVE: HandlerId = 1;
pub const H_BARRIER_RELEASE: HandlerId = 2;

/// Reduction operators (encoded on the wire).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    SumU64 = 0,
    SumF64 = 1,
    MaxU64 = 2,
}

/// The wire code of a barrier: an all-reduce with no value.
const NO_VALUE: u64 = 3;

/// Per-node collective state (inside [`AmState`]).
#[derive(Default)]
pub(crate) struct Collective {
    /// This node's latest generation: one per collective it entered.
    my_gen: u64,
    /// Node 0 only: generation -> (op, per-source contribution bits).
    collect: HashMap<u64, (u64, BTreeMap<usize, u64>)>,
    /// The latest released generation and its value.
    released: Option<(u64, u64)>,
}

/// Register the collective's handlers on this node. Called from runtime
/// initialization (`splitc::init` / `ccxx` startup) on every node.
pub fn register_barrier_handlers<F: Fabric>(ctx: &F) {
    register(ctx, H_BARRIER_ARRIVE, |ctx: &F, m: AmMsg| {
        note_arrival(ctx, m.src, m.args);
    });
    register(ctx, H_BARRIER_RELEASE, |ctx: &F, m: AmMsg| {
        let released = Some((m.args[0], m.args[1]));
        AmState::get(ctx)
            .collective
            .with(ctx, |co| co.released = released);
    });
}

/// Record one arrival `[gen, value, op, _]` from `src` on node 0; release
/// everyone when complete.
///
/// Contributions are collected per source and folded in ascending node
/// order only once all have arrived. An arrival-order fold would make the
/// `SumF64` rounding depend on message interleaving across senders; the
/// canonical fold gives the same bits on every schedule, including under
/// injected wire faults.
fn note_arrival<F: Fabric>(ctx: &F, src: usize, [gen, value, op, _]: [u64; 4]) {
    debug_assert_eq!(ctx.node(), 0, "collective arrivals are collected on node 0");
    let total = AmState::get(ctx).collective.with(ctx, |co| {
        let (entry_op, vals) = co
            .collect
            .entry(gen)
            .or_insert_with(|| (op, BTreeMap::new()));
        assert_eq!(*entry_op, op, "mixed ops within reduction {gen}");
        let prev = vals.insert(src, value);
        assert!(
            prev.is_none(),
            "node {src} contributed twice to reduction {gen}"
        );
        if vals.len() < ctx.nodes() {
            return None;
        }
        let (_, vals) = co
            .collect
            .remove(&gen)
            .expect("reduction vanished mid-fold");
        let vals = vals.into_values();
        let total = match op {
            NO_VALUE => 0,
            o if o == ReduceOp::SumU64 as u64 => vals.fold(0, u64::wrapping_add),
            o if o == ReduceOp::SumF64 as u64 => {
                vals.fold(0f64, |acc, v| acc + f64::from_bits(v)).to_bits()
            }
            o if o == ReduceOp::MaxU64 as u64 => vals.fold(0, u64::max),
            _ => panic!("unknown reduction op {op}"),
        };
        co.released = Some((gen, total));
        Some(total)
    });
    let Some(total) = total else { return };
    let ep = endpoint(ctx);
    for n in 1..ctx.nodes() {
        ep.to(n)
            .handler(H_BARRIER_RELEASE)
            .args([gen, total, 0, 0])
            .send();
    }
}

/// Enter a collective with `op`'s wire code and this node's `value`; return
/// the fold once every node has entered it.
fn collective<F: Fabric>(ctx: &F, op: u64, value: u64) -> u64 {
    let st = AmState::get(ctx);
    let gen = st.collective.with(ctx, |co| {
        co.my_gen += 1;
        co.my_gen
    });
    ctx.trace_event(|| TraceEvent::BarrierEnter { epoch: gen });
    let span = ctx.span("am.barrier");
    let args = [gen, value, op, 0];
    if ctx.node() == 0 {
        note_arrival(ctx, 0, args);
    } else {
        endpoint(ctx)
            .to(0)
            .handler(H_BARRIER_ARRIVE)
            .args(args)
            .send();
    }
    let released = || st.collective.with(ctx, |co| co.released);
    wait_until(ctx, || released().is_some_and(|(g, _)| g >= gen));
    let (g, total) = released().expect("release vanished");
    assert_eq!(g, gen, "overlapping reductions");
    drop(span);
    ctx.trace_event(|| TraceEvent::BarrierExit { epoch: gen });
    total
}

/// Enter the barrier and wait until all nodes have entered it.
pub fn barrier<F: Fabric>(ctx: &F) {
    collective(ctx, NO_VALUE, 0);
}

/// All-reduce: every node contributes `value` (raw bits for
/// [`ReduceOp::SumF64`]); all nodes receive the combined result.
pub fn all_reduce<F: Fabric>(ctx: &F, op: ReduceOp, value: u64) -> u64 {
    collective(ctx, op as u64, value)
}
