//! Collective operations: initialization, allocation, barrier, reductions,
//! and `all_store_sync`.

use crate::gptr::SpreadArray;
use crate::handlers::{register_handlers, H_REDUCE, H_REDUCE_RELEASE};
use crate::ops::register_builtin_atomics;
use crate::state::ScState;
use mpmd_am as am;
use mpmd_fabric::Fabric;
use std::sync::atomic::Ordering;

/// Reduction operators (encoded on the wire).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    SumU64 = 0,
    SumF64 = 1,
    MaxU64 = 2,
}

/// Initialize the Split-C runtime on this node: AM endpoint (Split-C
/// profile), barrier and runtime handlers, built-in atomics. Collective —
/// every node must call it before any communication; ends with a barrier.
pub fn init<F: Fabric>(ctx: &F) {
    init_coalesced(ctx, None);
}

/// [`init`] with optional per-destination message coalescing: short AMs
/// (stores, split-phase issues, reduction traffic) aggregate into one wire
/// frame per destination, flushed at every poll and buffer bound. `None`
/// behaves exactly like [`init`].
pub fn init_coalesced<F: Fabric>(ctx: &F, coalescing: Option<am::CoalesceConfig>) {
    am::init(ctx, am::NetProfile::sp_am_splitc());
    if let Some(cfg) = coalescing {
        am::enable_coalescing(ctx, cfg);
    }
    am::register_barrier_handlers(ctx);
    register_handlers(ctx);
    register_builtin_atomics(ctx);
    am::barrier(ctx);
}

/// Global barrier. On exit, commits all atomic accumulates staged by
/// `H_ATOMIC_ADD3` since the previous barrier, in canonical order. Every
/// staged update was acknowledged before its issuer entered the barrier, so
/// the set is complete here. The commit costs nothing: the work was charged
/// at receipt (`atomic_dispatch`).
pub fn barrier<F: Fabric>(ctx: &F) {
    am::barrier(ctx);
    ScState::get(ctx).memory.commit_staged();
}

/// Allocate a local region of `len` doubles initialized to `fill`, returning
/// its id. Region ids are allocated from a per-node counter; SPMD programs
/// allocate in lockstep so ids agree across nodes (asserted by
/// [`all_spread_alloc`]).
pub fn alloc_region<F: Fabric>(ctx: &F, len: usize, fill: f64) -> u32 {
    ScState::get(ctx).memory.alloc(len, fill)
}

/// Collectively allocate a spread array with `per_node` doubles on every
/// node. Asserts that all nodes agreed on the region id.
pub fn all_spread_alloc<F: Fabric>(ctx: &F, per_node: usize, fill: f64) -> SpreadArray {
    let id = alloc_region(ctx, per_node, fill);
    let max = reduce(ctx, ReduceOp::MaxU64, id as u64);
    assert_eq!(
        max,
        id as u64,
        "collective allocation out of lockstep (node {} got region {id}, max {max})",
        ctx.node()
    );
    SpreadArray {
        region: id,
        per_node,
        nodes: ctx.nodes(),
    }
}

/// All-reduce: every node contributes `value` (raw bits for `SumF64`); all
/// nodes receive the combined result. Centralized at node 0, like the
/// barrier.
pub fn reduce<F: Fabric>(ctx: &F, op: ReduceOp, value: u64) -> u64 {
    let st = ScState::get(ctx);
    let gen = {
        let mut red = st.reduce.lock();
        red.my_gen += 1;
        red.my_gen
    };
    if ctx.node() == 0 {
        note_reduce_arrival(ctx, 0, gen, value, op as u64);
    } else {
        am::endpoint(ctx)
            .to(0)
            .handler(H_REDUCE)
            .args([gen, value, op as u64, 0])
            .send();
    }
    am::wait_until(ctx, || {
        st.reduce.lock().released.is_some_and(|(g, _)| g >= gen)
    });
    let red = st.reduce.lock();
    let (g, v) = red.released.expect("reduction vanished");
    assert_eq!(g, gen, "overlapping reductions");
    v
}

/// Sum an `f64` across all nodes.
pub fn reduce_sum_f64<F: Fabric>(ctx: &F, value: f64) -> f64 {
    f64::from_bits(reduce(ctx, ReduceOp::SumF64, value.to_bits()))
}

/// Sum a `u64` across all nodes.
pub fn reduce_sum_u64<F: Fabric>(ctx: &F, value: u64) -> u64 {
    reduce(ctx, ReduceOp::SumU64, value)
}

/// Record one reduction arrival on node 0; release everyone when complete.
/// Also invoked by the `H_REDUCE` handler.
///
/// Contributions are collected per source and folded in ascending node
/// order only once all have arrived. An arrival-order fold would make the
/// `SumF64` rounding depend on message interleaving across senders; the
/// canonical fold gives the same bits on every schedule, including under
/// injected wire faults.
pub(crate) fn note_reduce_arrival<F: Fabric>(ctx: &F, src: usize, gen: u64, value: u64, op: u64) {
    debug_assert_eq!(ctx.node(), 0);
    let complete = {
        let mut red = ScState::get(ctx).reduce.lock();
        let entry = red
            .collect
            .entry(gen)
            .or_insert_with(|| (op, std::collections::BTreeMap::new()));
        assert_eq!(entry.0, op, "mixed ops within reduction {gen}");
        let prev = entry.1.insert(src, value);
        assert!(
            prev.is_none(),
            "node {src} contributed twice to reduction {gen}"
        );
        if entry.1.len() == ctx.nodes() {
            let (_, vals) = red
                .collect
                .remove(&gen)
                .expect("reduction vanished mid-fold");
            let total = match op {
                o if o == ReduceOp::SumU64 as u64 => {
                    vals.values().fold(0u64, |acc, &v| acc.wrapping_add(v))
                }
                o if o == ReduceOp::SumF64 as u64 => vals
                    .values()
                    .fold(0f64, |acc, &v| acc + f64::from_bits(v))
                    .to_bits(),
                o if o == ReduceOp::MaxU64 as u64 => vals.values().fold(0u64, |acc, &v| acc.max(v)),
                _ => panic!("unknown reduction op {op}"),
            };
            red.released = Some((gen, total));
            Some(total)
        } else {
            None
        }
    };
    if let Some(total) = complete {
        let ep = am::endpoint(ctx);
        for n in 1..ctx.nodes() {
            ep.to(n)
                .handler(H_REDUCE_RELEASE)
                .args([gen, total, 0, 0])
                .send();
        }
    }
}

/// Wait until every one-way store issued by *any* node has been performed:
/// repeatedly all-reduce (sent, received) totals until they agree. Subsumes a
/// barrier.
pub fn all_store_sync<F: Fabric>(ctx: &F) {
    let st = ScState::get(ctx);
    loop {
        let sent = reduce_sum_u64(ctx, st.stores_sent.load(Ordering::Acquire));
        let recvd = reduce_sum_u64(ctx, st.stores_recvd.load(Ordering::Acquire));
        if sent == recvd {
            return;
        }
        // Not yet quiescent: in-flight stores will be delivered while the
        // next round of reductions runs (each reduction is itself a global
        // message exchange, so virtual time always advances).
        am::poll(ctx);
    }
}
