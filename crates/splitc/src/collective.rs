//! Collective operations: initialization, allocation, barrier, reductions,
//! and `all_store_sync`.

use crate::gptr::SpreadArray;
use crate::handlers::register_handlers;
use crate::ops::register_builtin_atomics;
use crate::state::ScState;
use mpmd_am::{self as am, ReduceOp};
use mpmd_fabric::Fabric;
use std::sync::atomic::Ordering;

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
    ScState::get(ctx).memory.commit_staged(ctx);
}

/// Allocate a local region of `len` doubles initialized to `fill`, returning
/// its id. Region ids are allocated from a per-node counter; SPMD programs
/// allocate in lockstep so ids agree across nodes (asserted by
/// [`all_spread_alloc`]).
pub fn alloc_region<F: Fabric>(ctx: &F, len: usize, fill: f64) -> u32 {
    ScState::get(ctx).memory.alloc(ctx, len, fill)
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
/// nodes receive the combined result. AM's node-0 collective, the one the
/// barrier runs on.
pub fn reduce<F: Fabric>(ctx: &F, op: ReduceOp, value: u64) -> u64 {
    am::all_reduce(ctx, op, value)
}

/// Sum an `f64` across all nodes.
pub fn reduce_sum_f64<F: Fabric>(ctx: &F, value: f64) -> f64 {
    f64::from_bits(reduce(ctx, ReduceOp::SumF64, value.to_bits()))
}

/// Sum a `u64` across all nodes.
pub fn reduce_sum_u64<F: Fabric>(ctx: &F, value: u64) -> u64 {
    reduce(ctx, ReduceOp::SumU64, value)
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
