//! Per-node Split-C runtime state.

use crate::costs::ScCosts;
use mpmd_am::{CallRecords, RegionTable};
use mpmd_fabric::Fabric;
use mpmd_sim::{Counter, NodeCell};
use std::collections::HashMap;
use std::sync::Arc;

/// An atomic RPC function: runs atomically at the target node.
pub type AtomicFn<F> = Arc<dyn Fn(&F, [u64; 4]) -> [u64; 4] + Send + Sync>;

pub(crate) struct ScState<F: Fabric> {
    pub(crate) costs: ScCosts,
    /// Global-memory regions, and the `H_ATOMIC_ADD3` updates staged into
    /// them until the next barrier.
    pub(crate) memory: RegionTable,
    /// Registered atomic RPC functions.
    pub(crate) atomics: NodeCell<HashMap<u32, AtomicFn<F>>>,
    /// Outstanding split-phase operations awaiting `sync()`.
    pub(crate) pending: NodeCell<u64>,
    /// One-way stores issued from this node (for `all_store_sync`).
    pub(crate) stores_sent: Counter,
    /// One-way stores received by this node.
    pub(crate) stores_recvd: Counter,
    /// Blocking accesses' call records not in use (see [`crate::ops`]); a
    /// callee touches nothing of them.
    pub(crate) records: CallRecords<()>,
}

impl<F: Fabric> ScState<F> {
    fn new() -> Self {
        ScState {
            costs: ScCosts::default(),
            memory: RegionTable::default(),
            atomics: NodeCell::default(),
            pending: NodeCell::default(),
            stores_sent: Counter::default(),
            stores_recvd: Counter::default(),
            records: CallRecords::default(),
        }
    }

    pub(crate) fn get(ctx: &F) -> &ScState<F> {
        ctx.node_data(ScState::new)
    }

    /// Registered atomic function `id`.
    pub(crate) fn atomic(&self, ctx: &F, id: u32) -> AtomicFn<F> {
        let f = self.atomics.with(ctx, |tbl| tbl.get(&id).cloned());
        f.unwrap_or_else(|| panic!("unknown atomic function {id}"))
    }

    /// Note the completion of a split-phase operation (its reply arrived).
    pub(crate) fn complete_pending(&self, ctx: &F) {
        self.pending.with(ctx, |pending| {
            assert!(*pending > 0, "completion without outstanding operation");
            *pending -= 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "completion without outstanding operation")]
    fn a_completion_with_nothing_outstanding_panics() {
        mpmd_sim::Sim::new(1).run(|ctx| ScState::get(&ctx).complete_pending(&ctx));
    }
}
