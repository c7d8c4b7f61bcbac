//! Per-node Split-C runtime state.

use crate::costs::ScCosts;
use crate::handlers::SyncToken;
use mpmd_am::RegionTable;
use mpmd_fabric::Fabric;
use mpmd_sim::NodeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    pub(crate) pending: AtomicU64,
    /// One-way stores issued from this node (for `all_store_sync`).
    pub(crate) stores_sent: AtomicU64,
    /// One-way stores received by this node.
    pub(crate) stores_recvd: AtomicU64,
    /// Blocking accesses' tokens not in use (see [`SyncToken`]). Boxed
    /// because the box itself is what travels as the message token.
    #[allow(clippy::vec_box)]
    pub(crate) sync_tokens: NodeCell<Vec<Box<SyncToken>>>,
}

impl<F: Fabric> ScState<F> {
    fn new() -> Self {
        ScState {
            costs: ScCosts::default(),
            memory: RegionTable::default(),
            atomics: NodeCell::default(),
            pending: AtomicU64::new(0),
            stores_sent: AtomicU64::new(0),
            stores_recvd: AtomicU64::new(0),
            sync_tokens: NodeCell::default(),
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
    pub(crate) fn complete_pending(&self) {
        let before = self.pending.fetch_sub(1, Ordering::AcqRel);
        assert!(before > 0, "completion without outstanding operation");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "completion without outstanding operation")]
    fn a_completion_with_nothing_outstanding_panics() {
        ScState::<mpmd_sim::Ctx>::new().complete_pending();
    }
}
