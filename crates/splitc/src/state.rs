//! Per-node Split-C runtime state.

use crate::costs::ScCosts;
use mpmd_am::{PendingCounter, RegionTable};
use mpmd_fabric::Fabric;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// An atomic RPC function: runs atomically at the target node.
pub type AtomicFn<F> = Arc<dyn Fn(&F, [u64; 4]) -> [u64; 4] + Send + Sync>;

pub(crate) struct ScState<F: Fabric> {
    pub(crate) costs: ScCosts,
    /// Global-memory regions, and the `H_ATOMIC_ADD3` updates staged into
    /// them until the next barrier.
    pub(crate) memory: RegionTable,
    /// Outstanding split-phase operations awaiting `sync()`.
    pub(crate) pending: PendingCounter,
    /// Registered atomic RPC functions.
    pub(crate) atomics: RwLock<HashMap<u32, AtomicFn<F>>>,
    /// One-way stores issued from this node (for `all_store_sync`).
    pub(crate) stores_sent: AtomicU64,
    /// One-way stores received by this node.
    pub(crate) stores_recvd: AtomicU64,
}

impl<F: Fabric> ScState<F> {
    fn new() -> Self {
        ScState {
            costs: ScCosts::default(),
            memory: RegionTable::default(),
            pending: PendingCounter::default(),
            atomics: RwLock::new(HashMap::new()),
            stores_sent: AtomicU64::new(0),
            stores_recvd: AtomicU64::new(0),
        }
    }

    pub(crate) fn get(ctx: &F) -> &ScState<F> {
        ctx.node_data(ScState::new)
    }

    /// Registered atomic function `id`.
    pub(crate) fn atomic(&self, id: u32) -> AtomicFn<F> {
        let tbl = self.atomics.read();
        let f = tbl.get(&id);
        Arc::clone(f.unwrap_or_else(|| panic!("unknown atomic function {id}")))
    }
}
