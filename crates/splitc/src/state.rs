//! Per-node Split-C runtime state.

use crate::costs::ScCosts;
use mpmd_am::PendingCounter;
use mpmd_fabric::Fabric;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// An atomic RPC function: runs atomically at the target node.
pub type AtomicFn<F> = Arc<dyn Fn(&F, [u64; 4]) -> [u64; 4] + Send + Sync>;

pub(crate) struct ScState<F: Fabric> {
    pub(crate) costs: ScCosts,
    /// Registered global-memory regions (element type `f64`).
    pub(crate) regions: RwLock<HashMap<u32, Arc<RwLock<Vec<f64>>>>>,
    /// Collective region-id allocator (SPMD lockstep keeps nodes in sync).
    pub(crate) next_region: AtomicU64,
    /// Outstanding split-phase operations awaiting `sync()`.
    pub(crate) pending: Arc<PendingCounter>,
    /// Registered atomic RPC functions.
    pub(crate) atomics: RwLock<HashMap<u32, AtomicFn<F>>>,
    /// One-way stores issued from this node (for `all_store_sync`).
    pub(crate) stores_sent: AtomicU64,
    /// One-way stores received by this node.
    pub(crate) stores_recvd: AtomicU64,
    /// Reduction scratch (node 0 collects; everyone receives the release).
    pub(crate) reduce: Mutex<ReduceState>,
    /// Three-component atomic updates staged until the next barrier, where
    /// they commit in canonical order (see [`StagedAdds`]).
    pub(crate) staged: Mutex<StagedAdds>,
}

/// Atomic accumulate requests staged between barriers.
///
/// `H_ATOMIC_ADD3` does not touch memory at receipt: it records the update
/// here and the commit happens at barrier exit, sorted by (source node,
/// per-source arrival index). Floating-point addition does not commute
/// bitwise, so committing in arrival order would make results depend on how
/// messages from *different* senders interleave — which retransmission
/// timing perturbs once a fault model is active. The canonical order is a
/// function only of what each sender sent (per-sender order is preserved by
/// the AM layer, faults or not), so a faulty run reproduces the fault-free
/// result bit for bit.
#[derive(Default)]
pub(crate) struct StagedAdds {
    /// Per-source arrival counters.
    next_idx: HashMap<usize, u64>,
    /// (src, per-src index) -> (region, offset, three delta bit patterns).
    items: BTreeMap<(usize, u64), (u32, usize, [u64; 3])>,
}

impl StagedAdds {
    pub(crate) fn stage(&mut self, src: usize, region: u32, offset: usize, deltas: [u64; 3]) {
        let idx = self.next_idx.entry(src).or_insert(0);
        self.items.insert((src, *idx), (region, offset, deltas));
        *idx += 1;
    }

    /// Take everything staged so far, in canonical commit order.
    pub(crate) fn drain(&mut self) -> BTreeMap<(usize, u64), (u32, usize, [u64; 3])> {
        self.next_idx.clear();
        std::mem::take(&mut self.items)
    }
}

#[derive(Default)]
pub(crate) struct ReduceState {
    /// generation -> (op, per-source contribution bits)
    pub(crate) collect: HashMap<u64, (u64, BTreeMap<usize, u64>)>,
    /// latest released generation and value
    pub(crate) released: Option<(u64, u64)>,
    /// this node's reduction generation counter
    pub(crate) my_gen: u64,
}

impl<F: Fabric> ScState<F> {
    fn new() -> Self {
        ScState {
            costs: ScCosts::default(),
            regions: RwLock::new(HashMap::new()),
            next_region: AtomicU64::new(1),
            pending: PendingCounter::new(),
            atomics: RwLock::new(HashMap::new()),
            stores_sent: AtomicU64::new(0),
            stores_recvd: AtomicU64::new(0),
            reduce: Mutex::new(ReduceState::default()),
            staged: Mutex::new(StagedAdds::default()),
        }
    }

    pub(crate) fn get(ctx: &F) -> Arc<ScState<F>> {
        ctx.node_data(ScState::new)
    }

    /// The region storage for `(region)` on this node.
    pub(crate) fn region(&self, region: u32) -> Arc<RwLock<Vec<f64>>> {
        Arc::clone(
            self.regions
                .read()
                .get(&region)
                .unwrap_or_else(|| panic!("unknown Split-C region {region}")),
        )
    }
}
