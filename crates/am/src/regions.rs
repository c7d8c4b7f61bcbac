//! A node's global memory, shared by both language runtimes: `f64` regions
//! by id, and remote accumulates staged until the next barrier.
//!
//! Each runtime's per-node state owns one [`RegionTable`]; a region id names
//! a region within one runtime on one node. SPMD programs allocate in
//! lockstep, so the ids agree across nodes.

use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One region's storage.
pub type Region = Arc<RwLock<Vec<f64>>>;

/// Pack a (region, offset) pair into one argument word, leaving the other
/// three words of a 4-word message for data (a three-component atomic
/// update).
pub fn pack_addr(region: u32, offset: usize) -> u64 {
    assert!(region < (1 << 24), "region id too large to pack");
    assert!(offset < (1 << 40), "offset too large to pack");
    ((region as u64) << 40) | offset as u64
}

/// Inverse of [`pack_addr`].
pub fn unpack_addr(word: u64) -> (u32, usize) {
    ((word >> 40) as u32, (word & ((1 << 40) - 1)) as usize)
}

/// One staged accumulate: `n` deltas added to consecutive doubles.
struct StagedAdd {
    region: u32,
    offset: usize,
    deltas: [u64; 3],
    n: usize,
}

/// The regions of one runtime on one node, and the accumulates staged into
/// them.
///
/// An accumulate handler does not touch memory at receipt: it stages the
/// update, and the barrier exit commits everything staged, sorted by
/// (source node, per-source arrival index). Floating-point addition does not
/// commute bitwise, so committing in arrival order would make results depend
/// on how messages from *different* senders interleave, which retransmission
/// timing perturbs once a fault model is active. The canonical order depends
/// only on what each sender sent (per-sender order is preserved, faults or
/// not), so a faulty run reproduces the fault-free result bit for bit.
#[derive(Default)]
pub struct RegionTable {
    /// Region `id` is entry `id - 1`: ids start at 1 and regions are never
    /// freed.
    regions: RwLock<Vec<Region>>,
    /// Per source node, its staged accumulates in arrival order.
    staged: Mutex<BTreeMap<usize, Vec<StagedAdd>>>,
}

impl RegionTable {
    /// Allocate a region of `len` doubles set to `fill`, returning its id.
    pub fn alloc(&self, len: usize, fill: f64) -> u32 {
        let mut regions = self.regions.write();
        regions.push(Arc::new(RwLock::new(vec![fill; len])));
        regions.len() as u32
    }

    /// Region `id`. Panics if there is none.
    pub fn get(&self, id: u32) -> Region {
        let regions = self.regions.read();
        let region = (id as usize)
            .checked_sub(1)
            .and_then(|i| regions.get(i))
            .unwrap_or_else(|| panic!("unknown region {id}"));
        Arc::clone(region)
    }

    /// Run `f` over region `id`'s storage.
    pub fn with_mut<R>(&self, id: u32, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        f(&mut self.get(id).write())
    }

    /// Stage the addition of `deltas` (one to three `f64` bit patterns) to
    /// the doubles at `offset..` of `region`, as received from `src`.
    pub fn stage_add(&self, src: usize, region: u32, offset: usize, deltas: &[u64]) {
        let mut add = StagedAdd {
            region,
            offset,
            deltas: [0; 3],
            n: deltas.len(),
        };
        add.deltas[..deltas.len()].copy_from_slice(deltas);
        self.staged.lock().entry(src).or_default().push(add);
    }

    /// Apply everything staged so far, in (source, per-source index) order.
    pub fn commit_staged(&self) {
        let staged = std::mem::take(&mut *self.staged.lock());
        for add in staged.into_values().flatten() {
            let region = self.get(add.region);
            let mut w = region.write();
            for (k, d) in add.deltas[..add.n].iter().enumerate() {
                w[add.offset + k] += f64::from_bits(*d);
            }
        }
    }
}
