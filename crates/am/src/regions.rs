//! A node's global memory, shared by both language runtimes: `f64` regions
//! by id, and remote accumulates staged until the next barrier.
//!
//! Each runtime's per-node state owns one [`RegionTable`]; a region id names
//! a region within one runtime on one node. SPMD programs allocate in
//! lockstep, so the ids agree across nodes.

use mpmd_fabric::Fabric;
use mpmd_sim::NodeCell;
use std::collections::BTreeMap;

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

#[derive(Default)]
struct Regions {
    /// Region `id` is entry `id - 1`: ids start at 1 and regions are never
    /// freed.
    regions: Vec<Vec<f64>>,
    /// Per source node, its staged accumulates in arrival order.
    staged: BTreeMap<usize, Vec<StagedAdd>>,
}

impl Regions {
    fn region(&mut self, id: u32) -> &mut Vec<f64> {
        (id as usize)
            .checked_sub(1)
            .and_then(|i| self.regions.get_mut(i))
            .unwrap_or_else(|| panic!("unknown region {id}"))
    }
}

/// The regions of one runtime on one node, and the accumulates staged into
/// them, in one [`NodeCell`]: the node's own tasks are the only ones that
/// touch them, a served remote access included (its handler runs on the
/// owner).
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
    cell: NodeCell<Regions>,
}

impl RegionTable {
    /// Allocate a region of `len` doubles set to `fill`, returning its id.
    pub fn alloc<F: Fabric>(&self, ctx: &F, len: usize, fill: f64) -> u32 {
        self.cell.with(ctx, |t| {
            t.regions.push(vec![fill; len]);
            t.regions.len() as u32
        })
    }

    /// Run `f` over region `id`'s storage. Panics if there is no such
    /// region, and if `f` reaches this table again (the table is one
    /// [`NodeCell`]).
    pub fn with<F: Fabric, R>(&self, ctx: &F, id: u32, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        self.cell.with(ctx, |t| f(t.region(id)))
    }

    /// Stage the addition of `deltas` (one to three `f64` bit patterns) to
    /// the doubles at `offset..` of `region`, as received from `src`.
    pub fn stage_add<F: Fabric>(
        &self,
        ctx: &F,
        src: usize,
        region: u32,
        offset: usize,
        deltas: &[u64],
    ) {
        let mut add = StagedAdd {
            region,
            offset,
            deltas: [0; 3],
            n: deltas.len(),
        };
        add.deltas[..deltas.len()].copy_from_slice(deltas);
        self.cell
            .with(ctx, |t| t.staged.entry(src).or_default().push(add));
    }

    /// Apply everything staged so far, in (source, per-source index) order.
    pub fn commit_staged<F: Fabric>(&self, ctx: &F) {
        self.cell.with(ctx, |t| {
            for add in std::mem::take(&mut t.staged).into_values().flatten() {
                let w = t.region(add.region);
                for (k, d) in add.deltas[..add.n].iter().enumerate() {
                    w[add.offset + k] += f64::from_bits(*d);
                }
            }
        });
    }
}
