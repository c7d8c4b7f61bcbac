//! Split-C access primitives: synchronous, split-phase, one-way and bulk.
//!
//! All waiting is spin-polling ("polling is generally very cheap and can
//! yield low latencies if executed often enough. This approach is used in
//! Split-C"), so none of these operations charge thread operations — a
//! Split-C node is single-threaded.

use crate::gptr::GlobalPtr;
use crate::handlers::*;
use crate::state::ScState;
use mpmd_am::{self as am, ReplyCell};
use mpmd_fabric::Fabric;
use mpmd_sim::Bucket;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Built-in atomic function ids.
pub const ATOMIC_NULL: u32 = 0;
pub const ATOMIC_ADD_F64: u32 = 1;
pub const ATOMIC_ADD3_F64: u32 = 2;

/// Pack a (region, offset) pair into one AM argument word (Water's
/// three-component atomic update needs all remaining words for deltas).
pub fn pack_addr(region: u32, offset: usize) -> u64 {
    assert!(region < (1 << 24), "region id too large to pack");
    assert!(offset < (1 << 40), "offset too large to pack");
    ((region as u64) << 40) | offset as u64
}

/// Inverse of [`pack_addr`].
pub fn unpack_addr(word: u64) -> (u32, usize) {
    ((word >> 40) as u32, (word & ((1 << 40) - 1)) as usize)
}

/// Synchronously read a double through a global pointer (`lx = *gpY`).
pub fn read<F: Fabric>(ctx: &F, gp: GlobalPtr) -> f64 {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let v = region.read()[gp.offset];
        return v;
    }
    let _sp = ctx.span("sc.read");
    // End-to-end latency of the blocking access, issue to value-in-hand.
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, st.costs.sync_access_issue);
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_READ)
        .args([gp.region as u64, gp.offset as u64, 0, 0])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: None,
            issued: None,
        }) as am::Token)
        .send();
    let c2 = Arc::clone(&cell);
    am::wait_until(ctx, move || c2.is_done());
    ctx.charge(Bucket::Runtime, st.costs.sync_access_complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since("sc.sync_read_ns", t0);
    }
    f64::from_bits(cell.words()[0])
}

/// Synchronously write a double through a global pointer (`*gpY = lx`).
pub fn write<F: Fabric>(ctx: &F, gp: GlobalPtr, v: f64) {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        region.write()[gp.offset] = v;
        return;
    }
    let _sp = ctx.span("sc.write");
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, st.costs.sync_access_issue);
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_WRITE)
        .args([gp.region as u64, gp.offset as u64, v.to_bits(), 0])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: None,
            issued: None,
        }) as am::Token)
        .send();
    let c2 = Arc::clone(&cell);
    am::wait_until(ctx, move || c2.is_done());
    ctx.charge(Bucket::Runtime, st.costs.sync_access_complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since("sc.sync_write_ns", t0);
    }
}

/// Synchronously read three consecutive doubles through a global pointer
/// with a single small request/reply (they fit in the reply's four words) —
/// Water reads a molecule's position this way.
pub fn read_vec3<F: Fabric>(ctx: &F, gp: GlobalPtr) -> [f64; 3] {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let r = region.read();
        return [r[gp.offset], r[gp.offset + 1], r[gp.offset + 2]];
    }
    let _sp = ctx.span("sc.read_vec3");
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, st.costs.sync_access_issue);
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_READ3)
        .args([gp.region as u64, gp.offset as u64, 0, 0])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: None,
            issued: None,
        }) as am::Token)
        .send();
    let c2 = Arc::clone(&cell);
    am::wait_until(ctx, move || c2.is_done());
    ctx.charge(Bucket::Runtime, st.costs.sync_access_complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since("sc.sync_read_ns", t0);
    }
    let w = cell.words();
    [
        f64::from_bits(w[0]),
        f64::from_bits(w[1]),
        f64::from_bits(w[2]),
    ]
}

/// Atomically add three deltas to three consecutive doubles at `gp`
/// (Water's force write-back), waiting for the acknowledgement. A single
/// 4-word request: the dedicated handler implies the operation, so the
/// packed address plus all three deltas fit.
pub fn atomic_add3<F: Fabric>(ctx: &F, gp: GlobalPtr, deltas: [f64; 3]) {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let mut w = region.write();
        for k in 0..3 {
            w[gp.offset + k] += deltas[k];
        }
        return;
    }
    let _sp = ctx.span("sc.atomic_add3");
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, st.costs.atomic_issue);
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(crate::handlers::H_ATOMIC_ADD3)
        .args([
            pack_addr(gp.region, gp.offset),
            deltas[0].to_bits(),
            deltas[1].to_bits(),
            deltas[2].to_bits(),
        ])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: None,
            issued: None,
        }) as am::Token)
        .send();
    let c2 = Arc::clone(&cell);
    am::wait_until(ctx, move || c2.is_done());
    ctx.charge(Bucket::Runtime, st.costs.atomic_complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since("sc.atomic_ns", t0);
    }
}

/// Handle to a split-phase bulk read; data is available after [`sync`].
pub struct BulkGetHandle {
    cell: Arc<ReplyCell>,
    local: Option<Vec<f64>>,
}

impl BulkGetHandle {
    /// The fetched values. Panics before completion (call [`sync`] first).
    pub fn values(&self) -> Vec<f64> {
        if let Some(v) = &self.local {
            return v.clone();
        }
        doubles(
            &self
                .cell
                .take_data()
                .expect("bulk get not complete — call sync() first"),
        )
    }

    pub fn is_done(&self) -> bool {
        self.local.is_some() || self.cell.is_done()
    }
}

/// Split-phase bulk read of `len` doubles (sc-lu "prefetches all blocks
/// before beginning the third sub-step").
pub fn get_bulk<F: Fabric>(ctx: &F, gp: GlobalPtr, len: usize) -> BulkGetHandle {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let r = region.read();
        return BulkGetHandle {
            cell: ReplyCell::new(),
            local: Some(r[gp.offset..gp.offset + len].to_vec()),
        };
    }
    let _sp = ctx.span("sc.get_bulk");
    ctx.charge(Bucket::Runtime, st.costs.bulk_issue);
    st.pending.issue();
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_BULK_READ)
        .args([gp.region as u64, gp.offset as u64, len as u64, 0])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: Some(Arc::clone(&st.pending)),
            issued: ctx.metric_now(),
        }) as am::Token)
        .send();
    BulkGetHandle { cell, local: None }
}

/// Handle to a split-phase `get`; the value is available after [`sync`].
pub struct GetHandle {
    cell: Arc<ReplyCell>,
}

impl GetHandle {
    /// The fetched value. Panics if called before the operation completed
    /// (call [`sync`] first).
    pub fn value(&self) -> f64 {
        f64::from_bits(self.cell.words()[0])
    }

    /// Whether the reply has arrived (without syncing).
    pub fn is_done(&self) -> bool {
        self.cell.is_done()
    }
}

/// Split-phase read (`lx := *gpY`): returns immediately; completion is
/// observed by [`sync`].
pub fn get<F: Fabric>(ctx: &F, gp: GlobalPtr) -> GetHandle {
    let st = ScState::get(ctx);
    let cell = ReplyCell::new();
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let v = region.read()[gp.offset];
        cell.complete([v.to_bits(), 0, 0, 0]);
        return GetHandle { cell };
    }
    let _sp = ctx.span("sc.get");
    ctx.charge(Bucket::Runtime, st.costs.split_issue);
    st.pending.issue();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_READ)
        .args([gp.region as u64, gp.offset as u64, 0, 0])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: Some(Arc::clone(&st.pending)),
            issued: ctx.metric_now(),
        }) as am::Token)
        .send();
    GetHandle { cell }
}

/// Split-phase write (`*gpY := lx`): returns immediately; [`sync`] waits for
/// the acknowledgement.
pub fn put<F: Fabric>(ctx: &F, gp: GlobalPtr, v: f64) {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        region.write()[gp.offset] = v;
        return;
    }
    let _sp = ctx.span("sc.put");
    ctx.charge(Bucket::Runtime, st.costs.split_issue);
    st.pending.issue();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_WRITE)
        .args([gp.region as u64, gp.offset as u64, v.to_bits(), 0])
        .token(Box::new(ScToken {
            cell: None,
            pending: Some(Arc::clone(&st.pending)),
            issued: ctx.metric_now(),
        }) as am::Token)
        .send();
}

/// Wait for all outstanding split-phase operations issued by this node.
pub fn sync<F: Fabric>(ctx: &F) {
    let st = ScState::get(ctx);
    let _sp = ctx.span("sc.sync");
    ctx.charge(Bucket::Runtime, st.costs.sync_call);
    let pending = Arc::clone(&st.pending);
    am::wait_until(ctx, move || pending.is_quiescent());
}

/// One-way store (`*gpY :- lx`): no acknowledgement; global completion is
/// established by [`crate::all_store_sync`].
pub fn store<F: Fabric>(ctx: &F, gp: GlobalPtr, v: f64) {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        region.write()[gp.offset] = v;
        return;
    }
    let _sp = ctx.span("sc.store");
    ctx.charge(Bucket::Runtime, st.costs.split_issue);
    st.stores_sent.fetch_add(1, Ordering::AcqRel);
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_STORE)
        .args([gp.region as u64, gp.offset as u64, v.to_bits(), 0])
        .send();
}

/// Synchronous bulk read of `len` doubles starting at `gp`.
pub fn bulk_read<F: Fabric>(ctx: &F, gp: GlobalPtr, len: usize) -> Vec<f64> {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let r = region.read();
        return r[gp.offset..gp.offset + len].to_vec();
    }
    let _sp = ctx.span("sc.bulk_read");
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, st.costs.bulk_issue);
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_BULK_READ)
        .args([gp.region as u64, gp.offset as u64, len as u64, 0])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: None,
            issued: None,
        }) as am::Token)
        .send();
    let c2 = Arc::clone(&cell);
    am::wait_until(ctx, move || c2.is_done());
    ctx.charge(Bucket::Runtime, st.costs.bulk_complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since("sc.bulk_read_ns", t0);
    }
    doubles(&cell.take_data().expect("bulk read reply without data"))
}

/// Synchronous bulk write of `vals` starting at `gp`.
pub fn bulk_write<F: Fabric>(ctx: &F, gp: GlobalPtr, vals: &[f64]) {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let mut w = region.write();
        w[gp.offset..gp.offset + vals.len()].copy_from_slice(vals);
        return;
    }
    let _sp = ctx.span("sc.bulk_write");
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, st.costs.bulk_issue);
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_BULK_WRITE)
        .args([gp.region as u64, gp.offset as u64, 0, 0])
        .bulk(payload(vals))
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: None,
            issued: None,
        }) as am::Token)
        .send();
    let c2 = Arc::clone(&cell);
    am::wait_until(ctx, move || c2.is_done());
    ctx.charge(Bucket::Runtime, st.costs.bulk_complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since("sc.bulk_write_ns", t0);
    }
}

/// One-way bulk store (em3d-bulk and sc-lu's pivot pushes).
pub fn bulk_store<F: Fabric>(ctx: &F, gp: GlobalPtr, vals: &[f64]) {
    let st = ScState::get(ctx);
    if gp.node == ctx.node() {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        let region = st.region(gp.region);
        let mut w = region.write();
        w[gp.offset..gp.offset + vals.len()].copy_from_slice(vals);
        return;
    }
    let _sp = ctx.span("sc.bulk_store");
    ctx.charge(Bucket::Runtime, st.costs.bulk_issue);
    st.stores_sent.fetch_add(1, Ordering::AcqRel);
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_BULK_STORE)
        .args([gp.region as u64, gp.offset as u64, 0, 0])
        .bulk(payload(vals))
        .send();
}

/// Execute registered atomic function `fn_id` at `node` with up to three
/// argument words, waiting for its result (`atomic(foo, 0)`).
pub fn atomic_rpc<F: Fabric>(ctx: &F, node: usize, fn_id: u32, args: [u64; 3]) -> [u64; 4] {
    let st = ScState::get(ctx);
    let _sp = ctx.span("sc.atomic");
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, st.costs.atomic_issue);
    if node == ctx.node() {
        // Local atomic: a single-threaded node runs it directly.
        let f = {
            let tbl = st.atomics.read();
            Arc::clone(tbl.get(&fn_id).expect("unknown atomic function"))
        };
        let r = f(ctx, [args[0], args[1], args[2], 0]);
        ctx.charge(Bucket::Runtime, st.costs.atomic_complete);
        return r;
    }
    let cell = ReplyCell::new();
    am::endpoint(ctx)
        .to(node)
        .handler(H_ATOMIC)
        .args([fn_id as u64, args[0], args[1], args[2]])
        .token(Box::new(ScToken {
            cell: Some(Arc::clone(&cell)),
            pending: None,
            issued: None,
        }) as am::Token)
        .send();
    let c2 = Arc::clone(&cell);
    am::wait_until(ctx, move || c2.is_done());
    ctx.charge(Bucket::Runtime, st.costs.atomic_complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since("sc.atomic_ns", t0);
    }
    cell.words()
}

/// Atomically add `delta` to the double at `gp` (Water's force updates),
/// waiting for the acknowledgement.
pub fn atomic_add<F: Fabric>(ctx: &F, gp: GlobalPtr, delta: f64) {
    atomic_rpc(
        ctx,
        gp.node,
        ATOMIC_ADD_F64,
        [gp.region as u64, gp.offset as u64, delta.to_bits()],
    );
}

/// Register an application atomic function on this node.
pub fn register_atomic<F: Fabric>(
    ctx: &F,
    fn_id: u32,
    f: impl Fn(&F, [u64; 4]) -> [u64; 4] + Send + Sync + 'static,
) {
    let st = ScState::get(ctx);
    let prev = st.atomics.write().insert(fn_id, Arc::new(f));
    assert!(prev.is_none(), "duplicate atomic function id {fn_id}");
}

/// Run `f` over this node's chunk of a region, without modeled cost: local
/// computation charges its own cpu explicitly.
pub fn with_local<F: Fabric, R>(ctx: &F, region: u32, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    let st = ScState::get(ctx);
    let r = st.region(region);
    let mut w = r.write();
    f(&mut w)
}

/// Register the built-in atomic functions (called by `init`).
pub(crate) fn register_builtin_atomics<F: Fabric>(ctx: &F) {
    register_atomic(ctx, ATOMIC_NULL, |_, _| [0; 4]);
    register_atomic(ctx, ATOMIC_ADD_F64, |ctx, a| {
        let st = ScState::get(ctx);
        let region = st.region(a[0] as u32);
        let mut w = region.write();
        let slot = &mut w[a[1] as usize];
        *slot += f64::from_bits(a[2]);
        [slot.to_bits(), 0, 0, 0]
    });
    register_atomic(ctx, ATOMIC_ADD3_F64, |ctx, a| {
        let st = ScState::get(ctx);
        let (region, offset) = unpack_addr(a[0]);
        let region = st.region(region);
        let mut w = region.write();
        w[offset] += f64::from_bits(a[1]);
        w[offset + 1] += f64::from_bits(a[2]);
        w[offset + 2] += f64::from_bits(a[3]);
        [0; 4]
    });
}
