//! Split-C access primitives: synchronous, split-phase, one-way and bulk.
//!
//! All waiting is spin-polling ("polling is generally very cheap and can
//! yield low latencies if executed often enough. This approach is used in
//! Split-C"), so none of these operations charge thread operations — a
//! Split-C node is single-threaded.
//!
//! Every blocking remote access goes through `sync_access` and every
//! split-phase one through `split_access`; what differs per operation is
//! its handler, which names its costs, span and metric, and its words.

use crate::gptr::GlobalPtr;
use crate::handlers::*;
use crate::state::{AtomicFn, ScState};
use bytes::Bytes;
use mpmd_am::{self as am, HandlerId, ReplyCell};
use mpmd_fabric::Fabric;
use mpmd_sim::Bucket;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Built-in atomic function ids.
pub const ATOMIC_NULL: u32 = 0;
pub const ATOMIC_ADD_F64: u32 = 1;
pub const ATOMIC_ADD3_F64: u32 = 2;

/// When `gp` is on this node: charge a local dereference and run `f` over
/// the region it points into.
fn local<F: Fabric, R>(
    ctx: &F,
    st: &ScState<F>,
    gp: GlobalPtr,
    f: impl FnOnce(&mut Vec<f64>) -> R,
) -> Option<R> {
    (gp.node == ctx.node()).then(|| {
        ctx.charge(Bucket::Runtime, st.costs.local_deref);
        st.memory.with(ctx, gp.region, f)
    })
}

/// The argument words of a request for `gp`, then `a` and `b`.
fn at(gp: GlobalPtr, a: u64, b: u64) -> [u64; 4] {
    [gp.region as u64, gp.offset as u64, a, b]
}

/// One blocking remote access: send `args` (and `bulk` as the payload) to
/// `handler` at `node` and spin-poll for the reply. The handler names the
/// access, and with it the access's span, its latency metric (issue to reply
/// in hand) and its costs. Returns the reply's words and payload.
fn sync_access<F: Fabric>(
    ctx: &F,
    st: &ScState<F>,
    handler: HandlerId,
    node: usize,
    args: [u64; 4],
    bulk: Option<&[f64]>,
) -> ([u64; 4], Option<Bytes>) {
    let c = &st.costs;
    let sync = (c.sync_access_issue, c.sync_access_complete);
    let atomic = (c.atomic_issue, c.atomic_complete);
    let bulk_costs = (c.bulk_issue, c.bulk_complete);
    let (span, metric, (issue, complete)) = match handler {
        H_READ => ("sc.read", "sc.sync_read_ns", sync),
        H_WRITE => ("sc.write", "sc.sync_write_ns", sync),
        H_READ3 => ("sc.read_vec3", "sc.sync_read_ns", sync),
        H_BULK_READ => ("sc.bulk_read", "sc.bulk_read_ns", bulk_costs),
        H_BULK_WRITE => ("sc.bulk_write", "sc.bulk_write_ns", bulk_costs),
        H_ATOMIC => ("sc.atomic", "sc.atomic_ns", atomic),
        H_ATOMIC_ADD3 => ("sc.atomic_add3", "sc.atomic_ns", atomic),
        h => unreachable!("handler {h} serves no blocking access"),
    };
    let _sp = ctx.span(span);
    let t0 = ctx.metric_now();
    ctx.charge(Bucket::Runtime, issue);
    let popped = st.sync_tokens.with(ctx, Vec::pop);
    let mut token = popped.unwrap_or_default();
    let slot = Arc::clone(token.slot.get_or_insert_with(Arc::default));
    let send = am::endpoint(ctx).to(node).handler(handler).args(args);
    match bulk {
        Some(vals) => send.bulk(payload(vals)),
        None => send,
    }
    .token(token as am::Token)
    .send();
    let mut back = None;
    am::wait_until(ctx, || {
        back = slot.with(ctx, Option::take);
        back.is_some()
    });
    let mut token = back.expect("reply not complete");
    token.slot = Some(slot);
    let reply = std::mem::take(&mut token.reply);
    st.sync_tokens.with(ctx, |free| free.push(token));
    ctx.charge(Bucket::Runtime, complete);
    if let Some(t0) = t0 {
        ctx.metric_observe_since(metric, t0);
    }
    reply
}

/// Issue one split-phase access: send `args` to `handler` at `node` and
/// count the access as pending until its reply arrives (see [`sync`]). The
/// handler names the access, its span and its issue cost. The reply lands
/// in `cell`, if there is one.
fn split_access<F: Fabric>(
    ctx: &F,
    st: &ScState<F>,
    handler: HandlerId,
    node: usize,
    args: [u64; 4],
    cell: Option<&Arc<ReplyCell>>,
) {
    let (span, issue) = match handler {
        H_READ => ("sc.get", st.costs.split_issue),
        H_WRITE => ("sc.put", st.costs.split_issue),
        H_BULK_READ => ("sc.get_bulk", st.costs.bulk_issue),
        h => unreachable!("handler {h} serves no split-phase access"),
    };
    let _sp = ctx.span(span);
    ctx.charge(Bucket::Runtime, issue);
    st.pending.fetch_add(1, Ordering::AcqRel);
    let token = ScToken {
        cell: cell.cloned(),
        issued: ctx.metric_now(),
    };
    am::endpoint(ctx)
        .to(node)
        .handler(handler)
        .args(args)
        .token(Box::new(token) as am::Token)
        .send();
}

/// Synchronously read a double through a global pointer (`lx = *gpY`).
pub fn read<F: Fabric>(ctx: &F, gp: GlobalPtr) -> f64 {
    let st = ScState::get(ctx);
    if let Some(v) = local(ctx, st, gp, |r| r[gp.offset]) {
        return v;
    }
    let (words, _) = sync_access(ctx, st, H_READ, gp.node, at(gp, 0, 0), None);
    f64::from_bits(words[0])
}

/// Synchronously write a double through a global pointer (`*gpY = lx`).
pub fn write<F: Fabric>(ctx: &F, gp: GlobalPtr, v: f64) {
    let st = ScState::get(ctx);
    if local(ctx, st, gp, |r| r[gp.offset] = v).is_some() {
        return;
    }
    sync_access(ctx, st, H_WRITE, gp.node, at(gp, v.to_bits(), 0), None);
}

/// Synchronously read three consecutive doubles through a global pointer
/// with a single small request/reply (they fit in the reply's four words) —
/// Water reads a molecule's position this way.
pub fn read_vec3<F: Fabric>(ctx: &F, gp: GlobalPtr) -> [f64; 3] {
    let st = ScState::get(ctx);
    let at3 = |r: &mut Vec<f64>| [r[gp.offset], r[gp.offset + 1], r[gp.offset + 2]];
    if let Some(v) = local(ctx, st, gp, at3) {
        return v;
    }
    let (w, _) = sync_access(ctx, st, H_READ3, gp.node, at(gp, 0, 0), None);
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
    let add3 = |w: &mut Vec<f64>| {
        for k in 0..3 {
            w[gp.offset + k] += deltas[k];
        }
    };
    if local(ctx, st, gp, add3).is_some() {
        return;
    }
    let args = [
        am::pack_addr(gp.region, gp.offset),
        deltas[0].to_bits(),
        deltas[1].to_bits(),
        deltas[2].to_bits(),
    ];
    sync_access(ctx, st, H_ATOMIC_ADD3, gp.node, args, None);
}

/// Handle to a split-phase bulk read; data is available after [`sync`].
pub struct BulkGetHandle {
    cell: Arc<ReplyCell>,
    local: Option<Vec<f64>>,
}

impl BulkGetHandle {
    /// The fetched values, as often as asked. Panics before completion
    /// (call [`sync`] first).
    pub fn values(&self) -> Vec<f64> {
        if let Some(v) = &self.local {
            return v.clone();
        }
        let data = self.cell.is_done().then(|| self.cell.data()).flatten();
        doubles(&data.expect("bulk get not complete — call sync() first"))
    }
}

/// Split-phase bulk read of `len` doubles (sc-lu "prefetches all blocks
/// before beginning the third sub-step").
pub fn get_bulk<F: Fabric>(ctx: &F, gp: GlobalPtr, len: usize) -> BulkGetHandle {
    let st = ScState::get(ctx);
    let cell = ReplyCell::new();
    let vals = local(ctx, st, gp, |r| r[gp.offset..gp.offset + len].to_vec());
    if vals.is_some() {
        return BulkGetHandle { cell, local: vals };
    }
    let args = at(gp, len as u64, 0);
    split_access(ctx, st, H_BULK_READ, gp.node, args, Some(&cell));
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
}

/// Split-phase read (`lx := *gpY`): returns immediately; completion is
/// observed by [`sync`].
pub fn get<F: Fabric>(ctx: &F, gp: GlobalPtr) -> GetHandle {
    let st = ScState::get(ctx);
    let cell = ReplyCell::new();
    match local(ctx, st, gp, |r| r[gp.offset]) {
        Some(v) => cell.complete([v.to_bits(), 0, 0, 0]),
        None => split_access(ctx, st, H_READ, gp.node, at(gp, 0, 0), Some(&cell)),
    }
    GetHandle { cell }
}

/// Split-phase write (`*gpY := lx`): returns immediately; [`sync`] waits for
/// the acknowledgement.
pub fn put<F: Fabric>(ctx: &F, gp: GlobalPtr, v: f64) {
    let st = ScState::get(ctx);
    if local(ctx, st, gp, |r| r[gp.offset] = v).is_none() {
        split_access(ctx, st, H_WRITE, gp.node, at(gp, v.to_bits(), 0), None);
    }
}

/// Wait for all outstanding split-phase operations issued by this node.
pub fn sync<F: Fabric>(ctx: &F) {
    let st = ScState::get(ctx);
    let _sp = ctx.span("sc.sync");
    ctx.charge(Bucket::Runtime, st.costs.sync_call);
    am::wait_until(ctx, || st.pending.load(Ordering::Acquire) == 0);
}

/// One-way store (`*gpY :- lx`): no acknowledgement; global completion is
/// established by [`crate::all_store_sync`].
pub fn store<F: Fabric>(ctx: &F, gp: GlobalPtr, v: f64) {
    let st = ScState::get(ctx);
    if local(ctx, st, gp, |r| r[gp.offset] = v).is_some() {
        return;
    }
    let _sp = ctx.span("sc.store");
    ctx.charge(Bucket::Runtime, st.costs.split_issue);
    st.stores_sent.fetch_add(1, Ordering::AcqRel);
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_STORE)
        .args(at(gp, v.to_bits(), 0))
        .send();
}

/// Synchronous bulk read of `len` doubles starting at `gp`.
pub fn bulk_read<F: Fabric>(ctx: &F, gp: GlobalPtr, len: usize) -> Vec<f64> {
    let st = ScState::get(ctx);
    if let Some(v) = local(ctx, st, gp, |r| r[gp.offset..gp.offset + len].to_vec()) {
        return v;
    }
    let (_, data) = sync_access(ctx, st, H_BULK_READ, gp.node, at(gp, len as u64, 0), None);
    doubles(&data.expect("bulk read reply without data"))
}

/// Synchronous bulk write of `vals` starting at `gp`.
pub fn bulk_write<F: Fabric>(ctx: &F, gp: GlobalPtr, vals: &[f64]) {
    let st = ScState::get(ctx);
    let copy = |r: &mut Vec<f64>| r[gp.offset..gp.offset + vals.len()].copy_from_slice(vals);
    if local(ctx, st, gp, copy).is_some() {
        return;
    }
    sync_access(ctx, st, H_BULK_WRITE, gp.node, at(gp, 0, 0), Some(vals));
}

/// One-way bulk store (em3d-bulk and sc-lu's pivot pushes).
pub fn bulk_store<F: Fabric>(ctx: &F, gp: GlobalPtr, vals: &[f64]) {
    let st = ScState::get(ctx);
    let copy = |r: &mut Vec<f64>| r[gp.offset..gp.offset + vals.len()].copy_from_slice(vals);
    if local(ctx, st, gp, copy).is_some() {
        return;
    }
    let _sp = ctx.span("sc.bulk_store");
    ctx.charge(Bucket::Runtime, st.costs.bulk_issue);
    st.stores_sent.fetch_add(1, Ordering::AcqRel);
    am::endpoint(ctx)
        .to(gp.node)
        .handler(H_BULK_STORE)
        .args(at(gp, 0, 0))
        .bulk(payload(vals))
        .send();
}

/// Execute registered atomic function `fn_id` at `node` with up to three
/// argument words, waiting for its result (`atomic(foo, 0)`).
pub fn atomic_rpc<F: Fabric>(ctx: &F, node: usize, fn_id: u32, args: [u64; 3]) -> [u64; 4] {
    let st = ScState::get(ctx);
    let c = &st.costs;
    if node == ctx.node() {
        // Local atomic: a single-threaded node runs it directly.
        let _sp = ctx.span("sc.atomic");
        ctx.charge(Bucket::Runtime, c.atomic_issue);
        let r = st.atomic(ctx, fn_id)(ctx, [args[0], args[1], args[2], 0]);
        ctx.charge(Bucket::Runtime, c.atomic_complete);
        return r;
    }
    let words = [fn_id as u64, args[0], args[1], args[2]];
    sync_access(ctx, st, H_ATOMIC, node, words, None).0
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
    let f: AtomicFn<F> = Arc::new(f);
    let prev = ScState::get(ctx).atomics.with(ctx, |t| t.insert(fn_id, f));
    assert!(prev.is_none(), "duplicate atomic function id {fn_id}");
}

/// Run `f` over this node's chunk of a region, without modeled cost: local
/// computation charges its own cpu explicitly. The node's regions are one
/// node-local table, so `f` must not reach it again: a nested `with_local`,
/// or an access through a global pointer to this node, panics.
pub fn with_local<F: Fabric, R>(ctx: &F, region: u32, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    ScState::get(ctx).memory.with(ctx, region, f)
}

/// Register the built-in atomic functions (called by `init`).
pub(crate) fn register_builtin_atomics<F: Fabric>(ctx: &F) {
    register_atomic(ctx, ATOMIC_NULL, |_, _| [0; 4]);
    register_atomic(ctx, ATOMIC_ADD_F64, |ctx, a| {
        with_local(ctx, a[0] as u32, |w| {
            let slot = &mut w[a[1] as usize];
            *slot += f64::from_bits(a[2]);
            [slot.to_bits(), 0, 0, 0]
        })
    });
    register_atomic(ctx, ATOMIC_ADD3_F64, |ctx, a| {
        let (region, offset) = am::unpack_addr(a[0]);
        with_local(ctx, region, |w| {
            for k in 0..3 {
                w[offset + k] += f64::from_bits(a[k + 1]);
            }
            [0; 4]
        })
    });
}
