//! Global-pointer data access.
//!
//! "The compiler front-end translates all global pointer dereferences into
//! RMIs... accesses to simple data types through global pointers are
//! optimized using small request/reply active messages" — so `GP Read/Write`
//! costs 92 µs (AM 55) instead of a bulk-argument RMI's 94+ (AM 70).
//!
//! Two paths:
//! * [`gp_read`]/[`gp_write`] — blocking access; the owner services it on a
//!   fresh thread (Table 4's GP row: 1 create, 2 switches).
//! * [`gp_read_async`] — the `parfor`-prefetch path: the owner services the
//!   request inline; the *initiator-side* parfor thread provides the
//!   concurrency (Table 4's Prefetch row: the 1 create/element is the parfor
//!   thread, not a receiver thread).
//!
//! Either way a remote access rides a CC++ call record (`rmi.rs`, over
//! `mpmd-am`'s `reply.rs`) as its token, and the frames carry the access
//! itself: the request's four words are the region, offset, operation and
//! operand, the reply's are the value read. The owner never touches the
//! record; it sends the token back with its reply, the caller's reply
//! handler lands the words in the record, and the task that takes the value
//! recycles it.

use crate::rmi::{CxCall, Far};
use crate::state::{CcxxState, CxPtr};
use mpmd_am::{self as am, HandlerId};
use mpmd_fabric::Fabric;
use mpmd_sim::{Bucket, NodeCell, Time};
use std::sync::{Arc, OnceLock};

pub(crate) const H_GP_ACC: HandlerId = 66;
pub(crate) const H_GP_ACC_ASYNC: HandlerId = 67;
pub(crate) const H_GP_REPLY: HandlerId = 68;

const OP_READ: u64 = 0;
const OP_WRITE: u64 = 1;
const OP_READ3: u64 = 2;

/// Outstanding asynchronous global-pointer read.
pub struct GpHandle {
    /// The value: known at issue for a local read, else taken by the first
    /// [`wait`](GpHandle::wait).
    value: OnceLock<f64>,
    /// A remote read's completion cell, until the first `wait` takes it.
    cell: NodeCell<Option<Arc<am::RecordCell<Far>>>>,
}

impl GpHandle {
    /// Block until the value arrives (charges the async completion costs).
    pub fn wait<F: Fabric>(&self, ctx: &F) -> f64 {
        if let Some(v) = self.value.get() {
            return *v;
        }
        let cell = self.cell.with(ctx, Option::take);
        let cell = cell.expect("GpHandle waited on twice at once");
        let st = CcxxState::get(ctx);
        let (words, _) = st.await_reply(ctx, cell);
        ctx.charge(Bucket::Runtime, st.cfg().costs.gp_async_complete);
        let v = f64::from_bits(words[0]);
        *self.value.get_or_init(|| v)
    }
}

/// Send access `args` to `node` with a call record as the token, charging
/// `cost`. Returns the record's completion cell.
fn issue<F: Fabric>(
    ctx: &F,
    st: &CcxxState<F>,
    node: usize,
    handler: HandlerId,
    args: [u64; 4],
    cost: Time,
) -> Arc<am::RecordCell<Far>> {
    ctx.charge(Bucket::Runtime, cost);
    let (call, cell) = st.call_records.take(ctx, true);
    drop(st.sbuf_lock.lock(ctx)); // charged lock/unlock pair; released before the send's poll point
    am::endpoint(ctx)
        .to(node)
        .handler(handler)
        .args(args)
        .token(call as am::Token)
        .send();
    cell
}

/// A blocking access to `p`: `op` with operand `value`. Served in place when
/// `p` is local, else by a fresh thread at its owner. Returns the reply
/// words.
fn access<F: Fabric>(ctx: &F, p: CxPtr, op: u64, value: u64) -> [u64; 4] {
    let st = CcxxState::get(ctx);
    let c = &st.cfg().costs;
    let args = [p.region as u64, p.offset as u64, op, value];
    if p.node == ctx.node() {
        ctx.charge(Bucket::Runtime, c.local_gp_deref);
        return serve_access(ctx, st, args);
    }
    let cell = issue(ctx, st, p.node, H_GP_ACC, args, c.gp_issue);
    let (words, _) = st.await_reply(ctx, cell);
    ctx.charge(Bucket::Runtime, c.gp_complete);
    words
}

/// Read a double through a global pointer (`lx = *gpY`). Blocks the calling
/// thread; the owner runs the access on a new thread.
pub fn gp_read<F: Fabric>(ctx: &F, p: CxPtr) -> f64 {
    f64::from_bits(access(ctx, p, OP_READ, 0)[0])
}

/// Write a double through a global pointer (`*gpY = lx`), waiting for the
/// acknowledgement.
pub fn gp_write<F: Fabric>(ctx: &F, p: CxPtr, v: f64) {
    access(ctx, p, OP_WRITE, v.to_bits());
}

/// Read three consecutive doubles through a global pointer with one small
/// request/reply (Water reads a molecule's position this way). Blocking;
/// served on a fresh thread at the owner like [`gp_read`].
pub fn gp_read3<F: Fabric>(ctx: &F, p: CxPtr) -> [f64; 3] {
    let w = access(ctx, p, OP_READ3, 0);
    [
        f64::from_bits(w[0]),
        f64::from_bits(w[1]),
        f64::from_bits(w[2]),
    ]
}

/// Issue a non-blocking read through a global pointer; wait on the returned
/// handle. Used by `parfor` prefetching.
pub fn gp_read_async<F: Fabric>(ctx: &F, p: CxPtr) -> GpHandle {
    let st = CcxxState::get(ctx);
    let c = &st.cfg().costs;
    let args = [p.region as u64, p.offset as u64, OP_READ, 0];
    let (value, cell) = if p.node == ctx.node() {
        ctx.charge(Bucket::Runtime, c.local_gp_deref);
        let v = f64::from_bits(serve_access(ctx, st, args)[0]);
        (OnceLock::from(v), None)
    } else {
        let cell = issue(ctx, st, p.node, H_GP_ACC_ASYNC, args, c.gp_async_issue);
        (OnceLock::new(), Some(cell))
    };
    GpHandle {
        value,
        cell: NodeCell::new(cell),
    }
}

fn serve_access<F: Fabric>(ctx: &F, st: &CcxxState<F>, args: [u64; 4]) -> [u64; 4] {
    let off = args[1] as usize;
    st.memory.with(ctx, args[0] as u32, |r| match args[2] {
        OP_READ => [r[off].to_bits(), 0, 0, 0],
        OP_READ3 => [
            r[off].to_bits(),
            r[off + 1].to_bits(),
            r[off + 2].to_bits(),
            0,
        ],
        OP_WRITE => {
            r[off] = f64::from_bits(args[3]);
            [0; 4]
        }
        op => panic!("unknown GP op {op}"),
    })
}

/// At the owner: serve access `args` and send its words back to `dst` in
/// the reply frame, with the request's `token`, charging `reply`.
fn serve_and_reply<F: Fabric>(
    ctx: &F,
    st: &CcxxState<F>,
    dst: usize,
    token: Option<am::Token>,
    args: [u64; 4],
    reply: Time,
) {
    let words = serve_access(ctx, st, args);
    drop(st.sbuf_lock.lock(ctx)); // charged lock/unlock pair; released before the send's poll point
    ctx.charge(Bucket::Runtime, reply);
    am::endpoint(ctx)
        .to(dst)
        .handler(H_GP_REPLY)
        .args(words)
        .token(token)
        .send();
}

pub(crate) fn register_gp_handlers<F: Fabric>(ctx: &F) {
    // Blocking access: spawn a thread at the owner (general RMI semantics).
    am::register(ctx, H_GP_ACC, |ctx, m| {
        let st = CcxxState::get(ctx);
        if let Some(ic) = st.cfg().interrupt_cost {
            ctx.charge(Bucket::Net, ic);
        }
        let (src, args, token) = (m.src, m.args, m.token);
        mpmd_threads::spawn(ctx, "gp-access", move |cctx| {
            let st = CcxxState::get(&cctx);
            let c = &st.cfg().costs;
            cctx.charge(Bucket::Runtime, c.gp_serve);
            serve_and_reply(&cctx, st, src, token, args, c.gp_reply);
            // The access thread ends here; push out a coalesced reply rather
            // than leaving it for the next poller.
            am::flush(&cctx);
        });
    });

    // Prefetch access: served inline in the polling context.
    am::register(ctx, H_GP_ACC_ASYNC, |ctx, m| {
        let st = CcxxState::get(ctx);
        let cfg = st.cfg();
        if let Some(ic) = cfg.interrupt_cost {
            ctx.charge(Bucket::Net, ic);
        }
        ctx.charge(Bucket::Runtime, cfg.costs.gp_async_serve);
        serve_and_reply(ctx, st, m.src, m.token, m.args, cfg.costs.gp_async_reply);
    });

    am::register(ctx, H_GP_REPLY, |ctx, mut m| {
        if let Some(ic) = CcxxState::get(ctx).cfg().interrupt_cost {
            ctx.charge(Bucket::Net, ic);
        }
        CxCall::of(&mut m).land(ctx, (m.args, None));
    });
}
