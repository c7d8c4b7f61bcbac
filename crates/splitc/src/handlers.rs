//! Active-message handlers of the Split-C runtime.
//!
//! Handler ids 16–63 are reserved for Split-C. Remote accesses are served
//! *inline* in whichever task polled — a Split-C node is single-threaded, so
//! handlers never spawn.

use crate::state::ScState;
use bytes::Bytes;
use mpmd_am::{self as am, AmMsg, HandlerId, ReplyCell};
use mpmd_fabric::Fabric;
use mpmd_sim::{Bucket, NodeCell};
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) const H_READ: HandlerId = 16;
pub(crate) const H_WRITE: HandlerId = 17;
pub(crate) const H_STORE: HandlerId = 18;
pub(crate) const H_BULK_READ: HandlerId = 19;
pub(crate) const H_BULK_WRITE: HandlerId = 20;
pub(crate) const H_BULK_STORE: HandlerId = 21;
pub(crate) const H_ATOMIC: HandlerId = 22;
pub(crate) const H_REPLY_VALUE: HandlerId = 23;
pub(crate) const H_REPLY_DATA: HandlerId = 24;
pub(crate) const H_READ3: HandlerId = 27;
pub(crate) const H_ATOMIC_ADD3: HandlerId = 28;

/// A split-phase op's token, carried by its request and passed back in its
/// reply: the op is counted in `ScState::pending` until the reply arrives.
pub(crate) struct ScToken {
    /// Result cell (split-phase gets).
    pub(crate) cell: Option<Arc<ReplyCell>>,
    /// Issue timestamp (set only when metrics are on): the reply handler
    /// turns it into the issue→completion latency.
    pub(crate) issued: Option<mpmd_sim::Time>,
}

/// A blocking access's token and reply slot, reused: the task that issues
/// the access takes it from its node's free list (`ScState::sync_tokens`),
/// the request and the reply carry it, the reply handler stores the reply
/// in it and hands it back to that task through its slot, and only that
/// task puts it back on the list. (Recycling in the handler is wrong: the
/// task may not have run yet.)
#[derive(Default)]
pub(crate) struct SyncToken {
    /// The reply's words and bulk payload, stored by the reply handler.
    pub(crate) reply: ([u64; 4], Option<Bytes>),
    /// Where the reply handler leaves this token for the waiting task.
    /// `None` only between that hand-over and the task putting its own
    /// clone back, so a token parked for a task that has unwound does not
    /// keep its slot (and through it, itself) alive.
    pub(crate) slot: Option<Arc<SyncSlot>>,
}

/// Where a blocking access's reply handler parks its token.
pub(crate) type SyncSlot = NodeCell<Option<Box<SyncToken>>>;

/// `vals` as a bulk payload.
pub(crate) fn payload(vals: &[f64]) -> Bytes {
    let mut data = Vec::new();
    am::encode_f64s(&mut data, vals);
    Bytes::from(data)
}

/// A bulk reply's doubles, as the caller's own vector.
pub(crate) fn doubles(data: &[u8]) -> Vec<f64> {
    let mut vals = vec![0.0; data.len() / 8];
    am::decode_f64s(data, &mut vals);
    vals
}

/// Answer request `m` with `args`, handing its token back.
fn reply_value<F: Fabric>(ctx: &F, m: AmMsg, args: [u64; 4]) {
    am::endpoint(ctx)
        .to(m.src)
        .handler(H_REPLY_VALUE)
        .args(args)
        .token(m.token)
        .send();
}

/// The completion of every request, with or without data: a blocking
/// access's token goes back to its task with the reply in it; a split-phase
/// op leaves `pending`, and the reply lands in the issuer's cell.
fn complete<F: Fabric>(ctx: &F, m: AmMsg) {
    let token = m.token.expect("Split-C reply without token");
    let token = match token.downcast::<SyncToken>() {
        Ok(mut tok) => {
            tok.reply = (m.args, m.data);
            let slot = tok.slot.take().expect("sync token without its slot");
            slot.with(ctx, |s| *s = Some(tok));
            return;
        }
        Err(token) => token,
    };
    let tok = *token
        .downcast::<ScToken>()
        .expect("foreign token in Split-C reply");
    let st = ScState::get(ctx);
    ctx.charge(Bucket::Runtime, st.costs.split_complete);
    st.complete_pending();
    if let Some(t0) = tok.issued {
        ctx.metric_observe_since("sc.split_op_ns", t0);
    }
    if let Some(c) = &tok.cell {
        match m.data {
            Some(data) => c.complete_with_data(m.args, data),
            None => c.complete(m.args),
        }
    }
}

pub(crate) fn register_handlers<F: Fabric>(ctx: &F) {
    am::register(ctx, H_READ, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.serve_access);
        let off = m.args[1] as usize;
        let v = st.memory.with(ctx, m.args[0] as u32, |r| r[off]);
        reply_value(ctx, m, [v.to_bits(), 0, 0, 0]);
    });

    am::register(ctx, H_READ3, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.serve_access);
        let off = m.args[1] as usize;
        let reply = st.memory.with(ctx, m.args[0] as u32, |r| {
            [
                r[off].to_bits(),
                r[off + 1].to_bits(),
                r[off + 2].to_bits(),
                0,
            ]
        });
        reply_value(ctx, m, reply);
    });

    am::register(ctx, H_WRITE, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.serve_access);
        write_word_into_region(ctx, st, &m);
        reply_value(ctx, m, [0; 4]);
    });

    am::register(ctx, H_STORE, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.serve_access);
        write_word_into_region(ctx, st, &m);
        st.stores_recvd.fetch_add(1, Ordering::AcqRel);
    });

    am::register(ctx, H_BULK_READ, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.serve_access);
        let off = m.args[1] as usize;
        let len = m.args[2] as usize;
        let data = st.memory.with(ctx, m.args[0] as u32, |r| {
            assert!(
                off + len <= r.len(),
                "bulk_read out of bounds: {off}+{len} > {}",
                r.len()
            );
            payload(&r[off..off + len])
        });
        am::endpoint(ctx)
            .to(m.src)
            .handler(H_REPLY_DATA)
            .args([len as u64, 0, 0, 0])
            .bulk(data)
            .token(m.token)
            .send();
    });

    am::register(ctx, H_BULK_WRITE, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.serve_access);
        write_bulk_into_region(ctx, st, &m);
        reply_value(ctx, m, [0; 4]);
    });

    am::register(ctx, H_BULK_STORE, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.serve_access);
        write_bulk_into_region(ctx, st, &m);
        st.stores_recvd.fetch_add(1, Ordering::AcqRel);
    });

    am::register(ctx, H_ATOMIC, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.atomic_dispatch);
        let f = st.atomic(ctx, m.args[0] as u32);
        let result = f(ctx, [m.args[1], m.args[2], m.args[3], 0]);
        reply_value(ctx, m, result);
    });

    // Dedicated three-component atomic accumulate: the handler id implies
    // the function, freeing all four argument words for the packed address
    // plus three deltas (Water's force write-back in one message). The
    // update is staged, not applied: it commits at barrier exit in canonical
    // order (see `RegionTable`).
    am::register(ctx, H_ATOMIC_ADD3, |ctx, m| {
        let st = ScState::get(ctx);
        ctx.charge(Bucket::Runtime, st.costs.atomic_dispatch);
        let (region, offset) = am::unpack_addr(m.args[0]);
        st.memory
            .stage_add(ctx, m.src, region, offset, &m.args[1..]);
        reply_value(ctx, m, [0; 4]);
    });

    am::register(ctx, H_REPLY_VALUE, complete::<F>);
    am::register(ctx, H_REPLY_DATA, complete::<F>);
}

/// Write a one-word write's or store's double into its region.
fn write_word_into_region<F: Fabric>(ctx: &F, st: &ScState<F>, m: &AmMsg) {
    let (off, v) = (m.args[1] as usize, f64::from_bits(m.args[2]));
    st.memory.with(ctx, m.args[0] as u32, |w| w[off] = v);
}

/// Decode a bulk write's payload straight into its region.
fn write_bulk_into_region<F: Fabric>(ctx: &F, st: &ScState<F>, m: &AmMsg) {
    let off = m.args[1] as usize;
    let data = m.data.as_ref().expect("bulk write without payload");
    let len = data.len() / 8;
    st.memory.with(ctx, m.args[0] as u32, |w| {
        assert!(
            off + len <= w.len(),
            "bulk write out of bounds: {off}+{len} > {}",
            w.len()
        );
        am::decode_f64s(data, &mut w[off..off + len]);
    });
}
