//! Sending, polling and waiting.
//!
//! The sole public send API is the builder: see
//! [`endpoint`](crate::endpoint::endpoint) and
//! [`SendBuilder`](crate::endpoint::SendBuilder).

use crate::state::{lookup, AmState, HandlerId, PollGuard};
use crate::AmMsg;
use bytes::Bytes;
use mpmd_fabric::Fabric;
use mpmd_sim::{Bucket, Time, TraceEvent};
use std::any::Any;

/// Opaque continuation carried by a message (e.g. an `Arc<ReplyCell>`),
/// modeling the reply-buffer address an AM request carries on real hardware.
pub type Token = Box<dyn Any + Send>;

/// Modeled header size of every active message (routing + handler id + args).
pub const SHORT_WIRE_BYTES: usize = 48;

/// Every send: count it; a coalesced short send appends to its buffer;
/// anything else flushes its destination's buffer first (when coalescing),
/// charges the send overhead, goes on the [`wire`] and polls on send.
pub(crate) fn send_inner<F: Fabric>(
    ctx: &F,
    dst: usize,
    handler: HandlerId,
    args: [u64; 4],
    data: Option<Bytes>,
    token: Option<Token>,
) {
    let st = AmState::get(ctx);
    let p = st.profile();
    let bulk = data.is_some();
    let bytes = data.as_ref().map_or(0, |d| d.len());
    ctx.with_stats(|s| {
        if bulk {
            s.bulk_msgs.add(1);
        } else {
            s.short_msgs.add(1);
        }
    });
    let msg = AmMsg {
        src: ctx.node(),
        handler,
        args,
        data,
        token,
    };
    if let Some(co) = st.coalesce.get() {
        if !bulk {
            // No charge, no wire traffic, and no poll-on-send until a flush.
            crate::coalesce::append(ctx, st, co, dst, msg);
            return;
        }
        // A bulk message overtaking buffered shorts would break program
        // order on this link.
        crate::coalesce::flush_dst(ctx, st, dst);
    }
    ctx.charge(Bucket::Net, p.send_charge(bulk));
    wire(ctx, st, dst, msg, bytes);
    if p.poll_on_send {
        poll(ctx);
    }
}

/// The one wire leg of every send: a sequenced, acknowledged frame of the
/// reliable protocol under a fault model, a plain frame otherwise. A short
/// message allocates nothing here: its payload travels inline and the
/// kernel's event heap holds the delivery in capacity it reuses.
pub(crate) fn wire<F: Fabric>(ctx: &F, st: &AmState<F>, dst: usize, msg: AmMsg, data_len: usize) {
    match &ctx.cost().faults {
        Some(faults) => crate::reliable::send(ctx, st, dst, msg, data_len, faults.rto_initial),
        None => ctx.send_msg(
            dst,
            SHORT_WIRE_BYTES + data_len,
            st.profile().wire_delay(data_len),
            msg.into_payload(),
        ),
    }
}

/// Execute one delivered message; an aggregate frame pays one receive
/// overhead and then `unmarshal_per_msg` per sub-message. Returns the number
/// of handlers run. Shared by the fault-free and reliable delivery paths.
pub(crate) fn dispatch<F: Fabric>(ctx: &F, st: &AmState<F>, am: AmMsg) -> usize {
    let recv = st.profile().recv_charge();
    if am.handler != crate::coalesce::H_COALESCED {
        run_handler(ctx, st, am, recv);
        return 1;
    }
    ctx.charge(Bucket::Net, recv);
    let unmarshal = ctx.cost().coalescing.unmarshal_per_msg;
    let batch = crate::coalesce::unbatch(am);
    let ran = batch.len();
    for sub in batch {
        run_handler(ctx, st, sub, unmarshal);
    }
    ran
}

/// Run one message's handler, charging `recv_ns` of reception inside its
/// trace frame so the frame's duration covers the full per-message cost —
/// the trace reconciles against `Bucket::Net` this way.
fn run_handler<F: Fabric>(ctx: &F, st: &AmState<F>, msg: AmMsg, recv_ns: Time) {
    let hid = msg.handler;
    ctx.trace_event(|| TraceEvent::HandlerStart { handler: hid });
    ctx.charge(Bucket::Net, recv_ns);
    ctx.with_stats(|s| s.handlers_run.add(1));
    lookup(st, hid)(ctx, msg);
    ctx.trace_event(|| TraceEvent::HandlerEnd { handler: hid });
}

/// Drain the inbox, dispatching every delivered message's handler on this
/// task. Returns the number of handlers run. Recursive polls (a handler's
/// reply re-entering `poll` via poll-on-send) are suppressed. A mandatory
/// flush point: aggregation buffers are flushed on entry (so nothing this
/// task sent can be held back while it waits) and again on exit (handlers
/// run during the drain may have issued coalescible replies).
pub fn poll<F: Fabric>(ctx: &F) -> usize {
    let st = AmState::get(ctx);
    let Some(_guard) = PollGuard::enter(st, ctx) else {
        return 0;
    };
    // Flushing is one atomic load on a node that never coalesces. The
    // profile is read only where a message needs it, so an empty poll works
    // on a node that has not called `init` yet.
    crate::coalesce::flush_all(ctx, st);
    // Yield so every network event due at or before our clock is visible.
    ctx.poll_point();
    ctx.with_stats(|s| s.polls.add(1));
    let drained = match &ctx.cost().faults {
        Some(faults) => crate::reliable::poll_reliable(ctx, st, faults),
        None => {
            let mut drained = Drained::default();
            while let Some(m) = ctx.try_recv() {
                drained.frames += 1;
                drained.ran += dispatch(ctx, st, AmMsg::from_payload(m.src, m.payload));
            }
            drained
        }
    };
    // Frames per poll: how far reception lags.
    ctx.metric_observe("am.inbox_depth", drained.frames as u64);
    crate::coalesce::flush_all(ctx, st);
    drained.ran
}

/// What one poll's drain did.
#[derive(Default)]
pub(crate) struct Drained {
    /// Frames taken from the inbox.
    pub(crate) frames: usize,
    /// Handlers run.
    pub(crate) ran: usize,
}

/// Flush every aggregation buffer on this node. A no-op when coalescing is
/// disabled. Runtimes call this before blocking a task on anything other
/// than [`wait_until`] (which flushes via its polls) — e.g. before parking
/// on a synchronization variable — so buffered messages can't be stranded
/// by a sleeping sender.
pub fn flush<F: Fabric>(ctx: &F) {
    crate::coalesce::flush_all(ctx, AmState::get(ctx));
}

/// Spin-poll until `pred` becomes true: poll, check, and if nothing is
/// pending park until the next delivery. This is how a single-threaded
/// Split-C node waits for completions, and how the CC++ "0-Word Simple"
/// (no-thread-switch) path waits: it costs no thread operations.
pub fn wait_until<F: Fabric>(ctx: &F, mut pred: impl FnMut() -> bool) {
    loop {
        poll(ctx);
        if pred() {
            return;
        }
        ctx.park_for_inbox();
    }
}
