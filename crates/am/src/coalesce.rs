//! Adaptive per-destination message coalescing.
//!
//! The paper's cost breakdowns are dominated by *per-message* overheads:
//! every short AM pays a fixed send/receive cost regardless of its four-word
//! payload. Aggregating small messages bound for the same destination into
//! one wire frame amortizes that fixed cost — the standard lever in AM
//! systems (von Eicken et al. discuss packet aggregation; Split-C's bulk
//! operations are the manual form). This module is the automatic form:
//!
//! * Short `request`s append into a bounded per-destination buffer
//!   ([`CoalesceConfig`]: max messages, max wire bytes, max linger on the
//!   sender's clock) instead of going to the wire individually.
//! * A full buffer, an expired linger deadline, or any *mandatory flush
//!   point* ([`poll`](crate::poll) entry and exit, which covers
//!   [`barrier`](crate::barrier) and [`wait_until`](crate::wait_until), plus
//!   explicit [`flush`](crate::flush) calls before synchronous reads) turns
//!   the buffer into one aggregated frame.
//! * An aggregate is charged as one send overhead plus
//!   `marshal_per_msg` for each sub-message
//!   ([`CoalesceCosts`](mpmd_sim::CoalesceCosts)); the receiver pays one
//!   receive overhead plus `unmarshal_per_msg` per sub-message.
//! * A buffer holding a single message is flushed as an ordinary short
//!   send with ordinary charges (*adaptive* coalescing: strictly
//!   request-reply traffic never pays aggregation costs and never touches
//!   the `agg_*` counters).
//!
//! **Ordering.** Appends keep program order inside a buffer, and a flush
//! sends the buffer before any later message to the same destination (bulk
//! sends flush their destination first). The fabric keeps each link FIFO on
//! a fault-free wire, so per-(src,dst) delivery order equals program order
//! even when a small message follows a large frame. Under a fault model the
//! wire may reorder: the aggregate travels as one sequenced frame of the
//! reliable-delivery protocol (a retransmit re-sends the whole frame), and
//! the per-link sequence space provides the ordering.
//!
//! **Linger.** `max_linger` is checked where the sender itself makes
//! progress, on every fabric: an append that finds its buffer's deadline
//! passed flushes it, and every poll flushes everything. Nothing runs beside
//! a node's tasks, so a task that blocks on anything but
//! [`wait_until`](crate::wait_until) calls [`flush`](crate::flush) first (the
//! runtimes' blocking paths do); one that parks through the raw fabric on a
//! non-empty buffer keeps it until its next append or poll.

use crate::ops::SHORT_WIRE_BYTES;
use crate::state::AmState;
use crate::{AmMsg, HandlerId};
use mpmd_fabric::Fabric;
use mpmd_sim::{us, Bucket, NodeCell, Time, TraceEvent};
use std::collections::BTreeMap;

/// Handler id of the aggregate frame (reserved AM-internal range; the frame
/// is unpacked by the dispatch path itself, never via the handler table).
pub const H_COALESCED: HandlerId = 3;

/// Modeled wire size of one sub-message inside an aggregate (handler id +
/// four argument words + framing), vs. [`SHORT_WIRE_BYTES`] for the header
/// a standalone short message would repeat.
pub const SUB_WIRE_BYTES: usize = 40;

/// Aggregation-buffer bounds. All three limits are checked at append time;
/// any mandatory flush point empties the buffers regardless.
#[derive(Clone, Debug, PartialEq)]
pub struct CoalesceConfig {
    /// Flush when a destination's buffer holds this many messages.
    pub max_msgs: usize,
    /// Flush when a destination's buffered sub-message wire bytes reach
    /// this bound.
    pub max_bytes: usize,
    /// Flush when the oldest buffered message has waited this long on the
    /// sender's clock, seen at its next append or poll.
    pub max_linger: Time,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_msgs: 8,
            max_bytes: 512,
            max_linger: us(10.0),
        }
    }
}

/// One destination's aggregation buffer.
struct DstBuf {
    msgs: Vec<AmMsg>,
    bytes: usize,
    /// Linger deadline set when the first message was appended.
    deadline: Time,
}

/// Per-node coalescing state (inside [`AmState`]); present iff the runtime
/// enabled coalescing.
pub(crate) struct CoalesceState {
    cfg: CoalesceConfig,
    /// Buffers keyed by destination — a BTreeMap so `flush_all` sends in
    /// deterministic destination order.
    bufs: BTreeMap<usize, DstBuf>,
}

/// The sub-messages of an aggregate frame, carried as its token.
struct Batch(Vec<AmMsg>);

/// Switch this node's endpoint into coalescing mode. Called from runtime
/// initialization (the `CcxxConfig::coalescing` field or
/// `splitc::init_coalesced`); calling again with a different config panics,
/// mirroring [`init`](crate::init).
pub fn enable_coalescing<F: Fabric>(ctx: &F, cfg: CoalesceConfig) {
    assert!(cfg.max_msgs >= 1, "max_msgs must be at least 1");
    assert!(
        cfg.max_bytes >= SUB_WIRE_BYTES,
        "max_bytes below one sub-message"
    );
    let co = AmState::get(ctx).coalesce.get_or_init(|| {
        NodeCell::new(CoalesceState {
            cfg: cfg.clone(),
            bufs: BTreeMap::new(),
        })
    });
    let same = co.with(ctx, |cs| cs.cfg == cfg);
    assert!(same, "coalescing enabled twice with different configs");
}

/// Whether this node's endpoint coalesces short sends.
pub fn coalescing_enabled<F: Fabric>(ctx: &F) -> bool {
    AmState::get(ctx).coalesce.get().is_some()
}

/// Append one short message to its destination's buffer (the coalescing
/// branch of `send_inner`; nothing is charged here). Flushes — and then
/// polls, standing in for the skipped poll-on-send — when the append
/// tripped a buffer bound.
pub(crate) fn append<F: Fabric>(
    ctx: &F,
    st: &AmState<F>,
    co: &NodeCell<CoalesceState>,
    dst: usize,
    msg: AmMsg,
) {
    let now = ctx.now();
    let flush_now = co.with(ctx, |CoalesceState { cfg, bufs }| {
        let buf = bufs.entry(dst).or_insert_with(|| DstBuf {
            msgs: Vec::new(),
            bytes: 0,
            deadline: 0,
        });
        if buf.msgs.is_empty() {
            buf.deadline = now + cfg.max_linger;
        }
        buf.msgs.push(msg);
        buf.bytes += SUB_WIRE_BYTES;
        buf.msgs.len() >= cfg.max_msgs || buf.bytes >= cfg.max_bytes || now >= buf.deadline
    });
    if flush_now {
        flush_dst(ctx, st, dst);
        if st.profile().poll_on_send {
            crate::ops::poll(ctx);
        }
    }
}

/// Flush one destination's buffer, if non-empty.
pub(crate) fn flush_dst<F: Fabric>(ctx: &F, st: &AmState<F>, dst: usize) {
    let Some(co) = st.coalesce.get() else { return };
    let msgs = co.with(ctx, |cs| match cs.bufs.get_mut(&dst) {
        Some(buf) if !buf.msgs.is_empty() => {
            buf.bytes = 0;
            Some(std::mem::take(&mut buf.msgs))
        }
        _ => None,
    });
    if let Some(msgs) = msgs {
        send_frame(ctx, st, dst, msgs);
    }
}

/// Flush every destination's buffer (the mandatory flush points: poll entry
/// and exit, explicit [`flush`](crate::flush)). One load when coalescing is
/// disabled; one borrow of the cell when all buffers are empty.
pub(crate) fn flush_all<F: Fabric>(ctx: &F, st: &AmState<F>) {
    let Some(co) = st.coalesce.get() else { return };
    let pending: Vec<(usize, Vec<AmMsg>)> = co.with(ctx, |cs| {
        cs.bufs
            .iter_mut()
            .filter(|(_, b)| !b.msgs.is_empty())
            .map(|(dst, b)| {
                b.bytes = 0;
                (*dst, std::mem::take(&mut b.msgs))
            })
            .collect()
    });
    for (dst, msgs) in pending {
        send_frame(ctx, st, dst, msgs);
    }
}

/// Put one flushed buffer on the wire. A singleton goes out exactly like an
/// uncoalesced short send; two or more messages become one aggregate frame
/// charged as one header plus per-sub-message marshalling.
fn send_frame<F: Fabric>(ctx: &F, st: &AmState<F>, dst: usize, mut msgs: Vec<AmMsg>) {
    let p = st.profile();
    let n = msgs.len();
    // Occupancy distribution at flush time (singletons included: a median of
    // 1 says the buffers never get the chance to amortize anything).
    ctx.metric_observe("am.coalesce_occupancy", n as u64);
    if n == 1 {
        ctx.charge(Bucket::Net, p.send_charge(false));
        let msg = msgs.pop().expect("singleton vanished");
        crate::ops::wire(ctx, st, dst, msg, 0);
        return;
    }
    let data_len = n * SUB_WIRE_BYTES;
    let wire_bytes = SHORT_WIRE_BYTES + data_len;
    let marshal = ctx.cost().coalescing.marshal_per_msg;
    ctx.charge(Bucket::Net, p.send_charge(false) + n as u64 * marshal);
    ctx.with_stats(|s| {
        s.agg_flushes.add(1);
        s.agg_msgs.add(n as u64);
        s.agg_bytes.add(wire_bytes as u64);
    });
    ctx.trace_event(|| TraceEvent::CoalesceFlush {
        dst,
        msgs: n as u64,
        wire_bytes,
    });
    let frame = AmMsg {
        src: ctx.node(),
        handler: H_COALESCED,
        args: [n as u64, 0, 0, 0],
        data: None,
        token: Some(Box::new(Batch(msgs))),
    };
    crate::ops::wire(ctx, st, dst, frame, data_len);
}

/// The sub-messages of a received aggregate frame, in send order.
pub(crate) fn unbatch(frame: AmMsg) -> Vec<AmMsg> {
    frame
        .token
        .expect("aggregate frame without a batch token")
        .downcast::<Batch>()
        .expect("aggregate frame token was not a batch")
        .0
}
