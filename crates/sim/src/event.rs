//! Network messages and the engine's event queue.

use crate::task::TaskId;
use crate::time::Time;
use bytes::Bytes;
use std::any::Any;
use std::cmp::Ordering;

/// What a message carries.
///
/// The hot case — the 4-word Active Message request/reply that dominates
/// every experiment in the paper — stores its handler id and argument words
/// **inline**, so putting a short message on the wire allocates nothing.
/// Bulk transfers add a reference-counted byte payload; `Any` keeps the old
/// fully-typed escape hatch for protocol frames and tests.
pub enum Payload {
    /// A short AM: handler id + four argument words, all inline. The
    /// optional continuation token (a reply-cell address on real hardware)
    /// is caller-allocated and merely carried.
    Short {
        handler: u32,
        args: [u64; 4],
        token: Option<Box<dyn Any + Send>>,
    },
    /// A short AM header plus a bulk byte payload.
    Bulk {
        handler: u32,
        args: [u64; 4],
        data: Bytes,
        token: Option<Box<dyn Any + Send>>,
    },
    /// Opaque typed payload, downcast by the receiver (reliable-delivery
    /// frames, raw-substrate tests).
    Any(Box<dyn Any + Send>),
}

impl Payload {
    /// Wrap an arbitrary typed value (allocates; the inline variants above
    /// are for the allocation-free fast path).
    pub fn any<T: Any + Send>(v: T) -> Payload {
        Payload::Any(Box::new(v))
    }

    /// Downcast an [`Payload::Any`] payload. Returns `Err(self)` for inline
    /// variants or a type mismatch.
    pub fn downcast<T: Any>(self) -> Result<Box<T>, Payload> {
        match self {
            Payload::Any(b) => b.downcast::<T>().map_err(Payload::Any),
            other => Err(other),
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Short { handler, args, .. } => f
                .debug_struct("Short")
                .field("handler", handler)
                .field("args", args)
                .finish_non_exhaustive(),
            Payload::Bulk { handler, data, .. } => f
                .debug_struct("Bulk")
                .field("handler", handler)
                .field("len", &data.len())
                .finish_non_exhaustive(),
            Payload::Any(_) => f.write_str("Any(..)"),
        }
    }
}

/// An in-flight or delivered message.
///
/// The simulator core is payload-agnostic beyond the inline fast path: the
/// messaging layer (`mpmd-am`) interprets the payload on receipt.
/// `wire_bytes` is the modeled on-the-wire size, used for byte accounting
/// and (by the AM layer) for per-byte transfer costs.
pub struct Msg {
    /// Sending node.
    pub src: usize,
    /// Modeled wire size in bytes.
    pub wire_bytes: usize,
    /// The payload, interpreted by the messaging layer.
    pub payload: Payload,
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Msg")
            .field("src", &self.src)
            .field("wire_bytes", &self.wire_bytes)
            .finish_non_exhaustive()
    }
}

/// What happens when an event fires.
pub(crate) enum EventKind {
    /// A message arrives at a node's inbox.
    Deliver { node: usize, msg: Msg },
    /// A timer wake for `Ctx::sleep` and `Ctx::park_for_inbox_until`
    /// (reliable-delivery retransmit timers). Carries the generation the task
    /// had when the timer was armed; a wake for any other reason bumps the
    /// generation, so a stale timer firing later is ignored.
    TimeoutWake { task: TaskId, gen: u64 },
}

/// A pending event, held by the kernel's heap. Ordered as a *min*-heap key
/// on `(time, seq)`; `seq` is a global issue counter that makes ordering
/// total and deterministic. The heap keeps its capacity across the run, so
/// steady-state event traffic allocates nothing.
pub(crate) struct EventKey {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so that BinaryHeap (a max-heap) pops the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time: Time, seq: u64) -> EventKey {
        EventKey {
            time,
            seq,
            kind: EventKind::TimeoutWake {
                task: TaskId(0),
                gen: 0,
            },
        }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut h = BinaryHeap::new();
        h.push(ev(30, 0));
        h.push(ev(10, 1));
        h.push(ev(20, 2));
        assert_eq!(h.pop().unwrap().time, 10);
        assert_eq!(h.pop().unwrap().time, 20);
        assert_eq!(h.pop().unwrap().time, 30);
    }

    #[test]
    fn ties_break_by_issue_order() {
        let mut h = BinaryHeap::new();
        h.push(ev(10, 5));
        h.push(ev(10, 2));
        h.push(ev(10, 9));
        assert_eq!(h.pop().unwrap().seq, 2);
        assert_eq!(h.pop().unwrap().seq, 5);
        assert_eq!(h.pop().unwrap().seq, 9);
    }

    #[test]
    fn payload_downcast_round_trip() {
        let p = Payload::any(42u64);
        assert_eq!(*p.downcast::<u64>().unwrap(), 42);
        let p = Payload::any(7u32);
        assert!(p.downcast::<u64>().is_err());
        let inline = Payload::Short {
            handler: 1,
            args: [0; 4],
            token: None,
        };
        assert!(inline.downcast::<u64>().is_err());
    }
}
