//! Reply continuation: how a request's reply finds its issuer.
//!
//! On real hardware an AM request carries the address of a completion flag /
//! result buffer that the reply handler fills in. Here the "address" rides
//! in the message token, and is one of two things:
//!
//! * a [`ReplyCell`], for a split-phase access whose issuer reads the reply
//!   later, perhaps without a fabric handle: one `OnceLock`, written once.
//! * a [`CallRecord`], for a blocking access (a CC++ RMI or global-pointer
//!   access, a Split-C `read`, `write`, bulk or atomic access). The issuer
//!   takes one from its node's free list ([`CallRecords`], allocating only
//!   when it is empty) and sends it as the token of the request; the callee
//!   sends it back as the token of the reply. The frames carry the access
//!   and its reply. The reply handler, back on the issuer's node, stores the
//!   reply into the record, parks the record in its [`RecordCell`] and wakes
//!   the issuer only if it blocks; an issuer that does not block spin-polls
//!   in its runtime's own loop.
//!
//! A record lives on the node that issued the access. A callee may touch
//! only its `far` part, which each runtime defines (CC++: a four-word call's
//! fourth word, an object id too wide for the request, a cold call's stub
//! resolution; Split-C: nothing). The rest is a [`NodeCell`], so a callee on
//! another node that reaches into it fails the run with `ACROSS_NODES`.
//!
//! **Only the task that issued an access recycles its record**, after taking
//! the reply out ([`CallRecords::wait`]); the reply handler never does. (A
//! blocked issuer woken but not yet scheduled would find its cell re-armed
//! by a sibling's next access.) A record whose issuer has unwound is dropped
//! with its cell; one in flight when the run fails, with its message.

use crate::{AmMsg, Token};
use bytes::Bytes;
use mpmd_fabric::Fabric;
use mpmd_sim::NodeCell;
use mpmd_threads::SyncVar;
use std::sync::{Arc, OnceLock};

/// A reply's four words and its bulk payload, if any.
pub type Reply = ([u64; 4], Option<Bytes>);

/// Completion cell for one outstanding request.
#[derive(Default)]
pub struct ReplyCell {
    /// The reply words and bulk payload, set once by the reply handler.
    reply: OnceLock<Reply>,
}

impl ReplyCell {
    /// A fresh, incomplete cell.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Whether the reply has arrived.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.reply.get().is_some()
    }

    /// Complete with word results only. Panics if already complete.
    pub fn complete(&self, words: [u64; 4]) {
        self.set(words, None);
    }

    /// Complete with words and a bulk payload. Panics if already complete.
    pub fn complete_with_data(&self, words: [u64; 4], data: Bytes) {
        self.set(words, Some(data));
    }

    fn set(&self, words: [u64; 4], data: Option<Bytes>) {
        assert!(
            self.reply.set((words, data)).is_ok(),
            "reply completed twice"
        );
    }

    /// The reply words. Panics if not complete.
    pub fn words(&self) -> [u64; 4] {
        self.reply().0
    }

    /// The reply bulk payload, if any (a reference-counted clone). Panics if
    /// not complete.
    pub fn data(&self) -> Option<Bytes> {
        self.reply().1.clone()
    }

    fn reply(&self) -> &Reply {
        self.reply.get().expect("reply not complete")
    }
}

/// One blocking access, out and back: the box is the token of the request
/// and of the reply. Owned by the issuing node for its whole life — see the
/// module docs for what a callee may touch.
#[derive(Default)]
pub struct CallRecord<X> {
    /// The issuer's half: only the issuing node's tasks touch it.
    home: NodeCell<Home<X>>,
    /// What a callee may read or write, through [`CallRecord::far_in`].
    pub far: X,
}

/// The part of a call record only its own node touches.
#[derive(Default)]
struct Home<X> {
    /// The reply, stored by the reply handler.
    reply: Reply,
    /// Where the reply handler leaves this record for the issuer; `None`
    /// from that hand-over until the issuer puts its clone back, so a record
    /// parked for an issuer that has unwound does not keep itself alive.
    cell: Option<Arc<RecordCell<X>>>,
}

/// A call record's completion cell, kept across the record's reuses.
#[derive(Default)]
pub struct RecordCell<X> {
    /// Whether the reply handler wakes the issuer (else it spins).
    blocks: bool,
    /// The record, back from the callee with its reply stored.
    returned: NodeCell<Option<Box<CallRecord<X>>>>,
    /// Written after `returned` is filled; what a blocking issuer waits on.
    sv: SyncVar<()>,
}

impl<X: Send + 'static> CallRecord<X> {
    /// The record a reply carries.
    pub fn of(m: &mut AmMsg) -> Box<Self> {
        m.token
            .take()
            .expect("message without its call record")
            .downcast::<Self>()
            .expect("foreign token where a call record belongs")
    }

    /// What a callee may touch of the record a request carries.
    pub fn far_in(token: &mut Option<Token>) -> &mut X {
        token
            .as_mut()
            .and_then(|t| t.downcast_mut::<Self>())
            .map(|rec| &mut rec.far)
            .expect("request without its call record")
    }

    /// Reply-handler side, on the issuer's node: store `reply` into the
    /// record and hand the record to the task that issued the access,
    /// waking that task if it blocks. Not recycled here: that task may not
    /// have run yet (module docs).
    pub fn land<F: Fabric>(self: Box<Self>, ctx: &F, reply: Reply) {
        let cell = self.home.with(ctx, |home| {
            home.reply = reply;
            home.cell.take().expect("call record without its cell")
        });
        cell.returned.with(ctx, |r| *r = Some(self));
        if cell.blocks {
            cell.sv.write(ctx, ());
        }
    }

    /// Read the issuer's half of the record, as no callee may: on any node
    /// but the record's own this fails the run with `ACROSS_NODES`.
    #[doc(hidden)]
    pub fn debug_touch<F: Fabric>(&self, ctx: &F) -> bool {
        self.home.with(ctx, |home| home.cell.is_some())
    }
}

/// A node's call records not in use: taken by its issuers, returned by
/// them, never sent here by another node. Boxed because the box itself is
/// what travels as the message token.
#[derive(Default)]
pub struct CallRecords<X>(NodeCell<Vec<Box<CallRecord<X>>>>);

impl<X: Default + Send + 'static> CallRecords<X> {
    /// Take a record from the free list (allocating only when it is empty)
    /// and re-arm its cell for an issuer that `blocks` or spins. Returns the
    /// record, the request's token, and the cell to [`wait`](Self::wait) on.
    pub fn take<F: Fabric>(
        &self,
        ctx: &F,
        blocks: bool,
    ) -> (Box<CallRecord<X>>, Arc<RecordCell<X>>) {
        let rec = self.0.with(ctx, Vec::pop).unwrap_or_default();
        let cell = rec.home.with(ctx, |home| {
            // A pooled record's clone is the only one left (the handler that
            // returned it ran on this node and has dropped its own); a new
            // record has no cell yet.
            match home.cell.as_mut().and_then(Arc::get_mut) {
                Some(cell) => {
                    cell.blocks = blocks;
                    cell.sv.rearm();
                }
                None => {
                    let cell = RecordCell {
                        blocks,
                        ..RecordCell::default()
                    };
                    home.cell = Some(Arc::new(cell));
                }
            }
            Arc::clone(home.cell.as_ref().expect("armed above"))
        });
        (rec, cell)
    }

    /// Wait until the reply handler parks the record in `cell` (on the cell's
    /// sync variable if the issuer blocks, else in `spin`, the runtime's
    /// spin-poll loop), take the reply out and put the record back on the
    /// free list. Only the task that issued the access calls this.
    pub fn wait<F: Fabric>(
        &self,
        ctx: &F,
        cell: Arc<RecordCell<X>>,
        spin: impl FnOnce(&mut dyn FnMut() -> bool),
    ) -> Reply {
        let rec = if cell.blocks {
            // Blocking read: flush any coalesced sends first, or the request
            // could sit buffered while this task sleeps on the reply.
            crate::flush(ctx);
            cell.sv.read(ctx);
            cell.returned.with(ctx, Option::take)
        } else {
            let mut back = None;
            spin(&mut || {
                back = cell.returned.with(ctx, Option::take);
                back.is_some()
            });
            back
        }
        .expect("reply not complete");
        let reply = rec.home.with(ctx, |home| {
            home.cell = Some(cell);
            std::mem::take(&mut home.reply)
        });
        self.0.with(ctx, |free| free.push(rec));
        reply
    }

    /// Records on the free list.
    pub fn len<F: Fabric>(&self, ctx: &F) -> usize {
        self.0.with(ctx, |free| free.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_cell_lifecycle() {
        let c = ReplyCell::new();
        assert!(!c.is_done());
        c.complete([1, 2, 3, 4]);
        assert!(c.is_done());
        assert_eq!(c.words(), [1, 2, 3, 4]);
        assert!(c.data().is_none());
    }

    #[test]
    fn reply_cell_with_data() {
        let c = ReplyCell::new();
        c.complete_with_data([0; 4], Bytes::from_static(b"abc"));
        assert_eq!(c.data().unwrap().as_ref(), b"abc");
        assert_eq!(
            c.data().unwrap().as_ref(),
            b"abc",
            "data is read, not taken"
        );
    }

    #[test]
    #[should_panic(expected = "reply not complete")]
    fn words_before_completion_panics() {
        ReplyCell::new().words();
    }

    #[test]
    #[should_panic(expected = "reply completed twice")]
    fn a_second_completion_panics() {
        let c = ReplyCell::new();
        c.complete([1, 0, 0, 0]);
        c.complete([2, 0, 0, 0]);
    }
}
