//! Reply continuation cells.
//!
//! On real hardware an AM request carries the address of a completion flag /
//! result buffer that the reply handler fills in. In the simulation the
//! "address" is an `Arc<ReplyCell>` carried in the message token; the reply
//! handler on the requesting node completes the cell, and whatever task is
//! waiting observes it. The reply is written once, so the cell is one
//! `OnceLock`: completing it publishes the words and the payload together,
//! and reading them takes no lock.

use bytes::Bytes;
use std::sync::{Arc, OnceLock};

/// Completion cell for one outstanding request.
#[derive(Default)]
pub struct ReplyCell {
    /// The reply words and bulk payload, set once by the reply handler.
    reply: OnceLock<([u64; 4], Option<Bytes>)>,
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

    fn reply(&self) -> &([u64; 4], Option<Bytes>) {
        self.reply.get().expect("reply not complete")
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
