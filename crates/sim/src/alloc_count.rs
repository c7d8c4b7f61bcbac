//! The counting allocator behind every allocation gate, and the per-node
//! counts it keeps.
//!
//! A test, bench or bin installs it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and reads
//! the counts from snapshots ([`Snapshot::allocs`](crate::Snapshot::allocs)),
//! like every other per-node count.
//!
//! An allocation counts to the node whose context holds the baton on the
//! allocating thread, as the baton records it ([`crate::baton`]): a node's
//! tasks count to the node, on both fabrics and both task hosts, and each
//! baton's engine counts apart. An allocation made outside any baton (the
//! test harness's own thread, a thread a task started) counts to no node, so
//! nothing the run does not order can race a gate's window.
//!
//! The counts live in a fixed static table of slots. A baton takes a slot
//! for each of its nodes and one for its engine when it is made, and gives
//! them back zeroed when it drops; the allocator only finds the calling
//! thread's slot in the baton's record and never allocates. A slot is written
//! like a ledger's [`Counter`]: only by its baton's holder, with a relaxed
//! load and store, and published by the frames and hand-offs that follow.

use crate::baton;
use crate::stats::Counter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::{Mutex, PoisonError};

/// The system allocator, counting each allocation call to its node.
pub struct CountingAlloc;

/// How many nodes and engines of live runs can count at once.
const SLOTS: usize = 1 << 14;

/// One count, alone in its 128-byte block: two nodes' threads that allocate
/// at once share no line.
#[repr(align(128))]
struct Slot(Counter);

static COUNTS: [Slot; SLOTS] = [const { Slot(Counter::new()) }; SLOTS];

/// The slot no count goes to: a thread's outside any baton.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// The slots never taken start at `.0`; given-back ones wait in `.1`.
static FREE: Mutex<(usize, Vec<u32>)> = Mutex::new((0, Vec::new()));

/// A free slot, at zero.
pub(crate) fn take() -> u32 {
    let mut free = FREE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(slot) = free.1.pop() {
        return slot;
    }
    let slot = free.0;
    assert!(
        slot < SLOTS,
        "more than {SLOTS} nodes and engines of live runs"
    );
    free.0 += 1;
    slot as u32
}

/// Give `slot` back, zeroed. Nothing may count to it any more.
pub(crate) fn give_back(slot: u32) {
    COUNTS[slot as usize].0.set(0);
    FREE.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .1
        .push(slot);
}

/// The allocations counted to `slot`; 0 for [`NO_SLOT`].
pub(crate) fn count(slot: u32) -> u64 {
    COUNTS.get(slot as usize).map_or(0, |s| s.0.get())
}

/// Count one allocation to the calling thread's slot, if it has one.
#[inline]
fn bump() {
    if let Some(s) = COUNTS.get(baton::slot_here() as usize) {
        s.0.add(1);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(p, l, n) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}
