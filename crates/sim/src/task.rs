//! What every scheduler knows of a task, whichever host runs it: its id, and
//! the body a host runs on the task's own stack.
//!
//! Simulated tasks are *stackful*: application code written against the
//! runtimes blocks in the middle of ordinary Rust call stacks (a remote read
//! deep inside an inner loop parks the task until the reply arrives). The
//! build picks the host of those stacks ([`crate::baton::BACKEND`]):
//! userspace fibers on x86-64 unix (`fiber.rs`), pooled OS threads elsewhere
//! and under `--cfg mpmd_no_fibers` (`pool.rs`). Either way exactly one
//! context of a baton runs at a time, so the choice changes what a hand-off
//! costs the host and nothing a run computes.

use crate::baton::TaskCell;
use std::sync::Arc;

/// Identifier of a task: `seq * nodes + node`, where `seq` counts its node's
/// spawns, so an id names its node. Never reused within one run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// What a task body returns: who gets the baton next, `None` meaning the
/// engine (nothing runnable, or a panic to propagate). The body does all
/// kernel bookkeeping and *picks* the successor; the host performs the
/// switch once the finished task's host resources are reusable.
pub type TaskBody = Box<dyn FnOnce() -> Option<Arc<TaskCell>> + Send>;
