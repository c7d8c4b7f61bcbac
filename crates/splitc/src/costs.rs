//! Split-C runtime overhead calibration.
//!
//! Split-C's compiler performs "simple source-to-source transformations,
//! converting the language extensions into runtime library calls"; the
//! runtime overhead per call is small. Defaults are fitted to the Split-C
//! `Runtime` column of Table 4; what each row charges from them, against
//! that column, is one table: `table4_charges` in `mpmd-bench`'s `micro.rs`.

use mpmd_sim::{us, Time};

/// Per-operation runtime charges (ns), all attributed to
/// [`mpmd_sim::Bucket::Runtime`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScCosts {
    /// Issuing a synchronous global-pointer read or write.
    pub sync_access_issue: Time,
    /// Completing a synchronous access (consuming the reply).
    pub sync_access_complete: Time,
    /// Issuing an atomic RPC.
    pub atomic_issue: Time,
    /// Completing an atomic RPC.
    pub atomic_complete: Time,
    /// Executing an atomic function at the remote end (table lookup).
    pub atomic_dispatch: Time,
    /// Issuing a split-phase get/put.
    pub split_issue: Time,
    /// Completion bookkeeping when a split-phase reply/ack arrives.
    pub split_complete: Time,
    /// One `sync()` call (on top of per-operation completions).
    pub sync_call: Time,
    /// Issuing a bulk read/write/store.
    pub bulk_issue: Time,
    /// Completing a bulk operation at the initiator.
    pub bulk_complete: Time,
    /// Servicing a remote access at the owner (read/write the location).
    pub serve_access: Time,
    /// Dereferencing a global pointer that happens to be local.
    pub local_deref: Time,
}

impl Default for ScCosts {
    fn default() -> Self {
        ScCosts {
            sync_access_issue: us(2.0),
            sync_access_complete: us(2.0),
            atomic_issue: us(1.5),
            atomic_complete: us(1.5),
            atomic_dispatch: us(0.5),
            split_issue: us(3.0),
            split_complete: us(2.7),
            sync_call: us(1.0),
            bulk_issue: us(2.0),
            bulk_complete: us(2.0),
            serve_access: us(0.5),
            local_deref: us(0.05),
        }
    }
}
