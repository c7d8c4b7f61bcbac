//! CC++ runtime overhead calibration, fitted to the CC++ `Runtime` column
//! of Table 4. What each row charges from these fields, against the paper's
//! column, is one table: `table4_charges` in `mpmd-bench`'s `micro.rs`.
//!
//! "Due to method stub caching, the method lookup cost is about 3 µs" —
//! [`CcxxCosts::stub_lookup`].

use mpmd_sim::{us, Time};

/// Per-operation CC++ runtime charges, all attributed to
/// [`mpmd_sim::Bucket::Runtime`].
#[derive(Clone, Debug, PartialEq)]
pub struct CcxxCosts {
    /// Issuing an RMI (building the invocation record).
    pub send_issue: Time,
    /// Looking up the remote stub address in the local cache.
    pub stub_lookup: Time,
    /// Dispatching an incoming invocation at the receiver.
    pub recv_dispatch: Time,
    /// Building and issuing the reply at the receiver.
    pub reply_issue: Time,
    /// Consuming the reply at the initiator.
    pub reply_dispatch: Time,
    /// Extra initiator bookkeeping when the caller blocks on a sync variable
    /// instead of spinning.
    pub blocking_plumbing: Time,
    /// Extra receiver bookkeeping to hand the method to a fresh thread.
    pub threaded_dispatch: Time,
    /// Extra receiver bookkeeping for atomic methods (lock table lookup).
    pub atomic_lookup: Time,
    /// Optimistic-AM check: deciding on the receive path whether the method
    /// can run on the stack (OAM extension, §7 related work).
    pub oam_check: Time,
    /// Optimistic-AM abort: cutting the optimistic stack frame and
    /// restarting the method on a thread when it may block.
    pub oam_abort: Time,
    /// Invoking one serialization method (per marshalled element).
    pub serialize_per_elem: Time,
    /// Copying marshalled data (per byte, milli-ns units).
    pub marshal_copy_per_byte_millins: u64,
    /// The *extra* copy on the receive path (static buffer area → R-buffer,
    /// or R-buffer → CC++ object for bulk returns), per byte in milli-ns.
    /// "Bulk reads cost more than bulk writes in CC++ because the return
    /// data has to be copied twice."
    pub recv_extra_copy_per_byte_millins: u64,
    /// Resolving a method *name* at the receiver (cold path only).
    pub name_resolve: Time,
    /// Updating the local stub cache when a resolution reply arrives.
    pub cache_update: Time,
    /// Allocating a persistent R-buffer (cold path only).
    pub rbuf_alloc: Time,
    /// Blocking global-pointer access: initiator issue / completion.
    pub gp_issue: Time,
    pub gp_complete: Time,
    /// Blocking global-pointer access: owner serve / reply.
    pub gp_serve: Time,
    pub gp_reply: Time,
    /// Asynchronous (prefetch) global-pointer access costs.
    pub gp_async_issue: Time,
    pub gp_async_complete: Time,
    pub gp_async_serve: Time,
    pub gp_async_reply: Time,
    /// Dereferencing a global pointer that is local. In CC++ even local
    /// accesses through global pointers pay runtime overhead (the paper:
    /// "the big difference ... for low remote edge percentages is due to the
    /// overhead of accesses to local data through global pointers").
    pub local_gp_deref: Time,
}

impl Default for CcxxCosts {
    fn default() -> Self {
        CcxxCosts {
            send_issue: us(1.0),
            stub_lookup: us(3.0),
            recv_dispatch: us(2.0),
            reply_issue: us(1.0),
            reply_dispatch: us(1.0),
            blocking_plumbing: us(2.0),
            threaded_dispatch: us(1.0),
            atomic_lookup: us(1.0),
            oam_check: us(0.5),
            oam_abort: us(8.0),
            serialize_per_elem: us(0.95),
            marshal_copy_per_byte_millins: 45_000, // 45 ns/B = 0.045 µs/B
            recv_extra_copy_per_byte_millins: 140_000, // 140 ns/B = 0.14 µs/B
            name_resolve: us(2.0),
            cache_update: us(1.0),
            rbuf_alloc: us(3.0),
            gp_issue: us(4.0),
            gp_complete: us(6.0),
            gp_serve: us(3.0),
            gp_reply: us(3.0),
            gp_async_issue: us(2.0),
            gp_async_complete: us(4.0),
            gp_async_serve: us(1.5),
            gp_async_reply: us(1.5),
            local_gp_deref: us(1.0),
        }
    }
}

impl CcxxCosts {
    /// Marshalling copy charge for `bytes`.
    pub fn copy_charge(&self, bytes: usize) -> Time {
        (bytes as u64 * self.marshal_copy_per_byte_millins) / 1_000
    }

    /// Extra receive-path copy charge for `bytes`.
    pub fn extra_copy_charge(&self, bytes: usize) -> Time {
        (bytes as u64 * self.recv_extra_copy_per_byte_millins) / 1_000
    }
}
