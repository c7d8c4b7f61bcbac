//! Thread-package cost calibration.
//!
//! Network and language-runtime costs are owned by the `mpmd-am` and
//! `mpmd-ccxx` crates respectively; the simulator core only needs the costs of
//! the thread operations that its own scheduling machinery charges on behalf
//! of the layered threads package.
//!
//! The defaults are the per-op costs that Table 4's caption gives for its
//! `Threads Time` column (the digits are corrupted in the archived PDF). What
//! each row charges from them is one table: `table4_charges` in
//! `mpmd-bench`'s `micro.rs`.

use crate::time::{us, Time};

/// Unit costs of the lightweight, native, non-preemptive threads package.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadCosts {
    /// Cost of creating (forking) a thread.
    pub create: Time,
    /// Cost of a context switch (including voluntary yields).
    pub context_switch: Time,
    /// Cost of one lock, unlock, condition-variable signal or wait call.
    pub sync_op: Time,
}

impl Default for ThreadCosts {
    fn default() -> Self {
        ThreadCosts {
            create: us(5.0),
            context_switch: us(6.0),
            sync_op: us(0.4),
        }
    }
}

impl ThreadCosts {
    /// A heavyweight, preemptive (pthreads-like) cost profile, used for the
    /// CC++/Nexus baseline. The paper notes thread-management cost "can be
    /// prohibitively high if a more heavyweight or preemptive threads package
    /// is used".
    pub fn heavyweight() -> Self {
        ThreadCosts {
            create: us(60.0),
            context_switch: us(25.0),
            sync_op: us(5.0),
        }
    }

    /// A zero-cost profile, useful in unit tests that check pure scheduling
    /// semantics without time accounting.
    pub fn free() -> Self {
        ThreadCosts {
            create: 0,
            context_switch: 0,
            sync_op: 0,
        }
    }
}

/// Unit costs of the reliable-delivery protocol layered over the wire by
/// `mpmd-am` when a [`FaultModel`] is installed. Charged to the `Net` bucket
/// on whichever node performs the work, so reliability overhead lands in the
/// five-bucket breakdown next to the send/receive overheads it extends.
#[derive(Clone, Debug, PartialEq)]
pub struct ReliabilityCosts {
    /// Cost of producing or consuming one acknowledgement.
    pub ack_handling: Time,
    /// Cost of one retransmit-timer expiration check that found due work.
    pub timeout_check: Time,
    /// Cost of re-issuing one unacknowledged packet.
    pub retransmit: Time,
}

impl Default for ReliabilityCosts {
    fn default() -> Self {
        ReliabilityCosts {
            ack_handling: us(1.0),
            timeout_check: us(0.5),
            retransmit: us(2.0),
        }
    }
}

impl ReliabilityCosts {
    /// A zero-cost profile (protocol-semantics tests).
    pub fn free() -> Self {
        ReliabilityCosts {
            ack_handling: 0,
            timeout_check: 0,
            retransmit: 0,
        }
    }
}

/// Unit costs of the per-destination message-coalescing layer in `mpmd-am`.
/// Charged to the `Net` bucket: an aggregated frame pays one send overhead
/// plus `marshal_per_msg` for each sub-message packed into it, and the
/// receiver pays one receive overhead plus `unmarshal_per_msg` per
/// sub-message unpacked. Singleton flushes bypass aggregation entirely and
/// charge exactly what an uncoalesced send would, so these costs only appear
/// when two or more messages actually share a frame.
#[derive(Clone, Debug, PartialEq)]
pub struct CoalesceCosts {
    /// Cost of packing one sub-message into an aggregation buffer.
    pub marshal_per_msg: Time,
    /// Cost of unpacking one sub-message from a received aggregate.
    pub unmarshal_per_msg: Time,
}

impl Default for CoalesceCosts {
    fn default() -> Self {
        CoalesceCosts {
            marshal_per_msg: us(0.3),
            unmarshal_per_msg: us(0.3),
        }
    }
}

impl CoalesceCosts {
    /// A zero-cost profile (coalescing-semantics tests).
    pub fn free() -> Self {
        CoalesceCosts {
            marshal_per_msg: 0,
            unmarshal_per_msg: 0,
        }
    }
}

/// Fault rates and delay parameters of the wire, the same on every directed
/// link.
///
/// Probabilities are per transmission attempt and must lie in `[0, 1)`
/// (a link that drops everything can never quiesce).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a transmitted packet is dropped by the wire.
    pub drop: f64,
    /// Probability a transmitted packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is held back by an extra delay drawn uniformly
    /// from `[1, reorder_window]` ns, letting later sends overtake it.
    pub reorder: f64,
    /// Window for the reorder hold-back draw.
    pub reorder_window: Time,
    /// Probability a packet is delayed by a fixed `delay_by`.
    pub delay: f64,
    /// Fixed extra delay applied to `delay`-selected packets.
    pub delay_by: Time,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: us(100.0),
            delay: 0.0,
            delay_by: us(50.0),
        }
    }
}

impl LinkFaults {
    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("delay", self.delay),
        ] {
            assert!(
                (0.0..1.0).contains(&p),
                "fault rate `{name}` = {p} outside [0, 1)"
            );
        }
    }
}

/// Deterministic fault-injection model, seeded per `Sim` and off by default.
///
/// Installed through [`CostModel::faults`]; its presence switches the AM
/// layer into reliable-delivery mode (sequence numbers, acks, retransmits),
/// so an all-zero-rate model measures the pure protocol overhead. All fault
/// decisions are drawn from one seeded generator on the kernel, in
/// simulation order, so identical seeds give byte-identical runs.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultModel {
    /// Seed for the per-`Sim` fault decision stream.
    pub seed: u64,
    /// Fault rates applied to every link.
    pub link: LinkFaults,
    /// Initial retransmission timeout of the reliable-delivery protocol.
    pub rto_initial: Time,
    /// Backoff cap: timeouts double from `rto_initial` up to this bound.
    pub rto_max: Time,
}

impl FaultModel {
    /// A fault-free model: enables the reliable-delivery protocol (useful to
    /// measure its overhead) without perturbing the wire.
    pub fn new(seed: u64) -> Self {
        FaultModel {
            seed,
            link: LinkFaults::default(),
            rto_initial: us(500.0),
            rto_max: crate::time::ms(64.0),
        }
    }

    /// A model applying the same drop/duplicate/reorder rates to every link.
    pub fn uniform(seed: u64, drop: f64, duplicate: f64, reorder: f64) -> Self {
        let mut m = FaultModel::new(seed);
        m.link.drop = drop;
        m.link.duplicate = duplicate;
        m.link.reorder = reorder;
        m
    }

    /// Panic on out-of-range rates (checked when a `Sim` installs the model).
    pub(crate) fn validate(&self) {
        self.link.validate();
        assert!(self.rto_initial > 0, "rto_initial must be positive");
        assert!(
            self.rto_max >= self.rto_initial,
            "rto_max below rto_initial"
        );
    }
}

/// Costs the simulator core knows about.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostModel {
    /// Thread-operation costs.
    pub threads: ThreadCosts,
    /// Reliable-delivery protocol costs (charged only when `faults` is set).
    pub reliability: ReliabilityCosts,
    /// Message-coalescing costs (charged only when a runtime enables
    /// per-destination aggregation in the AM layer).
    pub coalescing: CoalesceCosts,
    /// Fault-injection model; `None` (the default) leaves the wire perfect
    /// and the AM layer's reliability machinery disabled.
    pub faults: Option<FaultModel>,
    /// Keep a [`MetricsRegistry`](crate::MetricsRegistry) for the run: the
    /// one metrics switch, on both fabrics, carried here so measurement
    /// harnesses reach it through app entry points that already take a cost
    /// model. Off by default (on for `LocalFabricBuilder`): the recording
    /// hooks are then no-ops, exactly like the tracer's.
    pub metrics: bool,
}

impl CostModel {
    /// Cost model with all thread operations free (pure-semantics tests).
    pub fn free() -> Self {
        CostModel {
            threads: ThreadCosts::free(),
            reliability: ReliabilityCosts::free(),
            coalescing: CoalesceCosts::free(),
            faults: None,
            metrics: false,
        }
    }

    /// This cost model with `faults` installed.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// This cost model with metrics collection enabled.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavyweight_is_heavier() {
        let l = ThreadCosts::default();
        let h = ThreadCosts::heavyweight();
        assert!(h.create > l.create);
        assert!(h.context_switch > l.context_switch);
        assert!(h.sync_op > l.sync_op);
    }
}
