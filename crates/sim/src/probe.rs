//! The per-node stores behind every instrumentation method of
//! [`Fabric`](crate::Fabric): the node's totals ([`Ledger`]), which only the
//! holder of its baton writes and `snapshot()` and the report read in place,
//! and what only the node itself reads ([`Probe`]). A frame publishes every
//! count its sender made before it (the Release store of its ring slot), so a
//! snapshot taken after receiving it, directly or through a chain of frames
//! (a barrier), holds those counts; so does any other Acquire/Release
//! hand-off.

use crate::metrics::{HistTable, NodeMetrics};
use crate::stats::StatCells;
use crate::trace::{NodeTrace, SpanId, TraceConfig, TraceRecord, TraceRing};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// One node's totals: its [`Stats`](crate::Stats) counters and, on a run that
/// keeps metrics, its histograms, as single-writer [`Counter`](crate::Counter)s
/// in whole 128-byte blocks of their own. No lock, no read-modify-write.
#[repr(align(128))]
pub struct Ledger {
    pub(crate) stats: StatCells,
    /// Absent when metrics are off: such a run pays for no table.
    hists: Option<Box<HistTable>>,
}

impl Ledger {
    pub(crate) fn new(metrics: bool) -> Self {
        Ledger {
            stats: StatCells::default(),
            hists: metrics.then(|| Box::new(HistTable::new())),
        }
    }

    /// Record `v` into histogram `name`, on a run that keeps metrics.
    #[inline]
    pub(crate) fn observe(&self, name: &'static str, v: u64) {
        if let Some(hists) = &self.hists {
            hists.observe(name, v);
        }
    }

    /// The histograms as they stand, with the simulator's traffic matrix
    /// (`LocalFabric` keeps none).
    pub(crate) fn metrics(
        &self,
        keyed: &BTreeMap<&'static str, BTreeMap<u64, u64>>,
    ) -> NodeMetrics {
        NodeMetrics {
            keyed: keyed.clone(),
            hists: self.hists.as_ref().map(|h| h.read()).unwrap_or_default(),
        }
    }
}

/// What only the holder of a node's baton reads: on a traced run the node's
/// trace ring, and on the simulator its src→dst traffic matrix. Each fabric
/// keeps one per node in the state its baton owns — the simulator in its
/// kernel's node state, `LocalFabric` in the node's scheduler — and lends it
/// through [`Fabric::probe`](crate::Fabric::probe). Plain fields: no lock,
/// and no atomic but a traced run's span-id counter.
#[derive(Default)]
pub struct Probe {
    /// The src→dst traffic matrix, which only the simulator's kernel writes.
    pub(crate) keyed: BTreeMap<&'static str, BTreeMap<u64, u64>>,
    trace: Option<TraceRing>,
}

impl Probe {
    /// A probe that keeps a trace ring when `trace` is given, numbering its
    /// spans from `span_ids`: probes that share the counter share one
    /// sequence of ids.
    pub fn new(trace: Option<&TraceConfig>, span_ids: &Arc<AtomicU64>) -> Self {
        Probe {
            trace: trace.map(|config| TraceRing::new(config, span_ids)),
            ..Probe::default()
        }
    }

    /// A fresh span id; the sentinel when not tracing.
    pub(crate) fn next_span(&mut self) -> SpanId {
        self.trace.as_mut().map_or(SpanId(0), TraceRing::alloc_span)
    }

    /// Whether the probe keeps a trace ring.
    #[inline]
    pub(crate) fn traces(&self) -> bool {
        self.trace.is_some()
    }

    /// Append `rec` to the ring, if there is one. Panics when `rec` ends a
    /// frame other than its task's innermost open one.
    #[inline]
    pub fn record(&mut self, rec: TraceRecord) {
        if let Some(ring) = &mut self.trace {
            ring.record(rec);
        }
    }

    /// The ring's records and drop count, taken once at the end of the run.
    pub fn take_trace(&mut self) -> Option<NodeTrace> {
        self.trace.take().map(TraceRing::finish)
    }
}
