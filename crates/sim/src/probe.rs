//! The per-node store behind every instrumentation method of
//! [`Fabric`](crate::Fabric).

use crate::metrics::{bucket_index, Histogram, NodeMetrics};
use crate::stats::Stats;
use crate::trace::{NodeTrace, SpanId, TraceConfig, TraceRecord, TraceRing};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError};

/// One node's instrumentation: its [`Stats`] ledger, its histograms and, on
/// a traced run, its trace ring. Each fabric keeps one per node in the state
/// its baton owns — the simulator in its kernel's node state, `LocalFabric`
/// in the node's scheduler — and lends it through
/// [`Fabric::probe`](crate::Fabric::probe), over which the trait writes every
/// instrumentation method once. Plain fields, written only by the holder of
/// the node's baton: no lock, and no atomic but a traced run's span-id
/// counter.
///
/// The simulator's probe holds the node's totals. `LocalFabric` keeps its
/// totals in a second probe behind a lock and [`drain`](Probe::drain)s the
/// first into it before anything the node did can be seen from another node
/// (ahead of every send), where the node stops anyway (its idle park, its
/// exit) and in `snapshot()`.
#[derive(Default)]
pub struct Probe {
    pub(crate) stats: Stats,
    /// Histograms by name, in first-use order. A dozen names at most, so one
    /// scan of the (densely packed) names beats hashing them; each
    /// comparison tries the address first — a call site passes the same
    /// literal every time — and the value second, because two call sites
    /// naming the same metric may hold different copies of the literal.
    hist_names: Vec<&'static str>,
    hists: Vec<Histogram>,
    /// The src→dst traffic matrix, which only the simulator's kernel writes.
    pub(crate) keyed: BTreeMap<&'static str, BTreeMap<u64, u64>>,
    trace: Option<TraceRing>,
    /// Which halves `drain` has to fold; raised by `stats` and `observe`
    /// alone, so no counting site can forget them.
    stats_dirty: bool,
    hists_dirty: bool,
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

    /// The node's ledger, to add to (a totals probe's, to read).
    #[inline]
    pub fn stats(&mut self) -> &mut Stats {
        self.stats_dirty = true;
        &mut self.stats
    }

    /// Record `v` into histogram `name`.
    #[inline]
    pub(crate) fn observe(&mut self, name: &'static str, v: u64) {
        self.hists_dirty = true;
        self.hist(name).record(v);
    }

    #[inline]
    fn hist(&mut self, name: &'static str) -> &mut Histogram {
        let found = self
            .hist_names
            .iter()
            .position(|n| std::ptr::eq(*n, name) || *n == name);
        let i = found.unwrap_or_else(|| {
            // Room for a run's dozen names at the first one, so that a
            // later first use does not reallocate inside a measured stretch.
            if self.hists.is_empty() {
                self.hist_names.reserve(16);
                self.hists.reserve(16);
            }
            self.hist_names.push(name);
            self.hists.push(Histogram::default());
            self.hists.len() - 1
        });
        &mut self.hists[i]
    }

    /// A fresh span id; the sentinel when not tracing.
    pub(crate) fn next_span(&mut self) -> SpanId {
        self.trace.as_mut().map_or(SpanId(0), TraceRing::alloc_span)
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

    /// The node's metrics as one registry block.
    pub fn metrics(&self) -> NodeMetrics {
        let hists = self
            .hist_names
            .iter()
            .copied()
            .zip(self.hists.iter().cloned());
        NodeMetrics {
            keyed: self.keyed.clone(),
            hists: hists.collect(),
        }
    }

    /// Fold what this probe counted into `totals` and zero it. The lock is
    /// taken only when there is something to fold, the histograms are
    /// visited only when one was written, and no user code runs under the
    /// lock.
    #[inline]
    pub fn drain(&mut self, totals: &Mutex<Probe>) {
        let stats = std::mem::take(&mut self.stats_dirty);
        let hists = std::mem::take(&mut self.hists_dirty);
        if !(stats || hists) {
            return;
        }
        let mut t = totals.lock().unwrap_or_else(PoisonError::into_inner);
        if stats {
            t.stats.merge(&self.stats);
            self.stats = Stats::default();
        }
        if hists {
            for (name, h) in self.hist_names.iter().zip(&mut self.hists) {
                if h.count > 0 {
                    drain_hist(t.hist(name), h);
                }
            }
        }
    }
}

/// Move `h` into `total` and leave it empty, touching only the buckets between
/// its smallest and largest sample: a drained histogram holds a sample or two,
/// not 65 buckets' worth.
fn drain_hist(total: &mut Histogram, h: &mut Histogram) {
    if total.count == 0 {
        (total.min, total.max) = (h.min, h.max);
    } else {
        total.min = total.min.min(h.min);
        total.max = total.max.max(h.max);
    }
    total.count += std::mem::take(&mut h.count);
    total.sum += std::mem::take(&mut h.sum);
    for i in bucket_index(h.min)..=bucket_index(h.max) {
        total.buckets[i] += std::mem::take(&mut h.buckets[i]);
    }
    (h.min, h.max) = (0, 0);
}
