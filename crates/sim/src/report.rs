//! End-of-run (and mid-run snapshot) reporting.

use crate::metrics::MetricsRegistry;
use crate::stats::{Bucket, Stats};
use crate::time::{to_us, Time};
use crate::trace::TraceLog;

/// A point-in-time capture of every node's clock and stats, used to measure
/// a region of a simulation (e.g. excluding warm-up iterations that populate
/// the method-stub cache).
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub clocks: Vec<Time>,
    pub stats: Vec<Stats>,
    /// Heap allocations each node's tasks have made, counted when
    /// [`CountingAlloc`](crate::CountingAlloc) is the global allocator
    /// (else 0). Published like `stats`.
    pub allocs: Vec<u64>,
    /// The same of the run's engines, which run as no node.
    pub engine_allocs: u64,
    /// Cumulative metrics at capture time, when a registry is installed.
    pub metrics: Option<MetricsRegistry>,
}

impl Snapshot {
    /// The report of a run that ended at this capture, with its trace.
    pub fn report(self, trace: Option<TraceLog>) -> Report {
        Report {
            clocks: self.clocks,
            stats: self.stats,
            allocs: self.allocs,
            engine_allocs: self.engine_allocs,
            trace,
            metrics: self.metrics,
        }
    }

    /// Difference `later - self` as a [`Report`].
    pub fn until(&self, later: &Snapshot) -> Report {
        assert_eq!(self.clocks.len(), later.clocks.len());
        Report {
            clocks: self
                .clocks
                .iter()
                .zip(&later.clocks)
                .map(|(a, b)| b.checked_sub(*a).expect("clock went backwards"))
                .collect(),
            stats: self
                .stats
                .iter()
                .zip(&later.stats)
                .map(|(a, b)| b.since(a))
                .collect(),
            allocs: self
                .allocs
                .iter()
                .zip(&later.allocs)
                .map(|(a, b)| b - a)
                .collect(),
            engine_allocs: later.engine_allocs - self.engine_allocs,
            trace: None,
            metrics: match (&self.metrics, &later.metrics) {
                (Some(a), Some(b)) => Some(b.since(a)),
                _ => None,
            },
        }
    }
}

/// Final (or interval) measurements of a simulation: per-node elapsed virtual
/// time and instrumentation counters.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-node elapsed virtual time.
    pub clocks: Vec<Time>,
    /// Per-node instrumentation.
    pub stats: Vec<Stats>,
    /// Per-node heap allocations ([`Snapshot::allocs`]); never in the JSON.
    pub allocs: Vec<u64>,
    /// The engines' heap allocations ([`Snapshot::engine_allocs`]).
    pub engine_allocs: u64,
    /// Structured event log, present when the run used
    /// [`Sim::tracing`](crate::Sim::tracing) (or `LocalFabricBuilder::tracing`).
    /// Snapshot-interval reports
    /// ([`Snapshot::until`]) carry `None`; the full-run log stays on the
    /// final report.
    pub trace: Option<TraceLog>,
    /// Metrics registry, present when the run's cost model kept metrics
    /// ([`CostModel::with_metrics`](crate::CostModel::with_metrics)).
    /// Snapshot-interval reports carry the interval difference.
    pub metrics: Option<MetricsRegistry>,
}

impl Report {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.clocks.len()
    }

    /// Wall (virtual) time of the run: the maximum node clock.
    pub fn elapsed(&self) -> Time {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Sum of all nodes' stats.
    pub fn total_stats(&self) -> Stats {
        let mut acc = Stats::default();
        for s in &self.stats {
            acc.merge(s);
        }
        acc
    }

    /// Total charged time for one bucket across all nodes.
    pub fn bucket_total(&self, b: Bucket) -> Time {
        self.stats.iter().map(|s| s.bucket(b)).sum()
    }

    /// Sum of node clocks (node-seconds of elapsed virtual time). The
    /// residual `busy_total() - charged buckets` is the idle/wire time that
    /// the paper's methodology folds into the "net"/"AM" component.
    pub fn busy_total(&self) -> Time {
        self.clocks.iter().sum()
    }

    /// The paper's "net"/"AM" component: elapsed node-time not attributed to
    /// cpu, thread mgmt, thread sync or runtime. This includes both the
    /// charged messaging-layer CPU overheads ([`Bucket::Net`]) and idle time
    /// spent waiting on the wire.
    pub fn net_component(&self) -> Time {
        let other = Bucket::ALL.into_iter().filter(|&b| b != Bucket::Net);
        let other: Time = other.map(|b| self.bucket_total(b)).sum();
        self.busy_total().saturating_sub(other)
    }

    /// Pretty one-line summary (µs), for ad-hoc debugging.
    pub fn summary(&self) -> String {
        let t = self.total_stats();
        format!(
            "elapsed={:.1}us cpu={:.1} net={:.1} mgmt={:.1} sync={:.1} rt={:.1} msgs={} creates={} switches={} syncs={}",
            to_us(self.elapsed()),
            to_us(t.bucket(Bucket::Cpu)),
            to_us(self.net_component()),
            to_us(t.bucket(Bucket::ThreadMgmt)),
            to_us(t.bucket(Bucket::ThreadSync)),
            to_us(t.bucket(Bucket::Runtime)),
            t.msgs_sent,
            t.thread_creates,
            t.context_switches,
            t.sync_ops,
        )
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for Report {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("clocks_ns".to_string(), self.clocks.to_value());
        map.insert("stats".to_string(), self.stats.to_value());
        map.insert("elapsed_ns".to_string(), self.elapsed().to_value());
        map.insert("busy_total_ns".to_string(), self.busy_total().to_value());
        map.insert(
            "net_component_ns".to_string(),
            self.net_component().to_value(),
        );
        let mut buckets = serde::Map::new();
        for b in Bucket::ALL {
            buckets.insert(b.label().to_string(), self.bucket_total(b).to_value());
        }
        map.insert(
            "bucket_totals_ns".to_string(),
            serde::Value::Object(buckets),
        );
        // Only present when a registry was installed, so metrics-off runs
        // keep byte-identical JSON output.
        if let Some(m) = &self.metrics {
            map.insert("metrics".to_string(), m.to_value());
        }
        serde::Value::Object(map)
    }
}

#[cfg(feature = "serde")]
impl Report {
    /// Machine-readable form of the report: per-node clocks and stats plus
    /// the derived totals (elapsed, per-bucket sums, net residual). The
    /// event trace, if any, is exported separately
    /// ([`TraceLog::to_chrome_trace`] / [`TraceLog::to_jsonl`]).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(clocks: Vec<Time>) -> Report {
        let stats = vec![Stats::default(); clocks.len()];
        Report {
            allocs: vec![0; clocks.len()],
            engine_allocs: 0,
            clocks,
            stats,
            trace: None,
            metrics: None,
        }
    }

    #[test]
    fn elapsed_is_max_clock() {
        assert_eq!(mk(vec![5, 9, 3]).elapsed(), 9);
        assert_eq!(mk(vec![]).elapsed(), 0);
    }

    #[test]
    fn snapshot_until_diffs() {
        let a = Snapshot {
            clocks: vec![100, 200],
            stats: vec![Stats::default(), Stats::default()],
            allocs: vec![3, 0],
            engine_allocs: 1,
            metrics: None,
        };
        let s1 = Stats {
            msgs_sent: 7,
            ..Default::default()
        };
        let b = Snapshot {
            clocks: vec![150, 260],
            stats: vec![s1, Stats::default()],
            allocs: vec![5, 2],
            engine_allocs: 1,
            metrics: None,
        };
        let r = a.until(&b);
        assert_eq!(r.clocks, vec![50, 60]);
        assert_eq!(r.stats[0].msgs_sent, 7);
        assert_eq!((&r.allocs[..], r.engine_allocs), (&[2, 2][..], 0));
        assert_eq!(r.elapsed(), 60);
    }

    #[test]
    fn net_component_is_residual() {
        let mut st = Stats::default();
        st.bucket_ns[Bucket::Cpu.index()] = 30;
        st.bucket_ns[Bucket::Net.index()] = 10; // charged net CPU overhead
        st.bucket_ns[Bucket::Runtime.index()] = 20;
        let r = Report {
            clocks: vec![100],
            stats: vec![st],
            allocs: vec![0],
            engine_allocs: 0,
            trace: None,
            metrics: None,
        };
        // residual = 100 - (30 + 20) = 50 (includes the 10 charged + 40 idle)
        assert_eq!(r.net_component(), 50);
    }
}
