//! Metrics registry: virtual-time histograms and keyed counters.
//!
//! The paper's tables report *means* (a null RMI costs 55 µs, a sync read
//! 53 µs); the follow-up literature on AM-style runtimes is unanimous that
//! means hide the pathologies — retransmit storms, inbox pile-ups, coalesce
//! stalls all live in the tail. This module records full per-node
//! distributions of the interesting quantities as deterministic log2-bucketed
//! histograms, alongside the src→dst traffic matrix as keyed counters.
//!
//! Like the tracer, the registry is opt-in and **zero-cost when absent**:
//! every recording hook bails on the cost model's switch without building
//! any payload, and a run without it has no histogram table. Turn it on with
//! [`CostModel::with_metrics`](crate::CostModel::with_metrics); each node
//! records into its [`Ledger`](crate::Ledger), and the filled registry comes
//! back on [`Report::metrics`](crate::Report::metrics).
//!
//! Everything here is integer arithmetic over virtual nanoseconds, so two
//! runs of the same seeded program produce byte-identical serialized
//! registries regardless of host, thread count, or wall-clock conditions.

use crate::stats::Counter;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i >= 1`
/// holds values with bit length `i`, i.e. the range `[2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a recorded value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Smallest value a bucket can hold.
#[inline]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value a bucket can hold.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A deterministic log2-bucketed histogram of `u64` samples (virtual
/// nanoseconds, queue depths, occupancies).
///
/// Quantiles are derived from the buckets by rank walk and reported as the
/// upper edge of the bucket holding the target rank, clamped to the exact
/// observed `[min, max]` — deterministic, and never off by more than the
/// bucket's width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// The quantile given in per-mille (`500` = p50, `990` = p99): the upper
    /// edge of the bucket containing the target rank, clamped to
    /// `[min, max]`. Returns 0 for an empty histogram.
    pub fn quantile_pm(&self, pmille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count * pmille).div_ceil(1000).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (bucket resolution).
    pub fn p50(&self) -> u64 {
        self.quantile_pm(500)
    }

    /// 90th percentile (bucket resolution).
    pub fn p90(&self) -> u64 {
        self.quantile_pm(900)
    }

    /// 99th percentile (bucket resolution).
    pub fn p99(&self) -> u64 {
        self.quantile_pm(990)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Accumulate another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// Interval difference `self - earlier` (both cumulative captures of the
    /// same histogram). Counts and bucket contents subtract exactly; `min`
    /// and `max` cannot be recovered from cumulative captures, so they are
    /// re-derived from the surviving buckets at bucket resolution (exact when
    /// the earlier capture was empty).
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        fn sub(a: u64, b: u64) -> u64 {
            a.checked_sub(b).expect("histogram counter went backwards")
        }
        let mut buckets = [0u64; HIST_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = sub(self.buckets[i], earlier.buckets[i]);
        }
        let count = sub(self.count, earlier.count);
        let sum = sub(self.sum, earlier.sum);
        let (min, max) = if count == 0 {
            (0, 0)
        } else if earlier.count == 0 {
            (self.min, self.max)
        } else {
            let lo = buckets.iter().position(|&c| c > 0).expect("count > 0");
            let hi = buckets.iter().rposition(|&c| c > 0).expect("count > 0");
            (bucket_lower(lo), bucket_upper(hi).min(self.max))
        };
        Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        }
    }
}

/// Histogram names one node keeps: the first use of one more panics.
pub const HIST_NAMES: usize = 16;

/// One node's histograms as [`Counter`]s, by name in first-use order, each
/// name set once by the recorder. One scan of a dozen names beats hashing;
/// a comparison tries the address first (a call site passes the same literal
/// every time), then the value (two call sites may hold two copies).
#[repr(align(128))]
pub(crate) struct HistTable {
    names: [OnceLock<&'static str>; HIST_NAMES],
    hists: [HistCells; HIST_NAMES],
}

impl HistTable {
    pub(crate) fn new() -> Self {
        HistTable {
            names: std::array::from_fn(|_| OnceLock::new()),
            hists: std::array::from_fn(|_| HistCells::new()),
        }
    }

    /// Record `v` into histogram `name`.
    #[inline]
    pub(crate) fn observe(&self, name: &'static str, v: u64) {
        let same = |n: &&'static str| std::ptr::eq(*n, name) || *n == name;
        let Some(i) = self.names.iter().position(|n| same(n.get_or_init(|| name))) else {
            panic!("a node keeps at most HIST_NAMES = {HIST_NAMES} histograms: `{name}`")
        };
        self.hists[i].record(v);
    }

    /// Every histogram that holds a sample.
    pub(crate) fn read(&self) -> BTreeMap<&'static str, Histogram> {
        let named = self.names.iter().map_while(OnceLock::get).zip(&self.hists);
        let read = named.map(|(name, h)| (*name, h.read()));
        read.filter(|(_, h)| h.count > 0).collect()
    }
}

/// One histogram's cells. Its count is the sum of its buckets as read, so a
/// snapshot taken while samples land still adds up.
struct HistCells {
    sum: Counter,
    /// `u64::MAX` until the first sample.
    min: Counter,
    max: Counter,
    buckets: [Counter; HIST_BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        let min = Counter::default();
        min.set(u64::MAX);
        HistCells {
            sum: Counter::default(),
            min,
            max: Counter::default(),
            buckets: std::array::from_fn(|_| Counter::default()),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.min.set(self.min.get().min(v));
        self.max.set(self.max.get().max(v));
        self.sum.add(v);
        self.buckets[bucket_index(v)].add(1);
    }

    fn read(&self) -> Histogram {
        let buckets: [u64; HIST_BUCKETS] = std::array::from_fn(|i| self.buckets[i].get());
        let count = buckets.iter().sum();
        let max = if count == 0 { 0 } else { self.max.get() };
        Histogram {
            count,
            sum: self.sum.get(),
            min: self.min.get().min(max),
            max,
            buckets,
        }
    }
}

/// One node's metrics: per-key counters (the traffic matrix, keyed by
/// destination node) and histograms.
///
/// All maps are `BTreeMap` so iteration — and therefore serialization — is
/// in deterministic name order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    pub keyed: BTreeMap<&'static str, BTreeMap<u64, u64>>,
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl NodeMetrics {
    /// Accumulate another node's metrics.
    pub fn merge(&mut self, other: &NodeMetrics) {
        for (k, m) in &other.keyed {
            let e = self.keyed.entry(k).or_default();
            for (key, v) in m {
                *e.entry(*key).or_insert(0) += v;
            }
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }

    /// Interval difference `self - earlier`: keyed counters and histograms
    /// subtract.
    pub fn since(&self, earlier: &NodeMetrics) -> NodeMetrics {
        fn sub(a: u64, b: u64) -> u64 {
            a.checked_sub(b).expect("metrics counter went backwards")
        }
        let mut out = NodeMetrics::default();
        for (k, m) in &self.keyed {
            let em = earlier.keyed.get(k);
            let mut dm = BTreeMap::new();
            for (key, v) in m {
                let d = sub(*v, em.and_then(|e| e.get(key)).copied().unwrap_or(0));
                if d > 0 {
                    dm.insert(*key, d);
                }
            }
            if !dm.is_empty() {
                out.keyed.insert(k, dm);
            }
        }
        for (k, h) in &self.hists {
            let d = h.since(earlier.hists.get(k).unwrap_or(&Histogram::default()));
            if d.count > 0 {
                out.hists.insert(k, d);
            }
        }
        out
    }
}

/// A run's metrics: one [`NodeMetrics`] block per node. Returned whole on
/// [`Report::metrics`](crate::Report::metrics) after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsRegistry {
    /// Per-node metrics, indexed by node.
    pub nodes: Vec<NodeMetrics>,
}

impl MetricsRegistry {
    /// All nodes merged into one roll-up block.
    pub fn global(&self) -> NodeMetrics {
        let mut acc = NodeMetrics::default();
        for n in &self.nodes {
            acc.merge(n);
        }
        acc
    }

    /// The global (merged) histogram under `name`, if any node recorded it.
    pub fn hist(&self, name: &str) -> Option<Histogram> {
        let mut found = self.nodes.iter().filter_map(|n| n.hists.get(name));
        let mut acc = found.next()?.clone();
        found.for_each(|h| acc.merge(h));
        Some(acc)
    }

    /// Interval difference `self - earlier`, node by node.
    pub fn since(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        assert_eq!(self.nodes.len(), earlier.nodes.len());
        MetricsRegistry {
            nodes: self
                .nodes
                .iter()
                .zip(&earlier.nodes)
                .map(|(a, b)| a.since(b))
                .collect(),
        }
    }
}

#[cfg(feature = "serde")]
mod serialize {
    use super::*;

    impl serde::Serialize for Histogram {
        fn to_value(&self) -> serde::Value {
            let mut m = serde::Map::new();
            m.insert("count".to_string(), self.count.to_value());
            m.insert("sum".to_string(), self.sum.to_value());
            m.insert("min".to_string(), self.min.to_value());
            m.insert("max".to_string(), self.max.to_value());
            m.insert("p50".to_string(), self.p50().to_value());
            m.insert("p90".to_string(), self.p90().to_value());
            m.insert("p99".to_string(), self.p99().to_value());
            // Nonzero buckets as [lower_bound, count] pairs, in value order
            // (a string-keyed object would re-sort lexicographically).
            let buckets: Vec<serde::Value> = self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| serde::Value::Array(vec![bucket_lower(i).to_value(), c.to_value()]))
                .collect();
            m.insert("buckets".to_string(), serde::Value::Array(buckets));
            serde::Value::Object(m)
        }
    }

    impl serde::Serialize for NodeMetrics {
        fn to_value(&self) -> serde::Value {
            let mut m = serde::Map::new();
            if !self.keyed.is_empty() {
                let mut km = serde::Map::new();
                for (k, pairs) in &self.keyed {
                    let arr: Vec<serde::Value> = pairs
                        .iter()
                        .map(|(key, v)| serde::Value::Array(vec![key.to_value(), v.to_value()]))
                        .collect();
                    km.insert(k.to_string(), serde::Value::Array(arr));
                }
                m.insert("keyed".to_string(), serde::Value::Object(km));
            }
            if !self.hists.is_empty() {
                let mut h = serde::Map::new();
                for (k, v) in &self.hists {
                    h.insert(k.to_string(), v.to_value());
                }
                m.insert("histograms".to_string(), serde::Value::Object(h));
            }
            serde::Value::Object(m)
        }
    }

    impl serde::Serialize for MetricsRegistry {
        fn to_value(&self) -> serde::Value {
            let mut m = serde::Map::new();
            m.insert("global".to_string(), self.global().to_value());
            m.insert("nodes".to_string(), self.nodes.to_value());
            serde::Value::Object(m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The histogram a node's cells hold after recording `vals`.
    fn hist(vals: &[u64]) -> Histogram {
        let cells = HistCells::new();
        vals.iter().for_each(|&v| cells.record(v));
        cells.read()
    }

    #[test]
    fn bucket_edges_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower edge of {i}");
            assert_eq!(bucket_index(bucket_upper(i)), i, "upper edge of {i}");
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let h = hist(&[53_000, 53_000, 55_000, 88_000]);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 249_000);
        assert_eq!(h.min, 53_000);
        assert_eq!(h.max, 88_000);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let h = hist(&[53_000; 100]);
        // All samples identical: every quantile is exactly the sample, not
        // the bucket edge (65_535).
        assert_eq!(h.p50(), 53_000);
        assert_eq!(h.p99(), 53_000);
        assert_eq!(h.quantile_pm(1000), 53_000);
    }

    #[test]
    fn quantiles_walk_ranks() {
        // 90 in bucket [64, 127], 10 in [2^19, 2^20).
        let h = hist(&[[100; 90].as_slice(), &[1_000_000; 10]].concat());
        assert_eq!(h.p50(), 127); // within the low bucket
        assert!(h.p99() >= 1_000_000, "p99 must land in the tail bucket");
        assert_eq!(h.quantile_pm(900), 127);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = hist(&[]);
        assert_eq!(h, Histogram::default());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn merge_accumulates_and_since_subtracts() {
        let a = hist(&[10, 20]);
        let b = hist(&[10, 20, 1_000]);
        let d = b.since(&a);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 1_000);
        // min/max re-derived at bucket resolution: 1_000 is in [512, 1023].
        assert_eq!(d.min, 512);
        assert_eq!(d.max, 1_000); // capped at the later capture's exact max
        let mut m = a.clone();
        m.merge(&d);
        assert_eq!(m.count, b.count);
        assert_eq!(m.sum, b.sum);
    }

    #[test]
    fn since_from_empty_is_exact() {
        let empty = Histogram::default();
        let h = hist(&[77, 33]);
        let d = h.since(&empty);
        assert_eq!(d, h);
    }

    /// A registry with one node per table, as a run builds it.
    fn registry(tables: &[HistTable]) -> MetricsRegistry {
        let node = |t: &HistTable| NodeMetrics {
            keyed: BTreeMap::new(),
            hists: t.read(),
        };
        MetricsRegistry {
            nodes: tables.iter().map(node).collect(),
        }
    }

    #[test]
    fn registry_global_merges_nodes() {
        let t = [HistTable::new(), HistTable::new()];
        t[0].observe("lat", 100);
        t[1].observe("lat", 200);
        let mut r = registry(&t);
        r.nodes[0].keyed.insert("to", [(1, 5), (2, 3)].into());
        r.nodes[1].keyed.insert("to", [(0, 7), (2, 4)].into());
        let g = r.global();
        assert_eq!(g.hists["lat"].count, 2);
        assert_eq!(g.keyed["to"][&0], 7);
        assert_eq!(g.keyed["to"][&1], 5);
        assert_eq!(g.keyed["to"][&2], 7);
        assert_eq!(r.hist("lat").unwrap().sum, 300);
        assert_eq!(r.hist("absent"), None);
    }

    #[test]
    fn registry_since_diffs_per_node() {
        let t = [HistTable::new()];
        t[0].observe("h", 50);
        t[0].observe("quiet", 1);
        let mut a = registry(&t);
        a.nodes[0].keyed.insert("to", [(1, 2), (2, 4)].into());
        t[0].observe("h", 60);
        let mut b = registry(&t);
        b.nodes[0]
            .keyed
            .insert("to", [(1, 5), (2, 4), (3, 1)].into());
        let d = b.since(&a);
        // Keys and histograms that did not move drop out of the interval.
        assert_eq!(d.nodes[0].keyed["to"], [(1, 3), (3, 1)].into());
        assert_eq!(d.nodes[0].hists["h"].count, 1);
        assert!(!d.nodes[0].hists.contains_key("quiet"));
    }

    /// A name is found by its value as well as its address, and a table
    /// holds exactly `HIST_NAMES` names: the first use of one more panics
    /// with the limit named.
    #[test]
    fn the_table_holds_hist_names_names() {
        let t = HistTable::new();
        let names: Vec<&'static str> = (0..=HIST_NAMES).map(|i| &*format!("h{i}").leak()).collect();
        for (i, name) in names[..HIST_NAMES].iter().enumerate() {
            t.observe(name, i as u64);
        }
        t.observe(format!("h{}", HIST_NAMES - 1).leak(), 1);
        assert_eq!(t.read().len(), HIST_NAMES);
        assert_eq!(t.read()[names[HIST_NAMES - 1]].count, 2);
        let more = std::panic::catch_unwind(|| t.observe(names[HIST_NAMES], 0));
        let msg = *more
            .expect_err("one name too many")
            .downcast::<String>()
            .unwrap();
        assert!(
            msg.contains(&format!("at most HIST_NAMES = {HIST_NAMES}")),
            "{msg}"
        );
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serialized_buckets_are_pairs_in_value_order() {
        let t = [HistTable::new()];
        for v in [0, 3, 300] {
            t[0].observe("h", v);
        }
        let r = registry(&t);
        let json = serde_json::to_string(&serde::Serialize::to_value(&r)).unwrap();
        assert!(json.contains("\"buckets\":[[0,1],[2,1],[256,1]]"), "{json}");
        assert!(json.contains("\"global\""));
    }
}
