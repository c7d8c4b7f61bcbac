//! Per-node cost accounting.
//!
//! The paper instruments the AM layer and the threads package "to account for
//! the number, types, and sizes of message transfers as well as the number of
//! threads, context switches, and synchronization operations", and reports all
//! application results broken into five components: **cpu**, **net**,
//! **thread mgmt**, **thread sync** and **(CC++) runtime**. [`Stats`] is that
//! instrumentation block; every node carries one.

use crate::time::Time;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The five cost components of the paper's breakdown figures (Figures 5 & 6).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Application computation (FP kernels, local data structure work).
    Cpu,
    /// Messaging-layer CPU occupancy (send/receive overheads). Wire latency is
    /// *not* charged anywhere: it shows up as idle virtual time and is
    /// recovered as the residual `total - sum(charged buckets)`, matching the
    /// paper's `Total = AM + Threads + Runtime` accounting.
    Net,
    /// Thread creation and context switches.
    ThreadMgmt,
    /// Locks, unlocks, condition-variable signals and waits.
    ThreadSync,
    /// Language-runtime overhead: marshalling, method-name lookup, buffer
    /// management, global-pointer bookkeeping.
    Runtime,
}

/// Number of [`Bucket`] variants.
pub const NUM_BUCKETS: usize = 5;

impl Bucket {
    /// Index into a `[u64; NUM_BUCKETS]` accumulator array: the declaration
    /// order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All buckets, in display order.
    pub const ALL: [Bucket; NUM_BUCKETS] = [
        Bucket::Cpu,
        Bucket::Net,
        Bucket::ThreadMgmt,
        Bucket::ThreadSync,
        Bucket::Runtime,
    ];

    /// Human-readable label used by the reporting binaries.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Cpu => "cpu",
            Bucket::Net => "net",
            Bucket::ThreadMgmt => "thread mgmt",
            Bucket::ThreadSync => "thread sync",
            Bucket::Runtime => "runtime",
        }
    }
}

/// Instrumentation counters for one node, each a `C`: a value in [`Stats`],
/// a node's own [`Counter`] in [`StatCells`].
///
/// Time totals are virtual nanoseconds; event counters are raw counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsOf<C> {
    /// Charged virtual time per [`Bucket`], indexed by [`Bucket::index`].
    pub bucket_ns: [C; NUM_BUCKETS],
    /// Threads created (the paper's `Create` column).
    pub thread_creates: C,
    /// Context switches / yields (the paper's `Yield` column).
    pub context_switches: C,
    /// Lock, unlock, signal and wait calls (the paper's `Sync` column).
    pub sync_ops: C,
    /// Lock acquisitions (subset of `sync_ops`; used for the paper's
    /// "95% of lock acquisitions are contention-less" claim).
    pub lock_acquisitions: C,
    /// Lock acquisitions that found the lock held.
    pub lock_contended: C,
    /// Messages sent from this node.
    pub msgs_sent: C,
    /// Messages delivered to this node.
    pub msgs_received: C,
    /// Payload bytes sent from this node.
    pub bytes_sent: C,
    /// Short (4-word) active messages sent.
    pub short_msgs: C,
    /// Bulk-transfer active messages sent.
    pub bulk_msgs: C,
    /// Poll operations executed.
    pub polls: C,
    /// Message handlers executed on this node.
    pub handlers_run: C,
    /// Histogram of sent wire sizes; bucket `i` counts messages of size
    /// `<= 64 * 4^i` bytes (64 B, 256 B, 1 KiB, 4 KiB, 16 KiB, 64 KiB,
    /// 256 KiB, larger). The paper's instrumentation records "the number,
    /// types, and sizes of message transfers".
    pub msg_size_hist: [C; 8],
    /// Reliable-delivery packets re-sent after a retransmission timeout.
    pub retransmits: C,
    /// Retransmit-timer scans that found at least one overdue packet.
    pub timeouts: C,
    /// Received packets discarded by duplicate suppression (sequence number
    /// already delivered).
    pub dup_drops: C,
    /// Transmission attempts dropped on the wire by the fault model.
    pub wire_drops: C,
    /// Transmission attempts duplicated on the wire by the fault model.
    pub wire_dups: C,
    /// Aggregated frames flushed by the coalescing layer (frames carrying
    /// two or more sub-messages; singleton flushes are ordinary sends).
    pub agg_flushes: C,
    /// Sub-messages that travelled inside aggregated frames.
    pub agg_msgs: C,
    /// Wire bytes of aggregated frames.
    pub agg_bytes: C,
}

/// The counters as values: a snapshot's, a report's or an interval's.
pub type Stats = StatsOf<u64>;

/// One node's counters as it keeps them, which its `with_stats` closures add
/// to and any snapshot reads.
pub type StatCells = StatsOf<Counter>;

/// One count of one node, written only by the holder of the node's baton with
/// a relaxed load and a relaxed store (on x86 the plain `mov`s of `+=`), never
/// a read-modify-write, and read by anyone. A reader that has synchronized
/// with the writer since a count (a frame sent after it) sees it.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A count at zero.
    pub(crate) const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`, as the node's baton holder: two writers would lose counts.
    #[inline]
    pub fn add(&self, n: u64) {
        self.set(self.get() + n);
    }

    /// The count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    #[inline]
    pub(crate) fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }
}

// Hand-rolled rather than `serde::impl_serialize!`: the reliability counters
// are emitted only when nonzero so fault-free runs keep byte-identical JSON
// output (keys land in alphabetical order regardless of insertion order).
#[cfg(feature = "serde")]
impl serde::Serialize for Stats {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        macro_rules! put {
            ($($field:ident),+ $(,)?) => {
                $(map.insert(
                    stringify!($field).to_string(),
                    serde::Serialize::to_value(&self.$field),
                );)+
            };
        }
        macro_rules! put_nonzero {
            ($($field:ident),+ $(,)?) => {
                $(if self.$field != 0 {
                    map.insert(
                        stringify!($field).to_string(),
                        serde::Serialize::to_value(&self.$field),
                    );
                })+
            };
        }
        put!(
            bucket_ns,
            thread_creates,
            context_switches,
            sync_ops,
            lock_acquisitions,
            lock_contended,
            msgs_sent,
            msgs_received,
            bytes_sent,
            short_msgs,
            bulk_msgs,
            polls,
            handlers_run,
            msg_size_hist,
        );
        put_nonzero!(
            retransmits,
            timeouts,
            dup_drops,
            wire_drops,
            wire_dups,
            agg_flushes,
            agg_msgs,
            agg_bytes,
        );
        serde::Value::Object(map)
    }
}

/// Histogram bucket index for a wire size.
pub fn size_bucket(bytes: usize) -> usize {
    (0..7).find(|&i| bytes <= 64 << (2 * i)).unwrap_or(7)
}

/// Upper bound (bytes) of histogram bucket `i` (`None` for the last).
pub fn size_bucket_limit(i: usize) -> Option<usize> {
    (i < 7).then(|| 64 << (2 * i))
}

impl Stats {
    /// Charged time for one bucket.
    #[inline]
    pub fn bucket(&self, b: Bucket) -> Time {
        self.bucket_ns[b.index()]
    }

    /// Sum of all charged time.
    #[inline]
    pub fn charged_total(&self) -> Time {
        self.bucket_ns.iter().sum()
    }

    /// Accumulate another stats block into this one.
    pub fn merge(&mut self, other: &Stats) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Element-wise difference `self - earlier` (panics on counter regression,
    /// which would indicate a bookkeeping bug).
    pub fn since(&self, earlier: &Stats) -> Stats {
        self.zip(earlier, |a, b| {
            a.checked_sub(*b).expect("stats counter went backwards")
        })
    }
}

impl StatCells {
    /// The counts, one relaxed load each.
    pub(crate) fn read(&self) -> Stats {
        self.zip(self, |c, _| c.get())
    }
}

impl<C> StatsOf<C> {
    /// `f` of every counter of `self` and the same counter of `other`.
    #[inline]
    fn zip<D, E>(&self, other: &StatsOf<D>, mut f: impl FnMut(&C, &D) -> E) -> StatsOf<E> {
        let (a, b) = (self, other);
        macro_rules! zip {
            ($($x:ident),+ $(,)?) => {
                StatsOf {
                    bucket_ns: std::array::from_fn(|i| f(&a.bucket_ns[i], &b.bucket_ns[i])),
                    msg_size_hist: std::array::from_fn(|i| {
                        f(&a.msg_size_hist[i], &b.msg_size_hist[i])
                    }),
                    $($x: f(&a.$x, &b.$x),)+
                }
            };
        }
        zip! {
            thread_creates, context_switches, sync_ops, lock_acquisitions, lock_contended,
            msgs_sent, msgs_received, bytes_sent, short_msgs, bulk_msgs, polls, handlers_run,
            retransmits, timeouts, dup_drops, wire_drops, wire_dups, agg_flushes, agg_msgs,
            agg_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_dense_and_distinct() {
        let mut seen = [false; NUM_BUCKETS];
        for b in Bucket::ALL {
            assert!(!seen[b.index()], "duplicate index for {b:?}");
            seen[b.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Stats::default();
        a.bucket_ns[Bucket::Cpu.index()] = 10;
        a.msgs_sent = 3;
        let mut b = Stats::default();
        b.bucket_ns[Bucket::Cpu.index()] = 5;
        b.bucket_ns[Bucket::Net.index()] = 7;
        b.msgs_sent = 2;
        a.merge(&b);
        assert_eq!(a.bucket(Bucket::Cpu), 15);
        assert_eq!(a.bucket(Bucket::Net), 7);
        assert_eq!(a.msgs_sent, 5);
    }

    #[test]
    fn since_subtracts() {
        let mut early = Stats {
            sync_ops: 4,
            ..Default::default()
        };
        early.bucket_ns[Bucket::ThreadSync.index()] = 1_600;
        let mut late = early.clone();
        late.sync_ops = 14;
        late.bucket_ns[Bucket::ThreadSync.index()] = 5_600;
        let d = late.since(&early);
        assert_eq!(d.sync_ops, 10);
        assert_eq!(d.bucket(Bucket::ThreadSync), 4_000);
    }

    #[test]
    #[should_panic(expected = "counter went backwards")]
    fn since_panics_on_regression() {
        let early = Stats {
            sync_ops: 4,
            ..Default::default()
        };
        let late = Stats::default();
        let _ = late.since(&early);
    }

    #[test]
    fn size_buckets_partition_sizes() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(64), 0);
        assert_eq!(size_bucket(65), 1);
        assert_eq!(size_bucket(256), 1);
        assert_eq!(size_bucket(1024), 2);
        assert_eq!(size_bucket(4096), 3);
        assert_eq!(size_bucket(1 << 30), 7);
        assert_eq!(size_bucket_limit(0), Some(64));
        assert_eq!(size_bucket_limit(2), Some(1024));
        assert_eq!(size_bucket_limit(7), None);
    }

    #[test]
    fn charged_total_sums_buckets() {
        let mut s = Stats::default();
        for (i, b) in Bucket::ALL.iter().enumerate() {
            s.bucket_ns[b.index()] = (i as u64 + 1) * 100;
        }
        assert_eq!(s.charged_total(), 100 + 200 + 300 + 400 + 500);
    }
}
