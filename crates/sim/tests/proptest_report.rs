//! Property tests of the report algebra: the residual "net" component must
//! clamp at zero instead of wrapping when charged time exceeds elapsed time
//! (possible in interval snapshots), and `Stats::since` must be an exact
//! inverse of `Stats::merge` on monotone counters while panicking loudly on
//! any regression.

use mpmd_sim::{Report, Stats, NUM_BUCKETS};
use proptest::collection::vec;
use proptest::prelude::*;

/// Build a `Stats` from ten driven counters (five bucket times plus five
/// representative event counters).
fn stats_from(vals: &[u64]) -> Stats {
    let mut s = Stats::default();
    s.bucket_ns.copy_from_slice(&vals[..NUM_BUCKETS]);
    s.msgs_sent = vals[5];
    s.polls = vals[6];
    s.sync_ops = vals[7];
    s.retransmits = vals[8];
    s.dup_drops = vals[9];
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn net_component_saturates_instead_of_wrapping(
        cells in vec((0u64..10_000_000, vec(0u64..4_000_000, 5..6)), 1..6),
    ) {
        let clocks: Vec<u64> = cells.iter().map(|(c, _)| *c).collect();
        let stats: Vec<Stats> = cells
            .iter()
            .map(|(_, b)| {
                let mut s = Stats::default();
                s.bucket_ns.copy_from_slice(b);
                s
            })
            .collect();
        let allocs = vec![0; clocks.len()];
        let r = Report { clocks, stats, allocs, engine_allocs: 0, trace: None, metrics: None };
        let busy: u128 = r.clocks.iter().map(|&c| c as u128).sum();
        // Everything charged outside the Net bucket (indices 0, 2, 3, 4).
        let other: u128 = r
            .stats
            .iter()
            .flat_map(|s| [0usize, 2, 3, 4].map(|i| s.bucket_ns[i] as u128))
            .sum();
        let expected = busy.saturating_sub(other) as u64;
        prop_assert_eq!(r.net_component(), expected);
        prop_assert!(r.net_component() <= r.busy_total());
    }

    #[test]
    fn since_inverts_merge_on_monotone_counters(
        base in vec(0u64..1_000_000, 10..11),
        delta in vec(0u64..1_000_000, 10..11),
    ) {
        let base = stats_from(&base);
        let delta = stats_from(&delta);
        let mut later = base.clone();
        later.merge(&delta);
        prop_assert_eq!(later.since(&base), delta);
    }

    #[test]
    fn since_panics_on_any_counter_regression(
        base in vec(1u64..1_000_000, 10..11),
        field in 0usize..10,
    ) {
        let earlier = stats_from(&base);
        let mut shrunk = base.clone();
        shrunk[field] -= 1;
        let later = stats_from(&shrunk);
        let r = std::panic::catch_unwind(move || later.since(&earlier));
        prop_assert!(r.is_err(), "regression in field {} went undetected", field);
    }
}
