//! Exact sample statistics.
//!
//! Every timing the benchmark reports comes from sorted samples, never from
//! the runtime's log2-bucket histograms: a 2x-wide bucket reads one binary's
//! null-RMI p50 as 8.2, 16.4 and 32.8 µs on consecutive runs.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` percent of the sample at or below it. `p` is clamped to
/// (0, 100]; an empty sample has no percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted sample");
    if sorted.is_empty() {
        return None;
    }
    let rank = rank_of(sorted.len(), p);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond percentile `p` under [`percentile`]'s rank rule —
/// the evidence behind a tail figure (choosing-metrics wants at least ten).
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p).clamp(n.min(1), n)
}

/// 1-based nearest rank; `p * n / 100` keeps whole-number ranks exact in
/// floating point (0.99 * 20000 is not).
fn rank_of(n: usize, p: f64) -> usize {
    (p.clamp(0.0, 100.0) * n as f64 / 100.0).ceil() as usize
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). `None` for an empty sample or one holding a NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// One statistic across repetitions: the median is what is reported; min,
/// max and the count say how much to trust it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Median-of-repetitions summary; `None` when there is nothing to summarize.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let median = median(values)?;
    Some(Summary {
        median,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    })
}

/// FNV-1a over 64-bit words: the printed result digest of a simulator rep.
/// Not committed anywhere — a legitimate model change shows as a changed
/// digest in the output diff, while a rep that disagrees with rep 1 of its
/// own run is a failure.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_with_ties_and_small_samples() {
        assert_eq!(percentile(&[7, 7, 7, 7], 50.0), Some(7));
        assert_eq!(percentile(&[1, 2, 2, 2, 9], 50.0), Some(2));
        assert_eq!(percentile(&[1, 2, 2, 2, 9], 99.0), Some(9));
        // n < 100: p99 is the maximum, with nothing beyond it.
        let v: Vec<u64> = (0..10).collect();
        assert_eq!(percentile(&v, 99.0), Some(9));
        assert_eq!(beyond(10, 99.0), 0);
        assert_eq!(percentile(&[42], 1.0), Some(42));
    }

    #[test]
    fn beyond_counts_the_tail_evidence() {
        assert_eq!(beyond(20_000, 99.0), 200);
        assert_eq!(beyond(20_000, 50.0), 10_000);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn median_of_reps_odd_even_and_degenerate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
        let s = summarize(&[6.99, 6.73, 17.4, 6.91, 2.9]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (6.91, 2.9, 17.4, 5));
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        assert_eq!(fnv1a([1, 2]), fnv1a([1, 2]));
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]));
    }
}
