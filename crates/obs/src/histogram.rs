//! Log2-bucketed latency histograms with mergeable snapshots.
//!
//! A [`LatencyHistogram`] holds 65 power-of-two buckets: bucket 0 is exactly `{0}` and
//! bucket `i` (1 ≤ i ≤ 64) covers `[2^(i-1), 2^i - 1]`. The bucket index of a value is
//! its bit length, so recording is one `leading_zeros` plus four relaxed atomic RMWs —
//! no locks, no allocation, shareable across shard workers.
//!
//! Quantiles come from snapshots: the rank-`q` sample lands in a known bucket, so the
//! estimate is bounded by that bucket's `[lo, hi]` range (a ≤ 2× relative error,
//! tightened further by the observed min/max). Per-shard snapshots merge by summing
//! buckets, which is exact: merging then ranking equals ranking the union.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit length of a `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, otherwise the value's bit length.
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive `[lo, hi]` range of values a bucket covers.
///
/// Bucket 0 is `(0, 0)`; bucket `i ≥ 1` is `(2^(i-1), 2^i - 1)` with bucket 64
/// capped at `u64::MAX`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (index - 1);
        let hi = if index == 64 { u64::MAX } else { (1u64 << index) - 1 };
        (lo, hi)
    }
}

/// A lock-free histogram of `u64` samples (nanoseconds, by convention here).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` until the first sample.
    min: AtomicU64,
    max: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: four relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copies the current state. Concurrent recorders keep running; the snapshot is a
    /// consistent-enough point-in-time view (bucket loads are relaxed and independent,
    /// so a snapshot racing a `record` may see the count without the sum or vice
    /// versa — totals are monotone and exact once recorders quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// An owned, mergeable copy of a histogram's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot { counts: [0; BUCKETS], sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample: [`LatencyHistogram::record`] for a recorder with a single
    /// owner (the audit segment store times its fsyncs under its own lock), plain
    /// integer adds over the same buckets.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.max)
        }
    }

    /// Integer mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Per-bucket `(lo, hi, count)` rows for non-empty buckets, in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| {
            let (lo, hi) = bucket_bounds(i);
            (lo, hi, c)
        })
    }

    /// Adds another snapshot into this one (exact: bucket-wise sums).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The inclusive `[lo, hi]` range guaranteed to contain the rank-`q` sample,
    /// or `None` when the histogram is empty.
    ///
    /// The rank is `ceil(q · count)` clamped to `[1, count]` (so `q = 0.5` over four
    /// samples picks the second). The bucket holding that rank bounds the true sample
    /// value; the bracket is tightened by the observed global min/max, which are valid
    /// bounds for every sample.
    fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let (lo, hi) = bucket_bounds(i);
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        None
    }

    /// Conservative (upper-bound) estimate of the rank-`q` sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).map_or(0, |(_, hi)| hi)
    }

    /// Upper-bound estimate of the median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Upper-bound estimate of the 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Upper-bound estimate of the 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper-bound estimate of the 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 0));
        let mut next = 1u64;
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} lower bound");
            assert!(hi >= lo);
            // Every value in [lo, hi] maps back to bucket i.
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "buckets cover the full u64 range");
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.min(), None);
        assert_eq!(snap.max(), None);
        assert_eq!(snap.mean(), 0);
        assert_eq!(snap.quantile_bounds(0.5), None);
        assert_eq!(snap.p99(), 0);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let h = LatencyHistogram::new();
        h.record(777);
        let snap = h.snapshot();
        // min/max clamping collapses the bucket bracket to the exact value.
        assert_eq!(snap.quantile_bounds(0.5), Some((777, 777)));
        assert_eq!(snap.p999(), 777);
        assert_eq!(snap.mean(), 777);
    }

    #[test]
    fn merge_matches_union() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        for v in [5u64, 80, 80, 1_000] {
            a.record(v);
            union.record(v);
        }
        for v in [0u64, 3, 40_000] {
            b.record(v);
            union.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.min(), Some(0));
        assert_eq!(merged.max(), Some(40_000));
    }

    /// Satellite: concurrent recording from N threads loses no counts.
    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        let h = Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic spread across many buckets.
                        h.record((t * PER_THREAD + i) % 100_003);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), THREADS * PER_THREAD);
        let expected_sum: u64 = (0..THREADS * PER_THREAD).map(|v| v % 100_003).sum();
        assert_eq!(snap.sum(), expected_sum);
    }

    /// True rank-`q` sample from raw values, using the same rank convention as
    /// `quantile_bounds`.
    fn true_quantile(sorted: &[u64], q: f64) -> u64 {
        let count = sorted.len() as u64;
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        sorted[(rank - 1) as usize]
    }

    proptest! {
        /// Satellite: merged per-shard histogram quantiles bracket the true sample
        /// quantiles (the log2-bucket error bound).
        #[test]
        fn merged_quantiles_bracket_true_quantiles(
            values in proptest::collection::vec(0u64..1_000_000_000_000, 1..300),
            shards in 1usize..5,
        ) {
            // Scatter samples across per-shard histograms, as the dataplane does — and
            // across single-owner recorders, as the segment stores do: the plain
            // recorder is the atomic one bucket for bucket, and merges the same.
            let hists: Vec<LatencyHistogram> =
                (0..shards).map(|_| LatencyHistogram::new()).collect();
            let mut plain = vec![HistogramSnapshot::empty(); shards];
            for (i, &v) in values.iter().enumerate() {
                hists[i % shards].record(v);
                plain[i % shards].record(v);
            }
            let mut merged = HistogramSnapshot::empty();
            let mut merged_plain = HistogramSnapshot::empty();
            for (h, p) in hists.iter().zip(&plain) {
                prop_assert_eq!(&h.snapshot(), p);
                merged.merge(&h.snapshot());
                merged_plain.merge(p);
            }
            prop_assert_eq!(merged, merged_plain);
            prop_assert_eq!(merged.count(), values.len() as u64);
            prop_assert_eq!(merged.sum(), values.iter().sum::<u64>());

            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(merged.min(), Some(sorted[0]));
            prop_assert_eq!(merged.max(), Some(*sorted.last().unwrap()));

            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let truth = true_quantile(&sorted, q);
                let (lo, hi) = merged.quantile_bounds(q).unwrap();
                prop_assert!(
                    lo <= truth && truth <= hi,
                    "q={} truth={} outside [{}, {}]", q, truth, lo, hi
                );
                // The reported estimate is the bracket's upper bound.
                prop_assert_eq!(merged.quantile(q), hi);
                // Log2 bound: hi < 2·max(lo, 1), so the estimate is within 2× of
                // some value that really was recorded in that bucket.
                prop_assert!(hi <= lo.saturating_mul(2).max(1));
            }
        }
    }
}
