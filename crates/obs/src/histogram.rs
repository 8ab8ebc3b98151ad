//! A fixed-size log₂-bucketed latency histogram.
//!
//! The distribution counterpart of [`SpanStat`](crate::SpanStat): where a
//! span stat remembers only *count* and *total*, a [`Histogram`] keeps
//! enough shape to answer tail questions (p50/p95/p99/max) — the numbers
//! that matter for a long-running validation service, where the E13 means
//! (1–10 µs/edit) say nothing about the p99 an interactive client sees.
//!
//! The design is HDR-in-spirit but deliberately simpler: **64 fixed
//! buckets**, one per power of two of the recorded value (nanoseconds for
//! span durations). Bucket `i` counts values `v` with `⌊log₂ v⌋ = i`
//! (bucket 0 also takes `v ∈ {0, 1}`), so any `u64` lands in exactly one
//! bucket via a single `leading_zeros` instruction — no search, no
//! allocation, no configuration. Quantiles are therefore exact only up to
//! a factor of two, which is the right resolution for "is the p99 1 µs or
//! 1 ms?" and costs 512 bytes per span family. Two histograms merge by
//! element-wise addition, so per-thread or per-run instances combine
//! losslessly ([`Histogram::merge`], used by
//! [`Metrics::merge`](crate::Metrics::merge)).

/// Number of log₂ buckets — one per bit of a `u64` value.
pub const BUCKETS: usize = 64;

/// A log₂-bucketed distribution of `u64` samples (span nanoseconds).
///
/// ```
/// use xic_obs::Histogram;
/// let mut h = Histogram::default();
/// for v in [100u64, 200, 300, 90_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count, 4);
/// assert_eq!(h.max, 90_000);
/// // p50 (the 2nd smallest sample, 200) resolves to its power-of-two
/// // bucket ⌊log₂ 200⌋ = 7, whose upper bound is 255.
/// assert_eq!(h.quantile(0.5), 255);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples `v` with `⌊log₂ max(v, 1)⌋ = i`.
    pub buckets: [u64; BUCKETS],
    /// Total number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (saturating).
    pub sum: u64,
    /// Largest recorded sample (exact, not bucketed).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// The bucket index of sample `v`: `⌊log₂ v⌋`, with 0 and 1 sharing
/// bucket 0.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`2^(i+1) - 1`; `u64::MAX` for
/// the last bucket).
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` (element-wise bucket addition). Merging
    /// is associative and commutative, so per-thread snapshots combine in
    /// any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, capped at the exact
    /// recorded [`Histogram::max`]. Zero when empty. Accurate to within a
    /// factor of two by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The index of the highest non-empty bucket, if any sample was
    /// recorded (used to trim rendered bucket arrays).
    pub(crate) fn last_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(9), 1023);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [5u64, 9, 1_000_000, 0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1_000_014);
        assert_eq!(h.max, 1_000_000);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[2], 1); // 5
        assert_eq!(h.buckets[3], 1); // 9
        assert_eq!(h.buckets[19], 1); // 1e6
        assert_eq!(h.last_bucket(), Some(19));
    }

    #[test]
    fn quantiles_hit_the_right_bucket() {
        let mut h = Histogram::new();
        // 98 fast samples (~1 µs), 2 slow (~1 ms): p50/p95 fast, p99 slow.
        for _ in 0..98 {
            h.record(1_000);
        }
        h.record(1_000_000);
        h.record(1_048_575);
        assert_eq!(h.quantile(0.5), bucket_upper(bucket_of(1_000)));
        assert_eq!(h.quantile(0.95), bucket_upper(bucket_of(1_000)));
        // The slow bucket's upper bound caps at the exact max.
        assert_eq!(h.quantile(0.99), 1_048_575);
        assert_eq!(h.quantile(1.0), 1_048_575);
        // A quantile never exceeds the recorded max even in the top bucket.
        let mut one = Histogram::new();
        one.record(3);
        assert_eq!(one.quantile(0.5), 3);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.last_bucket(), None);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for (i, v) in [3u64, 70, 900, 12_345, 6, 6, 1 << 40].iter().enumerate() {
            whole.record(*v);
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
