//! Log-bucketed, mergeable latency histograms.
//!
//! The layout is HdrHistogram-style log-linear: each power-of-two octave
//! is divided into [`SUB_BUCKETS`] linear sub-buckets, giving a worst-case
//! relative error of `1 / SUB_BUCKETS` (12.5%) across the full `u64`
//! nanosecond range in [`BUCKETS`] buckets (~4 KiB of counters). All
//! counters are atomics, so recording takes `&self` and is safe from any
//! thread; per-shard histograms [`merge`](Histogram::merge) losslessly —
//! the merged bucket counts equal those of a histogram fed the
//! concatenated samples (property-tested).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Linear sub-buckets per power-of-two octave (`2^SUB_BITS`).
const SUB_BITS: u32 = 3;
/// `2^SUB_BITS` — sub-bucket count and the bound of the exact first range.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering `0..=u64::MAX`.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS as usize;

/// Bucket index for a recorded value. Monotone in `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // floor(log2), >= SUB_BITS
    let sub = (value >> (exp - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((exp - SUB_BITS + 1) as usize) * SUB_BUCKETS as usize + sub as usize
}

/// Lower bound of the value range mapping to bucket `index` (inverse of
/// [`bucket_index`]); used as the reported percentile value.
fn bucket_floor(index: usize) -> u64 {
    let block = (index as u64) >> SUB_BITS;
    let sub = (index as u64) & (SUB_BUCKETS - 1);
    if block == 0 {
        return sub;
    }
    let exp = (block as u32 - 1) + SUB_BITS;
    (1u64 << exp) | (sub << (exp - SUB_BITS))
}

/// A concurrent log-linear histogram of nanosecond latencies.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // Vec -> Box<[_; N]> avoids a large stack temporary.
        let buckets: Box<[AtomicU64]> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.try_into().expect("BUCKETS-sized box"),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (nanoseconds).
    pub fn record(&self, value_ns: u64) {
        self.buckets[bucket_index(value_ns)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value_ns, Relaxed);
        self.min.fetch_min(value_ns, Relaxed);
        self.max.fetch_max(value_ns, Relaxed);
    }

    /// Fold `other`'s counts into `self`. Lossless: bucket counts add.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Relaxed);
            if n != 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        self.min.fetch_min(other.min.load(Relaxed), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Value at quantile `q` in `[0, 1]`: the floor of the bucket holding
    /// the `ceil(q * count)`-th sample, clamped to the true observed
    /// extrema. Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= target {
                return bucket_floor(i).clamp(self.min.load(Relaxed), self.max.load(Relaxed));
            }
        }
        self.max.load(Relaxed)
    }

    /// Non-zero buckets as `(floor_value, count)` pairs, for exact
    /// equality checks in tests.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Relaxed);
                (n != 0).then(|| (bucket_floor(i), n))
            })
            .collect()
    }

    /// Point-in-time summary with the standard percentile set.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        HistogramSummary {
            count,
            min_ns: if count == 0 {
                0
            } else {
                self.min.load(Relaxed)
            },
            max_ns: self.max.load(Relaxed),
            mean_ns: if count == 0 {
                0.0
            } else {
                self.sum.load(Relaxed) as f64 / count as f64
            },
            p50_ns: self.percentile(0.50),
            p90_ns: self.percentile(0.90),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
        }
    }
}

/// Plain-data snapshot of a [`Histogram`], as serialized into pool
/// snapshots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Recorded sample count.
    pub count: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value.
    pub max_ns: u64,
    /// Arithmetic mean (exact; tracked as a sum, not from buckets).
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_floor_inverts() {
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert!(bucket_floor(i) <= v, "floor above value at {v}");
            assert_eq!(
                bucket_index(bucket_floor(i)),
                i,
                "floor leaves bucket at {v}"
            );
        }
        // Spot-check the top of the range.
        let top = bucket_index(u64::MAX);
        assert!(top < BUCKETS);
        assert_eq!(bucket_index(bucket_floor(top)), top);
    }

    #[test]
    fn exact_below_sub_buckets() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), SUB_BUCKETS - 1);
    }

    #[test]
    fn percentile_relative_error_bounded() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 17); // spread across several octaves
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = ((q * 100_000f64).ceil() as u64) * 17;
            let got = h.percentile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 0.13, "q={q}: got {got}, exact {exact}, err {err}");
        }
    }

    #[test]
    fn quantile_accessors_match_percentile_and_pin_error_bounds() {
        let h = Histogram::new();
        // 10_000 samples spread across octaves; exact k-th sample is k * 31.
        for v in 1..=10_000u64 {
            h.record(v * 31);
        }
        let s = h.summary();
        assert_eq!(s.p50_ns, h.percentile(0.50));
        assert_eq!(s.p99_ns, h.percentile(0.99));
        assert_eq!(s.p999_ns, h.percentile(0.999));
        // The summary inherits the log-linear bound: 1/SUB_BUCKETS = 12.5%.
        for (got, q) in [(s.p50_ns, 0.50), (s.p99_ns, 0.99), (s.p999_ns, 0.999)] {
            let exact = ((q * 10_000f64).ceil() as u64) * 31;
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64,
                "q={q}: got {got}, exact {exact}, err {err}"
            );
        }
    }

    #[test]
    fn quantile_accessors_are_exact_on_singletons_and_zero_when_empty() {
        let h = Histogram::new();
        for q in [0.50, 0.99, 0.999] {
            assert_eq!(h.percentile(q), 0);
        }
        h.record(42_000);
        // One sample: the extrema clamp makes every quantile exact.
        for q in [0.50, 0.99, 0.999] {
            assert_eq!(h.percentile(q), 42_000);
        }
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(
            s,
            HistogramSummary {
                count: 0,
                min_ns: 0,
                max_ns: 0,
                mean_ns: 0.0,
                p50_ns: 0,
                p90_ns: 0,
                p99_ns: 0,
                p999_ns: 0,
            }
        );
    }

    #[test]
    fn merge_adds_counts_and_extrema() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(1000);
        b.record(3);
        b.record(70_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        let s = a.summary();
        assert_eq!(s.min_ns, 3);
        assert_eq!(s.max_ns, 70_000);
    }
}
