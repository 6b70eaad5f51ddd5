//! Fixed-bucket log-scale latency histograms.
//!
//! A [`Histogram`] accumulates nanosecond durations into 256 fixed
//! buckets: values below 16 ns get one bucket per nanosecond (exact),
//! and every power-of-two octave above that is split into four
//! sub-buckets (≤ 25% relative bucket width), covering the full `u64`
//! range. Bucket increments are sharded exactly like [`Counter`]
//! (each thread adds to its own cache-line-padded row), so concurrent
//! recording from GEMM band threads never bounces a shared line; `count`
//! and `sum` are tracked in sharded counters too, which makes both
//! **exact** regardless of contention. Quantiles (p50/p90/p99) are
//! estimated by linear interpolation inside the covering bucket and
//! clamped to the exact observed maximum.
//!
//! Histograms are fed by span closes (one record per GEMM / layer /
//! pipeline-stage span), the tape's per-closure backward times,
//! trainer steps, served requests, and the pipelined executor's
//! modeled stage times — never per element.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counter::{shard_index, Counter, SHARDS};

/// Number of histogram buckets (16 unit buckets + 60 octaves × 4
/// sub-buckets).
pub const BUCKETS: usize = 16 + 60 * 4;

/// One thread-shard's bucket row, padded so rows start on distinct
/// cache lines.
#[repr(align(64))]
#[derive(Debug)]
struct Row([AtomicU64; BUCKETS]);

impl Default for Row {
    fn default() -> Self {
        Row([const { AtomicU64::new(0) }; BUCKETS])
    }
}

/// The bucket index covering a nanosecond value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    // Most significant bit position p >= 4; sub-bucket from the next
    // two bits below it.
    let p = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (p - 2)) & 3) as usize;
    let idx = 16 + (p - 4) * 4 + sub;
    idx.min(BUCKETS - 1)
}

/// Inclusive lower / exclusive upper nanosecond bound of bucket `b`.
fn bucket_bounds(b: usize) -> (f64, f64) {
    if b < 16 {
        return (b as f64, b as f64 + 1.0);
    }
    let oct = 4 + (b - 16) / 4;
    let sub = (b - 16) % 4;
    let base = (1u128 << oct) as f64;
    let width = (1u128 << (oct - 2)) as f64;
    let lower = base + sub as f64 * width;
    (lower, lower + width)
}

/// A lock-free sharded log-scale latency histogram (nanoseconds).
///
/// # Example
///
/// ```
/// use mpt_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for ns in [100, 200, 300, 400, 10_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 11_000);
/// assert_eq!(h.max(), 10_000);
/// let p50 = h.quantile(0.5);
/// assert!(p50 >= 100.0 && p50 <= 400.0);
/// assert!(h.quantile(0.99) <= h.max() as f64);
/// ```
#[derive(Debug, Default)]
pub struct Histogram {
    rows: [Row; SHARDS],
    count: Counter,
    sum: Counter,
    max: AtomicU64,
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one nanosecond observation (lock-free; four relaxed
    /// atomics on the calling thread's shard).
    #[inline]
    pub fn record(&self, ns: u64) {
        self.rows[shard_index()].0[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.incr();
        self.sum.add(ns);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Exact number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Exact sum of all recorded nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket totals summed across shards.
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; BUCKETS];
        for row in &self.rows {
            for (b, c) in row.0.iter().enumerate() {
                out[b] += c.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) in nanoseconds:
    /// linear interpolation inside the covering bucket, clamped to
    /// the exact observed maximum so estimates never exceed reality.
    /// Returns 0 when empty. Monotonic in `q` by construction
    /// (cumulative bucket walk).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = (q * n as f64).max(1.0);
        let buckets = self.bucket_counts();
        let mut cum = 0u64;
        for (b, &c) in buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                let (lo, hi) = bucket_bounds(b);
                let frac = (target - cum as f64) / c as f64;
                let est = lo + frac * (hi - lo);
                return est.min(self.max() as f64);
            }
            cum = next;
        }
        self.max() as f64
    }

    /// Zeroes every bucket, the count/sum counters, and the max.
    pub fn reset(&self) {
        for row in &self.rows {
            for c in &row.0 {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.count.reset();
        self.sum.reset();
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one latency name's record: the histogram's
/// summary statistics plus the bytes its spans moved.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The name the histogram was registered under (span name,
    /// `trainer:step`, `fpga:stage:<stage>`, ...).
    pub name: String,
    /// Exact observation count (closed spans, for a span name).
    pub count: u64,
    /// Exact nanosecond sum.
    pub sum_ns: u64,
    /// Bytes reported through `SpanGuard::add_bytes` (0 for names
    /// that are not spans).
    pub bytes: u64,
    /// Exact maximum in nanoseconds.
    pub max_ns: u64,
    /// Estimated median in nanoseconds.
    pub p50_ns: f64,
    /// Estimated 90th percentile in nanoseconds.
    pub p90_ns: f64,
    /// Estimated 99th percentile in nanoseconds.
    pub p99_ns: f64,
}

impl HistogramSnapshot {
    /// Captures a histogram's current statistics under `name`.
    pub(crate) fn capture(name: &str, h: &Histogram, bytes: u64) -> Self {
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            sum_ns: h.sum(),
            bytes,
            max_ns: h.max(),
            p50_ns: h.quantile(0.5),
            p90_ns: h.quantile(0.9),
            p99_ns: h.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_and_order() {
        // Every value maps to a bucket whose bounds contain it, and
        // bucket indices are monotone in the value.
        let mut prev = 0usize;
        for &v in &[
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let b = bucket_index(v);
            assert!(b >= prev, "bucket order violated at {v}");
            prev = b;
            if b < BUCKETS - 1 {
                let (lo, hi) = bucket_bounds(b);
                assert!(
                    (v as f64) >= lo && (v as f64) < hi,
                    "{v} outside bucket {b} [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn exact_count_sum_max() {
        let h = Histogram::new();
        let values = [0u64, 1, 5, 1_000, 1_000_000, 123_456_789];
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        assert_eq!(h.max(), 123_456_789);
    }

    #[test]
    fn quantiles_monotone_and_bounded() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max() as f64);
        // The median of 100..=100_000 (uniform) is near 50_000; the
        // log bucket at that scale is ~25% wide.
        assert!(p50 > 30_000.0 && p50 < 70_000.0, "p50={p50}");
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(3);
        }
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }
}
