//! Histogram exactness and quantile sanity, and the registry's
//! first-lookup race.
//!
//! The histogram's `count`/`sum`/`max` are exact (sharded counters,
//! single-atomic max) no matter how many threads record
//! concurrently; only the quantiles are estimates, and those must be
//! monotone in `q` and never exceed the observed maximum.

use mpt_telemetry::Histogram;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::thread;

#[test]
fn eight_thread_contention_is_exact() {
    static HIST: std::sync::OnceLock<Histogram> = std::sync::OnceLock::new();
    let h = HIST.get_or_init(Histogram::new);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;

    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    // Deterministic per-thread values spanning several
                    // octaves, so many buckets are contended at once.
                    HIST.get().unwrap().record(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let n = THREADS * PER_THREAD;
    assert_eq!(h.count(), n);
    // Sum of 0..n.
    assert_eq!(h.sum(), n * (n - 1) / 2);
    assert_eq!(h.max(), n - 1);
    let p50 = h.quantile(0.5);
    let p99 = h.quantile(0.99);
    assert!(p50 <= p99);
    assert!(p99 <= h.max() as f64);
    // Uniform 0..400k: the median estimate must land in the right
    // octave (log buckets at that scale are ≤25% wide).
    assert!(p50 > 140_000.0 && p50 < 260_000.0, "p50={p50}");
}

/// Two threads racing the first lookup of one name must get the same
/// leaked handle, for each kind of metric the registry's one table
/// holds — otherwise one thread's updates are never read.
#[test]
fn racing_first_lookups_get_one_handle() {
    fn race<T: Sync>(lookup: fn(&str) -> &'static T, name: &str) {
        let barrier = Barrier::new(2);
        let addr = || {
            barrier.wait();
            lookup(name) as *const T as usize
        };
        let (a, b) = thread::scope(|s| {
            let other = s.spawn(addr);
            (addr(), other.join().unwrap())
        });
        assert_eq!(a, b, "{name}: two handles for one name");
        assert_eq!(a, lookup(name) as *const T as usize);
    }
    for round in 0..32 {
        let name = format!("test.race.{round}");
        race(mpt_telemetry::quant_counters, &name);
        race(mpt_telemetry::counter, &name);
        race(mpt_telemetry::gauge, &name);
        race(mpt_telemetry::histogram, &name);
    }
}

proptest! {
    #[test]
    fn count_and_sum_are_exact(values in proptest::collection::vec(0u64..(1u64 << 50), 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
    }

    #[test]
    fn quantiles_are_monotone(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.quantile(lo) <= h.quantile(hi));
        prop_assert!(h.quantile(hi) <= h.max() as f64);
        prop_assert!(h.quantile(0.0) >= 0.0);
    }

    #[test]
    fn quantile_estimate_stays_within_log_bucket_error(v in 16u64..1_000_000_000) {
        // A degenerate distribution (all mass on one value): every
        // quantile must land inside that value's bucket, i.e. within
        // 25% relative error.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = h.quantile(q);
            prop_assert!(est <= v as f64, "q={q} est={est} v={v}");
            prop_assert!(est >= v as f64 * 0.75, "q={q} est={est} v={v}");
        }
    }
}
