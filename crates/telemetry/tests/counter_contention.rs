//! Sharded-counter exactness under real thread contention, and the
//! registry's first-lookup race.
//!
//! The counters trade a little memory (8 padded shards) for lock-free
//! increments; the one property that must survive is that no update
//! is ever lost — the shard sum is exact, not approximate.

use mpt_telemetry::{Counter, QuantCat};
use std::sync::{Arc, Barrier};
use std::thread;

#[test]
fn concurrent_adds_sum_exactly() {
    static COUNTER: Counter = Counter::new();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Mix incr and add so both paths are contended.
                    if (i + t as u64).is_multiple_of(2) {
                        COUNTER.incr();
                    } else {
                        COUNTER.add(1);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(COUNTER.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn registry_counters_are_shared_across_threads() {
    // Named counters resolve to one leaked allocation: every thread
    // asking for the same name must hit the same shards.
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50_000;
    let before = mpt_telemetry::counter("test.contention").get();
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let c = mpt_telemetry::counter("test.contention");
                barrier.wait();
                for _ in 0..PER_THREAD {
                    c.incr();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        mpt_telemetry::counter("test.contention").get() - before,
        THREADS * PER_THREAD
    );
}

#[test]
fn quant_tally_flush_is_exact_under_contention() {
    // Each thread accumulates locally and flushes once — the global
    // counters must end up with the exact union.
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 10_000;
    let before = mpt_telemetry::quant_counters("test.tally")[QuantCat::Total].get();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            thread::spawn(|| {
                let mut tally = mpt_telemetry::QuantTally::new(448.0, false);
                for i in 0..PER_THREAD {
                    // Alternate exact and rounded outcomes.
                    if i % 2 == 0 {
                        tally.record(1.0, 1.0);
                    } else {
                        tally.record(1.1, 1.0);
                    }
                }
                tally.flush("test.tally");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let c = mpt_telemetry::quant_counters("test.tally");
    assert_eq!(c[QuantCat::Total].get() - before, THREADS * PER_THREAD);
}

/// Two threads racing the first lookup of one name must get the same
/// leaked handle, for each kind of metric handed out by name —
/// otherwise one thread's updates are never read.
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
    }
}
