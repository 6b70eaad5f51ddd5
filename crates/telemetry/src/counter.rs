//! Sharded lock-free counters.
//!
//! Counter increments are the one telemetry operation that sits on
//! hot paths (once per quantized slice / GEMM row-band flush), and
//! they may be issued concurrently by every band thread of a parallel
//! GEMM. A single `AtomicU64` would make all threads bounce one cache
//! line; instead each counter owns [`SHARDS`] cache-line-padded
//! atomics and a thread adds to the shard assigned to it (round-robin
//! at first use), so concurrent increments from different threads
//! touch different lines. Reads sum the shards — exact, because every
//! increment lands in exactly one shard.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards per counter. Eight covers the thread counts the
/// GEMM layer uses without making idle counters large.
pub const SHARDS: usize = 8;

/// One cache line worth of atomic counter, so neighbouring shards
/// never share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// The per-thread shard assignment, handed out round-robin the first
/// time a thread touches any counter.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing event counter with sharded storage.
///
/// # Example
///
/// ```
/// use mpt_telemetry::Counter;
///
/// let c = Counter::new();
/// c.add(3);
/// c.add(4);
/// assert_eq!(c.get(), 7);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Counter {
            // An inline-const repeat element: each shard gets its own
            // fresh atomic (a named const would trip
            // `declare_interior_mutable_const`).
            shards: [const { PaddedU64(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds `delta` to the calling thread's shard (lock-free, relaxed:
    /// counter sums carry no ordering obligations).
    #[inline]
    pub fn add(&self, delta: u64) {
        if delta != 0 {
            self.shards[shard_index()]
                .0
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The exact total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes every shard (tests and run boundaries; concurrent
    /// increments during a reset may land before or after it).
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn zero_delta_is_free() {
        let c = Counter::new();
        c.add(0);
        assert_eq!(c.get(), 0);
    }
}
