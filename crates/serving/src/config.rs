//! Service tuning: the retry policy, and the constants the queue and
//! breaker are sized by.

use mpt_faults::RetryPolicy;

/// Bound on the admission queue; a submit past it is rejected with an
/// explicit retry-after.
pub const QUEUE_CAP: usize = 64;
/// Most requests drained per dispatcher round (the staged queue's
/// natural granularity).
pub const BATCH_MAX: usize = 16;
/// Consecutive FPGA retry-budget exhaustions that trip the circuit
/// breaker.
pub const BREAKER_THRESHOLD: u32 = 2;
/// Requests served on the CPU bypass while the breaker is open,
/// before the half-open probe.
pub const BREAKER_COOLDOWN: u32 = 8;

/// The settable part of a [`GemmService`](crate::GemmService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Per-site retry policy of the FPGA launches.
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    /// The zero-delay retry policy: chaos tests drive thousands of
    /// launches and must not sleep.
    fn default() -> Self {
        ServeConfig {
            retry: RetryPolicy::no_delay(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        const { assert!(QUEUE_CAP >= BATCH_MAX && BREAKER_THRESHOLD >= 1 && BREAKER_COOLDOWN >= 1) };
        assert_eq!(ServeConfig::default().retry.max_attempts, 3);
    }
}
