//! Service tuning knobs.

use mpt_faults::RetryPolicy;

/// Admission, coalescing, and breaker parameters for a
/// [`GemmService`](crate::GemmService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bound on the admission queue; a submit past it is rejected
    /// with an explicit retry-after.
    pub queue_cap: usize,
    /// Most requests drained (and thus coalesced) per dispatcher
    /// round.
    pub batch_max: usize,
    /// Consecutive FPGA retry-budget exhaustions that trip the
    /// circuit breaker.
    pub breaker_threshold: u32,
    /// Requests served on the CPU bypass while open before the
    /// half-open probe.
    pub breaker_cooldown: u32,
    /// Per-site retry policy of the FPGA launches.
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    /// Sized for the simulated accelerator: a queue a few batches
    /// deep, coalescing bounded at 16 (the staged queue's natural
    /// granularity), a breaker that trips fast (2 consecutive
    /// exhaustions) and probes after 8 bypassed requests. The retry
    /// policy is the zero-delay one — chaos tests drive thousands of
    /// launches and must not sleep.
    fn default() -> Self {
        ServeConfig {
            queue_cap: 64,
            batch_max: 16,
            breaker_threshold: 2,
            breaker_cooldown: 8,
            retry: RetryPolicy::no_delay(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_cap >= c.batch_max);
        assert!(c.breaker_threshold >= 1);
        assert!(c.breaker_cooldown >= 1);
        assert_eq!(c.retry.max_attempts, 3);
    }
}
