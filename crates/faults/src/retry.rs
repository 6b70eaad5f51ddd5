//! Bounded retry with exponential backoff.

use std::time::Duration;

/// How an execution layer reacts to a transient fault: up to
/// `max_attempts` tries, sleeping `base_delay * 2^attempt` (capped at
/// `max_delay`) between them. When the budget is exhausted the caller
/// degrades to the bit-identical CPU path.
///
/// # Example
///
/// ```
/// use mpt_faults::RetryPolicy;
/// use std::time::Duration;
///
/// let p = RetryPolicy::default();
/// assert_eq!(p.max_attempts, 3);
/// assert_eq!(p.delay(1), p.delay(0) * 2);
///
/// // Tests use a zero-delay policy so chaos runs stay fast.
/// let fast = RetryPolicy::no_delay(5);
/// assert_eq!(fast.delay(4), Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per launch (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// A policy with explicit attempts and base delay (cap 100 ms).
    pub fn new(max_attempts: u32, base_delay: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay,
            max_delay: Duration::from_millis(100),
        }
    }

    /// A zero-delay policy for tests and simulation-only runs.
    pub fn no_delay(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff to sleep after failed attempt `attempt` (0-based):
    /// `base_delay * 2^attempt`, capped at `max_delay`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = attempt.min(20); // 2^20 * base already dwarfs any cap
        self.base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay)
    }

    /// Sleeps the backoff for `attempt`, skipping the syscall for a
    /// zero duration.
    pub fn sleep(&self, attempt: u32) {
        let d = self.delay(attempt);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 50 µs base backoff, 100 ms cap — sized for the
    /// simulated accelerator, where a "launch" is tens of
    /// microseconds.
    fn default() -> Self {
        RetryPolicy::new(3, Duration::from_micros(50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new(5, Duration::from_millis(10));
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(80));
        assert_eq!(p.delay(4), Duration::from_millis(100), "capped");
        assert_eq!(
            p.delay(30),
            Duration::from_millis(100),
            "huge exponent capped"
        );
    }

    #[test]
    fn at_least_one_attempt() {
        assert_eq!(RetryPolicy::new(0, Duration::ZERO).max_attempts, 1);
        assert_eq!(RetryPolicy::no_delay(0).max_attempts, 1);
    }

    #[test]
    fn zero_delay_never_sleeps() {
        let p = RetryPolicy::no_delay(3);
        let t0 = std::time::Instant::now();
        for a in 0..3 {
            p.sleep(a);
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
    }
}
