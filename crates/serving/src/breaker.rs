//! Circuit breaker over the FPGA path.
//!
//! The serving dispatcher consults the breaker before every request
//! it launches. While **closed**, traffic flows to the accelerator and
//! per-launch retry exhaustions count against a consecutive-failure
//! threshold. Tripping **opens** the breaker: requests route straight
//! to the bit-identical CPU fallback (no retry storms against a sick
//! device) until a cooldown — counted in requests served while open,
//! not wall-clock, so chaos tests replay deterministically — moves it
//! to **half-open**. The next launch is a probe: success re-closes
//! the breaker, failure re-opens it and restarts the cooldown.
//!
//! Every transition is recorded (and emitted as a telemetry event) so
//! tests can pin the exact trip/recovery sequence.

use std::fmt;

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows to the FPGA path.
    Closed,
    /// FPGA path bypassed; everything degrades to CPU.
    Open,
    /// Cooldown elapsed; the next launch probes the FPGA path.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (telemetry field).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

impl fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// The state machine. Only the dispatcher thread moves it — that is
/// the only place launch outcomes exist; clients read it.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    /// Consecutive retry-budget exhaustions while closed.
    consecutive_failures: u32,
    /// Exhaustions that trip the breaker.
    threshold: u32,
    /// Requests served on the CPU bypass while open, before half-open.
    cooldown: u32,
    bypassed_in_open: u32,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive
    /// failures (min 1) and probing after `cooldown` bypassed
    /// requests (min 1).
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            bypassed_in_open: 0,
            transitions: Vec::new(),
        }
    }

    /// The current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the next launch may go to the FPGA path (closed or
    /// probing).
    pub fn allows_fpga(&self) -> bool {
        !matches!(self.state, BreakerState::Open)
    }

    /// Every transition so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn transition(&mut self, to: BreakerState) {
        let t = BreakerTransition {
            from: self.state,
            to,
        };
        self.state = to;
        self.transitions.push(t);
        mpt_telemetry::event(&[
            mpt_telemetry::json::Field::Str("type", "breaker_state"),
            mpt_telemetry::json::Field::Str("from", t.from.name()),
            mpt_telemetry::json::Field::Str("to", t.to.name()),
        ]);
    }

    /// Records a launch that completed on the FPGA path.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.consecutive_failures = 0;
                self.transition(BreakerState::Closed);
            }
            BreakerState::Open => {}
        }
    }

    /// Records a launch whose retry budget was exhausted (the request
    /// itself still succeeded via the CPU fallback).
    pub fn on_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.bypassed_in_open = 0;
                    self.transition(BreakerState::Open);
                }
            }
            BreakerState::HalfOpen => {
                // Failed probe: back to open, cooldown restarts.
                self.bypassed_in_open = 0;
                self.transition(BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }

    /// Records one request served on the CPU bypass while open; after
    /// `cooldown` of them the breaker moves to half-open.
    pub fn on_bypass(&mut self) {
        if self.state != BreakerState::Open {
            return;
        }
        self.bypassed_in_open += 1;
        if self.bypassed_in_open >= self.cooldown {
            self.transition(BreakerState::HalfOpen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_recovers_via_probe() {
        let mut b = CircuitBreaker::new(2, 3);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_fpga());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows_fpga());
        // Cooldown counted in bypassed requests.
        b.on_bypass();
        b.on_bypass();
        assert_eq!(b.state(), BreakerState::Open);
        b.on_bypass();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allows_fpga(), "half-open admits the probe");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let seq: Vec<String> = b.transitions().iter().map(|t| t.to_string()).collect();
        assert_eq!(
            seq,
            ["closed->open", "open->half_open", "half_open->closed"]
        );
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::new(2, 1);
        b.on_failure();
        b.on_success();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "non-consecutive failures");
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(1, 1);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        b.on_bypass();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        b.on_bypass();
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let seq: Vec<String> = b.transitions().iter().map(|t| t.to_string()).collect();
        assert_eq!(
            seq,
            [
                "closed->open",
                "open->half_open",
                "half_open->open",
                "open->half_open",
                "half_open->closed"
            ]
        );
    }
}
