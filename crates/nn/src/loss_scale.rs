//! Adaptive (dynamic) loss scaling.
//!
//! All of the paper's experiments "employed adaptive loss scaling \[7\]
//! with an initial scaling factor of 256" (Section V-A). The scaler
//! multiplies the loss gradient by the current scale, watches the
//! resulting parameter gradients for overflow/NaN, and adapts: any
//! non-finite gradient skips the step and halves the scale; a run of
//! `growth_interval` good steps doubles it.

use crate::param::Parameter;

/// Dynamic loss scaler in the style of mixed-precision training
/// (Micikevicius et al.).
///
/// # Example
///
/// ```
/// use mpt_nn::AdaptiveLossScaler;
///
/// let mut scaler = AdaptiveLossScaler::new();
/// assert_eq!(scaler.scale(), 256.0); // the paper's initial factor
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveLossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    good_steps: u32,
    overflows: u64,
}

/// Portable scaler state for checkpointing: everything needed to
/// resume a training run with bit-identical loss-scale dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossScaleState {
    /// Current loss scale.
    pub scale: f32,
    /// Good steps accumulated toward the next growth.
    pub good_steps: u32,
    /// Overflow events observed so far.
    pub overflows: u64,
}

impl AdaptiveLossScaler {
    /// Creates a scaler with the paper's initial scale of 256,
    /// growth ×2 every 200 good steps, and backoff ×0.5 on overflow.
    pub fn new() -> Self {
        AdaptiveLossScaler::with_scale(256.0)
    }

    /// Creates a scaler with a custom initial scale.
    pub fn with_scale(scale: f32) -> Self {
        AdaptiveLossScaler {
            scale,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 200,
            good_steps: 0,
            overflows: 0,
        }
    }

    /// Current scale; pass this as the `seed` of
    /// [`crate::Graph::backward`].
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of overflow events observed so far.
    pub fn overflow_count(&self) -> u64 {
        self.overflows
    }

    /// Snapshots the scaler's dynamic state for checkpointing.
    pub fn state(&self) -> LossScaleState {
        LossScaleState {
            scale: self.scale,
            good_steps: self.good_steps,
            overflows: self.overflows,
        }
    }

    /// Restores a snapshot taken by [`state`](Self::state). The
    /// hyper-parameters (growth/backoff factors, interval) keep their
    /// current values; the scale is clamped to the backoff floor of 1
    /// so a corrupted or hand-edited state can never disable scaling.
    pub fn restore(&mut self, s: LossScaleState) {
        self.scale = s.scale.max(1.0);
        self.good_steps = s.good_steps;
        self.overflows = s.overflows;
    }

    /// Inspects the parameters' gradients after a backward pass.
    ///
    /// Returns `true` if the gradients are finite — in which case they
    /// have been **unscaled in place** (divided by the current scale)
    /// and the optimizer step should proceed. Returns `false` on
    /// overflow: gradients are zeroed, the step must be skipped, and
    /// the scale has been reduced.
    pub fn unscale_or_skip(&mut self, params: &[Parameter]) -> bool {
        let finite = params.iter().all(|p| p.grad().all_finite());
        if finite {
            let inv = 1.0 / self.scale;
            for p in params {
                let mut g = p.grad_mut();
                for v in g.data_mut() {
                    *v *= inv;
                }
            }
            self.good_steps += 1;
            let grew = self.good_steps >= self.growth_interval;
            if grew {
                self.scale *= self.growth_factor;
                self.good_steps = 0;
            }
            self.emit_event(if grew { "growth" } else { "ok" });
            true
        } else {
            for p in params {
                p.zero_grad();
            }
            self.scale = (self.scale * self.backoff_factor).max(1.0);
            self.good_steps = 0;
            self.overflows += 1;
            self.emit_event("overflow");
            false
        }
    }

    /// Emits a `loss_scale` telemetry event. No-op when telemetry is
    /// disabled.
    fn emit_event(&self, status: &'static str) {
        if !mpt_telemetry::enabled() {
            return;
        }
        mpt_telemetry::event(&[
            mpt_telemetry::json::Field::Str("type", "loss_scale"),
            mpt_telemetry::json::Field::Str("status", status),
            mpt_telemetry::json::Field::F64("scale", self.scale as f64),
            mpt_telemetry::json::Field::U64("overflows", self.overflows),
        ]);
    }
}

impl Default for AdaptiveLossScaler {
    fn default() -> Self {
        AdaptiveLossScaler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_tensor::Tensor;

    fn param(grad: Vec<f32>) -> Parameter {
        let n = grad.len();
        let p = Parameter::new("p", Tensor::zeros(vec![n]));
        p.accumulate_grad(&Tensor::from_vec(vec![n], grad).unwrap());
        p
    }

    #[test]
    fn initial_scale_is_256() {
        assert_eq!(AdaptiveLossScaler::new().scale(), 256.0);
    }

    #[test]
    fn finite_gradients_are_unscaled() {
        let p = param(vec![256.0, -512.0]);
        let mut s = AdaptiveLossScaler::new();
        assert!(s.unscale_or_skip(std::slice::from_ref(&p)));
        assert_eq!(p.grad().data(), &[1.0, -2.0]);
    }

    #[test]
    fn overflow_halves_scale_and_zeroes() {
        let p = param(vec![f32::INFINITY, 1.0]);
        let mut s = AdaptiveLossScaler::new();
        assert!(!s.unscale_or_skip(std::slice::from_ref(&p)));
        assert_eq!(s.scale(), 128.0);
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
        assert_eq!(s.overflow_count(), 1);
    }

    #[test]
    fn nan_detected_as_overflow() {
        let p = param(vec![f32::NAN]);
        let mut s = AdaptiveLossScaler::new();
        assert!(!s.unscale_or_skip(&[p]));
    }

    #[test]
    fn scale_grows_after_interval() {
        let mut s = AdaptiveLossScaler::with_scale(64.0);
        for _ in 0..200 {
            let p = param(vec![1.0]);
            assert!(s.unscale_or_skip(&[p]));
        }
        assert_eq!(s.scale(), 128.0);
    }

    #[test]
    fn scale_floor_is_one() {
        let mut s = AdaptiveLossScaler::with_scale(1.0);
        let p = param(vec![f32::NAN]);
        s.unscale_or_skip(&[p]);
        assert_eq!(s.scale(), 1.0);
    }

    #[test]
    fn backoff_floor_holds_under_repeated_overflow() {
        // However many overflows hit in a row, the scale never drops
        // below 1 — a dead scale (0 or denormal) would zero every
        // gradient forever.
        let mut s = AdaptiveLossScaler::with_scale(256.0);
        for _ in 0..64 {
            let p = param(vec![f32::INFINITY]);
            assert!(!s.unscale_or_skip(&[p]));
            assert!(s.scale() >= 1.0, "scale fell to {}", s.scale());
        }
        assert_eq!(s.scale(), 1.0);
        assert_eq!(s.overflow_count(), 64);
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut s = AdaptiveLossScaler::with_scale(64.0);
        for _ in 0..7 {
            let p = param(vec![1.0]);
            s.unscale_or_skip(&[p]);
        }
        let bad = param(vec![f32::NAN]);
        s.unscale_or_skip(&[bad]);
        let snap = s.state();
        assert_eq!(snap.scale, 32.0);
        assert_eq!(snap.good_steps, 0);
        assert_eq!(snap.overflows, 1);

        let mut fresh = AdaptiveLossScaler::new();
        fresh.restore(snap);
        assert_eq!(fresh.state(), snap);
        // Both continue identically from here.
        for _ in 0..5 {
            let p1 = param(vec![2.0]);
            let p2 = param(vec![2.0]);
            assert_eq!(s.unscale_or_skip(&[p1]), fresh.unscale_or_skip(&[p2]));
            assert_eq!(s.state(), fresh.state());
        }
    }

    #[test]
    fn restore_clamps_to_floor() {
        let mut s = AdaptiveLossScaler::new();
        s.restore(LossScaleState {
            scale: 0.25,
            good_steps: 3,
            overflows: 9,
        });
        assert_eq!(s.scale(), 1.0, "restore must respect the backoff floor");
        assert_eq!(s.overflow_count(), 9);
    }

    #[test]
    fn overflow_resets_growth_run() {
        let mut s = AdaptiveLossScaler::with_scale(64.0);
        for _ in 0..199 {
            let p = param(vec![1.0]);
            s.unscale_or_skip(&[p]);
        }
        let bad = param(vec![f32::INFINITY]);
        s.unscale_or_skip(&[bad]);
        assert_eq!(s.scale(), 32.0);
        // 199 more good steps must not grow (the run restarted).
        for _ in 0..199 {
            let p = param(vec![1.0]);
            s.unscale_or_skip(&[p]);
        }
        assert_eq!(s.scale(), 32.0);
    }
}
