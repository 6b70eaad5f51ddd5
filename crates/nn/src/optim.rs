//! Optimizers with optional custom-precision weight updates.
//!
//! The paper "supports custom precision simulation for weight updates,
//! where weights are quantized, updated in custom precision, and
//! stored in full precision" (Section III). Both optimizers here take
//! an optional update [`Quantizer`]: when set, the weight read, the
//! scaled step and the subtraction are each rounded to that format
//! before the FP32 master copy is overwritten.

use crate::param::Parameter;
use mpt_formats::Quantizer;
use mpt_tensor::Tensor;
use std::collections::HashMap;

/// Portable optimizer state for checkpointing.
///
/// Slot tensors are keyed by **parameter position** in the `params`
/// slice handed to [`Optimizer::step`] — never by [`Parameter::id`],
/// which is an `Rc` pointer address and not stable across processes.
/// `slots[i]` holds parameter `i`'s moment tensors in optimizer
/// order: `[velocity]` for [`Sgd`], `[m, v]` for [`Adam`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimState {
    /// The optimizer's step counter (`step_count` / `t`).
    pub step: u64,
    /// Per-parameter moment tensors, in parameter order.
    pub slots: Vec<Vec<Tensor>>,
}

/// A gradient-descent optimizer.
pub trait Optimizer {
    /// Applies one update step from the parameters' accumulated
    /// gradients, then leaves the gradients untouched (call
    /// [`zero_grads`](Optimizer::zero_grads) to clear them).
    fn step(&mut self, params: &[Parameter]);

    /// Clears every parameter's gradient.
    fn zero_grads(&mut self, params: &[Parameter]) {
        for p in params {
            p.zero_grad();
        }
    }

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Snapshots the optimizer's moment state for the given parameter
    /// slice, keyed by position (see [`OptimState`]). Parameters the
    /// optimizer has never stepped export zero moments.
    fn export_state(&self, params: &[Parameter]) -> OptimState;

    /// Restores a snapshot taken by
    /// [`export_state`](Optimizer::export_state) against the **same
    /// parameter slice order**. Replaces all existing moment state.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match `params` in length or tensor
    /// shapes — a checkpoint/model mismatch is a caller bug.
    fn restore_state(&mut self, params: &[Parameter], state: &OptimState);
}

/// Shape-checks one state slot against its parameter.
fn check_slot(p: &Parameter, slot: &[Tensor], want: usize, opt: &str) {
    assert_eq!(
        slot.len(),
        want,
        "{opt} state slot for '{}' has {} tensors, expected {want}",
        p.name(),
        slot.len()
    );
    for t in slot {
        assert_eq!(
            t.shape(),
            p.value().shape(),
            "{opt} state shape mismatch for parameter '{}'",
            p.name()
        );
    }
}

/// Stochastic gradient descent with momentum and weight decay — the
/// optimizer of the paper's CNN experiments (momentum 0.9,
/// weight decay 1e-4 / 5e-4).
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    update_quant: Option<Quantizer>,
    step_count: u64,
    velocity: HashMap<usize, Tensor>,
}

impl Sgd {
    /// Creates SGD with the given hyper-parameters.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            update_quant: None,
            step_count: 0,
            velocity: HashMap::new(),
        }
    }

    /// Performs the weight update in the given custom precision
    /// (weights stay stored in FP32).
    pub fn with_update_quantizer(mut self, q: Quantizer) -> Self {
        self.update_quant = Some(q);
        self
    }

    fn key(p: &Parameter) -> usize {
        p.id()
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &[Parameter]) {
        self.step_count += 1;
        for (pi, p) in params.iter().enumerate() {
            let key = Sgd::key(p);
            let (mut value, grad) = p.value_and_grad_mut();
            let v = self
                .velocity
                .entry(key)
                .or_insert_with(|| Tensor::zeros(value.shape().to_vec()));

            for (idx, ((w, g), vel)) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(v.data_mut())
                .enumerate()
            {
                let g = g + self.weight_decay * *w;
                *vel = self.momentum * *vel + g;
                match &self.update_quant {
                    None => *w -= self.lr * *vel,
                    Some(q) => {
                        // Quantized update path: every intermediate is
                        // rounded to the update format. The SR seed is
                        // built from (step, parameter position, element)
                        // — all logical coordinates, so the rounding
                        // sequence is reproducible across processes
                        // (required for bit-exact checkpoint resume).
                        let base =
                            self.step_count.wrapping_mul(0x5851_F42D) ^ (pi as u64).rotate_left(17);
                        let wq = q.quantize_f32(*w, base.wrapping_add(idx as u64 * 3));
                        let step =
                            q.quantize_f32(self.lr * *vel, base.wrapping_add(idx as u64 * 3 + 1));
                        *w = q.quantize_f32(wq - step, base.wrapping_add(idx as u64 * 3 + 2));
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self, params: &[Parameter]) -> OptimState {
        OptimState {
            step: self.step_count,
            slots: params
                .iter()
                .map(|p| {
                    vec![self
                        .velocity
                        .get(&p.id())
                        .cloned()
                        .unwrap_or_else(|| Tensor::zeros(p.value().shape().to_vec()))]
                })
                .collect(),
        }
    }

    fn restore_state(&mut self, params: &[Parameter], state: &OptimState) {
        assert_eq!(
            params.len(),
            state.slots.len(),
            "SGD state has {} parameter slots, model has {}",
            state.slots.len(),
            params.len()
        );
        self.step_count = state.step;
        self.velocity.clear();
        for (p, slot) in params.iter().zip(&state.slots) {
            check_slot(p, slot, 1, "SGD");
            self.velocity.insert(p.id(), slot[0].clone());
        }
    }
}

/// Adam's decay rate of the first moment.
const BETA1: f32 = 0.9;
/// Adam's decay rate of the second moment.
const BETA2: f32 = 0.999;
/// Adam's denominator guard.
const EPS: f32 = 1e-8;

/// Adam — the optimizer of the paper's transformer experiment
/// (learning rate 1e-4), with betas `(0.9, 0.999)` and `eps = 1e-8`.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    update_quant: Option<Quantizer>,
    t: u64,
    moments: HashMap<usize, (Tensor, Tensor)>,
}

impl Adam {
    /// Creates Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            update_quant: None,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// Performs the weight update in the given custom precision.
    pub fn with_update_quantizer(mut self, q: Quantizer) -> Self {
        self.update_quant = Some(q);
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[Parameter]) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (pi, p) in params.iter().enumerate() {
            let key = p.id();
            let (mut value, grad) = p.value_and_grad_mut();
            let (m, v) = self.moments.entry(key).or_insert_with(|| {
                (
                    Tensor::zeros(value.shape().to_vec()),
                    Tensor::zeros(value.shape().to_vec()),
                )
            });
            for (idx, (((w, g), mi), vi)) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
                .enumerate()
            {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                let step = self.lr * mhat / (vhat.sqrt() + EPS);
                match &self.update_quant {
                    None => *w -= step,
                    Some(q) => {
                        // Seeded by logical coordinates, as in SGD.
                        let base = self.t.wrapping_mul(0x2545_F491) ^ (pi as u64).rotate_left(23);
                        let wq = q.quantize_f32(*w, base.wrapping_add(idx as u64 * 3));
                        let sq = q.quantize_f32(step, base.wrapping_add(idx as u64 * 3 + 1));
                        *w = q.quantize_f32(wq - sq, base.wrapping_add(idx as u64 * 3 + 2));
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self, params: &[Parameter]) -> OptimState {
        OptimState {
            step: self.t,
            slots: params
                .iter()
                .map(|p| match self.moments.get(&p.id()) {
                    Some((m, v)) => vec![m.clone(), v.clone()],
                    None => {
                        let z = Tensor::zeros(p.value().shape().to_vec());
                        vec![z.clone(), z]
                    }
                })
                .collect(),
        }
    }

    fn restore_state(&mut self, params: &[Parameter], state: &OptimState) {
        assert_eq!(
            params.len(),
            state.slots.len(),
            "Adam state has {} parameter slots, model has {}",
            state.slots.len(),
            params.len()
        );
        self.t = state.step;
        self.moments.clear();
        for (p, slot) in params.iter().zip(&state.slots) {
            check_slot(p, slot, 2, "Adam");
            self.moments
                .insert(p.id(), (slot[0].clone(), slot[1].clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_formats::{FloatFormat, Rounding};

    fn param_with_grad(value: Vec<f32>, grad: Vec<f32>) -> Parameter {
        let n = value.len();
        let p = Parameter::new("p", Tensor::from_vec(vec![n], value).unwrap());
        p.accumulate_grad(&Tensor::from_vec(vec![n], grad).unwrap());
        p
    }

    #[test]
    fn sgd_plain_step() {
        let p = param_with_grad(vec![1.0, 2.0], vec![0.5, -0.5]);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.step(std::slice::from_ref(&p));
        assert_eq!(p.value().data(), &[0.95, 2.05]);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let p = param_with_grad(vec![0.0], vec![1.0]);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.step(std::slice::from_ref(&p)); // v=1,   w=-0.1
        opt.step(std::slice::from_ref(&p)); // v=1.9, w=-0.29
        assert!((p.value().data()[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn sgd_weight_decay_pulls_to_zero() {
        let p = param_with_grad(vec![10.0], vec![0.0]);
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        opt.step(std::slice::from_ref(&p));
        assert!((p.value().data()[0] - 9.9).abs() < 1e-6);
    }

    #[test]
    fn sgd_quantized_update_lands_on_grid() {
        let q = Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest);
        let p = param_with_grad(vec![1.000001, -0.4999], vec![0.013, 0.027]);
        let mut opt = Sgd::new(0.1, 0.0, 0.0).with_update_quantizer(q);
        opt.step(std::slice::from_ref(&p));
        let fmt = FloatFormat::e6m5();
        for &w in p.value().data() {
            assert!(fmt.is_representable(w as f64), "{w} off-grid");
        }
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, |step 1| == lr for any nonzero grad.
        let p = param_with_grad(vec![0.0], vec![0.123]);
        let mut opt = Adam::new(0.01);
        opt.step(std::slice::from_ref(&p));
        assert!(
            (p.value().data()[0] + 0.01).abs() < 1e-4,
            "{}",
            p.value().data()[0]
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize (w - 3)^2 with analytic grad 2(w-3).
        let p = Parameter::new("w", Tensor::zeros(vec![1]));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            p.zero_grad();
            let w = p.value().data()[0];
            p.accumulate_grad(&Tensor::from_vec(vec![1], vec![2.0 * (w - 3.0)]).unwrap());
            opt.step(std::slice::from_ref(&p));
        }
        assert!((p.value().data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn zero_grads_clears() {
        let p = param_with_grad(vec![0.0], vec![1.0]);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.zero_grads(std::slice::from_ref(&p));
        assert_eq!(p.grad().data(), &[0.0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        let mut a = Adam::new(1e-4);
        a.set_learning_rate(1e-3);
        assert_eq!(a.learning_rate(), 1e-3);
    }

    #[test]
    fn sgd_state_roundtrip_resumes_bit_exactly() {
        let run = |resume_at: Option<usize>| -> Vec<f32> {
            let p = Parameter::new("w", Tensor::from_vec(vec![2], vec![1.0, -2.0]).unwrap());
            let mut opt = Sgd::new(0.05, 0.9, 1e-4);
            let mut snapshot = None;
            for step in 0..8 {
                if resume_at == Some(step) {
                    // Swap in a fresh optimizer restored from state —
                    // the continuation must not notice.
                    let (state, _) = snapshot.take().unwrap();
                    let mut fresh = Sgd::new(0.05, 0.9, 1e-4);
                    fresh.restore_state(std::slice::from_ref(&p), &state);
                    opt = fresh;
                }
                p.zero_grad();
                let g: Vec<f32> = p.value().data().iter().map(|w| 0.3 * w + 0.1).collect();
                p.accumulate_grad(&Tensor::from_vec(vec![2], g).unwrap());
                opt.step(std::slice::from_ref(&p));
                if step == 3 {
                    snapshot = Some((opt.export_state(std::slice::from_ref(&p)), step));
                }
            }
            let weights = p.value().data().to_vec();
            weights
        };
        let uninterrupted = run(None);
        let resumed = run(Some(4));
        assert_eq!(
            uninterrupted
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            resumed.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "restored SGD diverged from the uninterrupted run"
        );
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_exactly() {
        let run = |resume_at: Option<usize>| -> Vec<f32> {
            let p = Parameter::new(
                "w",
                Tensor::from_vec(vec![3], vec![0.5, -0.25, 2.0]).unwrap(),
            );
            let mut opt = Adam::new(0.01);
            let mut snapshot = None;
            for step in 0..8 {
                if resume_at == Some(step) {
                    let state: OptimState = snapshot.take().unwrap();
                    let mut fresh = Adam::new(0.01);
                    fresh.restore_state(std::slice::from_ref(&p), &state);
                    opt = fresh;
                }
                p.zero_grad();
                let g: Vec<f32> = p.value().data().iter().map(|w| 2.0 * (w - 3.0)).collect();
                p.accumulate_grad(&Tensor::from_vec(vec![3], g).unwrap());
                opt.step(std::slice::from_ref(&p));
                if step == 3 {
                    snapshot = Some(opt.export_state(std::slice::from_ref(&p)));
                }
            }
            let weights = p.value().data().to_vec();
            weights
        };
        let uninterrupted = run(None);
        let resumed = run(Some(4));
        assert_eq!(
            uninterrupted
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            resumed.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "restored Adam diverged from the uninterrupted run"
        );
    }

    #[test]
    fn export_before_any_step_gives_zero_moments() {
        let p = param_with_grad(vec![1.0, 2.0], vec![0.0, 0.0]);
        let opt = Sgd::new(0.1, 0.9, 0.0);
        let state = opt.export_state(std::slice::from_ref(&p));
        assert_eq!(state.step, 0);
        assert_eq!(state.slots.len(), 1);
        assert_eq!(state.slots[0][0], Tensor::zeros(vec![2]));
    }

    #[test]
    #[should_panic(expected = "state shape mismatch")]
    fn restore_rejects_shape_mismatch() {
        let p = param_with_grad(vec![1.0, 2.0], vec![0.0, 0.0]);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let state = OptimState {
            step: 1,
            slots: vec![vec![Tensor::zeros(vec![3])]],
        };
        opt.restore_state(std::slice::from_ref(&p), &state);
    }

    #[test]
    fn distinct_params_keep_distinct_state() {
        let p1 = param_with_grad(vec![0.0], vec![1.0]);
        let p2 = param_with_grad(vec![0.0], vec![-1.0]);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.step(&[p1.clone(), p2.clone()]);
        assert!(p1.value().data()[0] < 0.0);
        assert!(p2.value().data()[0] > 0.0);
    }
}
