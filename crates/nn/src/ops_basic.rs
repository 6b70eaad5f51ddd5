//! Element-wise and shape ops on the tape.

use crate::tape::{Graph, NodeId};
use mpt_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl Graph {
    /// Element-wise sum of two same-shape nodes (residual
    /// connections).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.value(a).add(self.value(b)).expect("add shapes match");
        self.push(
            value,
            vec![a, b],
            Some(Box::new(|args| {
                vec![Some(args.grad.clone()), Some(args.grad.clone())]
            })),
            None,
        )
    }

    /// Multiplies a node by a compile-time constant.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let value = self.value(x).scale(s);
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| vec![Some(args.grad.scale(s))])),
            None,
        )
    }

    /// Element-wise product of two same-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let value = self.value(a).mul(self.value(b)).expect("mul shapes match");
        self.push(
            value,
            vec![a, b],
            Some(Box::new(|args| {
                let da = args.grad.mul(args.inputs[1]).expect("shape");
                let db = args.grad.mul(args.inputs[0]).expect("shape");
                vec![Some(da), Some(db)]
            })),
            None,
        )
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let value = self.value(x).map(|v| v.max(0.0));
        self.push(
            value,
            vec![x],
            Some(Box::new(|args| {
                let dx = args
                    .grad
                    .zip_map(args.inputs[0], |g, v| if v > 0.0 { g } else { 0.0 })
                    .expect("shape");
                vec![Some(dx)]
            })),
            None,
        )
    }

    /// GELU activation (tanh approximation, as used by nanoGPT).
    pub fn gelu(&mut self, x: NodeId) -> NodeId {
        let value = self.value(x).map(gelu_fwd);
        self.push(
            value,
            vec![x],
            Some(Box::new(|args| {
                let dx = args
                    .grad
                    .zip_map(args.inputs[0], |g, v| g * gelu_grad(v))
                    .expect("shape");
                vec![Some(dx)]
            })),
            None,
        )
    }

    /// Reshapes a node (gradient is reshaped back).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, x: NodeId, shape: Vec<usize>) -> NodeId {
        let in_shape = self.value(x).shape().to_vec();
        let value = self.value(x).reshape(shape).expect("reshape numel matches");
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                vec![Some(args.grad.reshape(in_shape.clone()).expect("numel"))]
            })),
            None,
        )
    }

    /// Swaps the middle two axes of a node viewed as `[n, a, b, c]`
    /// ([`Tensor::swap_axes`]), giving the result `shape`; the gradient
    /// swaps `b` and `a` back into the input's shape. The tape's one
    /// layout op: transposes and attention's head split and merge are
    /// shape adapters over it.
    ///
    /// # Panics
    ///
    /// Panics if `n·a·b·c` or the product of `shape` differs from the
    /// node's element count.
    pub(crate) fn swap_axes(&mut self, x: NodeId, dims: [usize; 4], shape: Vec<usize>) -> NodeId {
        let [n, a, b, c] = dims;
        let in_shape = self.value(x).shape().to_vec();
        let value = self
            .value(x)
            .swap_axes(dims, shape)
            .expect("swap_axes dims match the node");
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                let dx = args.grad.swap_axes([n, b, a, c], in_shape.clone());
                vec![Some(dx.expect("gradient matches the output"))]
            })),
            None,
        )
    }

    /// Inverted dropout with keep-probability `1 - p`. Identity in
    /// evaluation graphs. `seed` must vary per step for fresh masks.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn dropout(&mut self, x: NodeId, p: f32, seed: u64) -> NodeId {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        if !self.is_training() || p == 0.0 {
            // Identity pass-through node keeps graph structure stable.
            let value = self.value(x).clone();
            return self.push(
                value,
                vec![x],
                Some(Box::new(|args| vec![Some(args.grad.clone())])),
                None,
            );
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let keep = 1.0 - p;
        let mask: Vec<f32> = (0..self.value(x).numel())
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Tensor::from_vec(self.value(x).shape().to_vec(), mask).expect("shape");
        let value = self.value(x).mul(&mask).expect("shape");
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                vec![Some(args.grad.mul(&mask).expect("shape"))]
            })),
            None,
        )
    }

    /// Mean over all elements, producing a scalar node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let n = self.value(x).numel().max(1) as f32;
        let value = Tensor::scalar(self.value(x).mean() as f32);
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                let g = args.grad.item() / n;
                vec![Some(args.inputs[0].map(|_| g))]
            })),
            None,
        )
    }
}

fn gelu_fwd(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_grad(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let u = SQRT_2_OVER_PI * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn add_backward_routes_to_both() {
        let mut g = Graph::new(true);
        let a = g.input(Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap());
        let b = g.input(Tensor::from_vec(vec![2], vec![3.0, 4.0]).unwrap());
        let s = g.add(a, b);
        let loss = g.mean_all(s);
        g.backward(loss, 1.0);
        assert_eq!(g.grad(a).unwrap().data(), &[0.5, 0.5]);
        assert_eq!(g.grad(b).unwrap().data(), &[0.5, 0.5]);
    }

    #[test]
    fn mul_product_rule() {
        let mut g = Graph::new(true);
        let a = g.input(Tensor::from_vec(vec![1], vec![3.0]).unwrap());
        let b = g.input(Tensor::from_vec(vec![1], vec![5.0]).unwrap());
        let p = g.mul(a, b);
        g.backward(p, 1.0);
        assert_eq!(g.grad(a).unwrap().data(), &[5.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[3.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]).unwrap());
        let y = g.relu(x);
        assert_eq!(g.value(y).data(), &[0.0, 0.0, 2.0]);
        let loss = g.mean_all(y);
        g.backward(loss, 3.0); // seed 3 / n 3 => unit upstream grad
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn gelu_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let analytic = gelu_grad(x);
            let numeric = finite_diff(gelu_fwd, x);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "x={x}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn gelu_known_values() {
        assert!(gelu_fwd(0.0).abs() < 1e-6);
        assert!((gelu_fwd(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_fwd(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn reshape_roundtrips_gradient() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![2, 3], |i| i as f32));
        let y = g.reshape(x, vec![3, 2]);
        let loss = g.mean_all(y);
        g.backward(loss, 6.0);
        assert_eq!(g.grad(x).unwrap().shape(), &[2, 3]);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut g = Graph::new(false);
        let x = g.input(Tensor::ones(vec![8]));
        let y = g.dropout(x, 0.5, 1);
        assert_eq!(g.value(y).data(), &[1.0; 8]);
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::ones(vec![1000]));
        let y = g.dropout(x, 0.5, 42);
        for &v in g.value(y).data() {
            assert!(v == 0.0 || v == 2.0, "{v}");
        }
        let kept = g.value(y).data().iter().filter(|&&v| v != 0.0).count();
        assert!((300..700).contains(&kept), "{kept}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::ones(vec![100]));
        let y = g.dropout(x, 0.3, 7);
        let loss = g.mean_all(y);
        g.backward(loss, 100.0);
        let fwd = g.value(y).data().to_vec();
        let grad = g.grad(x).unwrap().data().to_vec();
        for (f, gr) in fwd.iter().zip(grad) {
            assert_eq!(*f, gr, "mask mismatch between passes");
        }
    }

    #[test]
    fn mean_all_gradient_uniform() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![4], |i| i as f32));
        let m = g.mean_all(x);
        assert_eq!(g.value(m).item(), 1.5);
        g.backward(m, 1.0);
        assert_eq!(g.grad(x).unwrap().data(), &[0.25; 4]);
    }
}
