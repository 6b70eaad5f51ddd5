//! Quantized GEMM ops on the tape.
//!
//! These are the operations the whole framework exists for: matrix
//! products whose forward pass runs in the layer's forward arithmetic
//! and whose two backward products (input gradient and weight
//! gradient) run in the backward arithmetic — the computation flow of
//! the paper's Fig. 2.

use crate::precision::GemmPrecision;
use crate::tape::{Graph, NodeId};

impl Graph {
    /// Quantized matrix product `a · b` under `prec`:
    /// forward uses `prec.fwd`; the backward products
    /// `dA = dC · Bᵀ` and `dB = Aᵀ · dC` use `prec.bwd`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not conforming matrices.
    pub fn matmul_q(&mut self, a: NodeId, b: NodeId, prec: GemmPrecision) -> NodeId {
        let backend = self.backend();
        let value = backend
            .gemm(self.value(a), self.value(b), &prec.fwd)
            .expect("matmul_q operand shapes conform");
        let bwd = prec.bwd;
        self.push(
            value,
            vec![a, b],
            Some(Box::new(move |args| {
                let a_val = args.inputs[0];
                let b_val = args.inputs[1];
                let bt = b_val.transpose().expect("matrix");
                let at = a_val.transpose().expect("matrix");
                let da = backend
                    .gemm(args.grad, &bt, &bwd)
                    .expect("dA shapes conform");
                let db = backend
                    .gemm(&at, args.grad, &bwd)
                    .expect("dB shapes conform");
                vec![Some(da), Some(db)]
            })),
            None,
        )
    }

    /// Adds a `[cols]` bias vector to every row of a 2-D node.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not conform.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let value = self
            .value(x)
            .add_row_vector(self.value(bias))
            .expect("bias length matches columns");
        self.push(
            value,
            vec![x, bias],
            Some(Box::new(|args| {
                let db = args.grad.sum_rows().expect("matrix");
                vec![Some(args.grad.clone()), Some(db)]
            })),
            None,
        )
    }

    /// Full linear layer primitive: `x · wᵀ + bias` where
    /// `w` is `[out, in]` (PyTorch convention) and `x` is
    /// `[batch, in]`.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not conform.
    pub fn linear(
        &mut self,
        x: NodeId,
        w: NodeId,
        bias: Option<NodeId>,
        prec: GemmPrecision,
    ) -> NodeId {
        // Record an explicit transpose node so gradients flow back to
        // the [out, in] weight layout.
        let wt = self.transpose2d(w);
        let y = self.matmul_q(x, wt, prec);
        match bias {
            Some(b) => self.add_bias(y, b),
            None => y,
        }
    }

    /// Transpose of a 2-D node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a matrix.
    pub fn transpose2d(&mut self, x: NodeId) -> NodeId {
        let (r, c) = self
            .value(x)
            .as_matrix()
            .expect("transpose2d needs a matrix");
        self.swap_axes(x, [1, r, c, 1], vec![c, r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;
    use mpt_arith::QGemmConfig;
    use mpt_tensor::Tensor;

    fn fp32() -> GemmPrecision {
        GemmPrecision::fp32()
    }

    #[test]
    fn matmul_forward_matches_reference() {
        let mut g = Graph::new(true);
        let a = g.input(Tensor::from_fn(vec![3, 4], |i| (i as f32) * 0.1));
        let b = g.input(Tensor::from_fn(vec![4, 2], |i| (i as f32) * 0.2 - 0.5));
        let c = g.matmul_q(a, b, fp32());
        let reference = g.value(a).matmul(g.value(b)).unwrap();
        assert_eq!(g.value(c), &reference);
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        // loss = mean(A·B); check dA numerically.
        let a0 = Tensor::from_fn(vec![2, 3], |i| (i as f32) * 0.3 - 0.4);
        let b0 = Tensor::from_fn(vec![3, 2], |i| (i as f32) * 0.2 - 0.3);
        let mut g = Graph::new(true);
        let a = g.input(a0.clone());
        let b = g.input(b0.clone());
        let c = g.matmul_q(a, b, fp32());
        let loss = g.mean_all(c);
        g.backward(loss, 1.0);
        let da = g.grad(a).unwrap().clone();
        let db = g.grad(b).unwrap().clone();

        let f = |am: &Tensor, bm: &Tensor| am.matmul(bm).unwrap().mean() as f32;
        let h = 1e-2;
        for idx in 0..a0.numel() {
            let mut plus = a0.clone();
            plus.data_mut()[idx] += h;
            let mut minus = a0.clone();
            minus.data_mut()[idx] -= h;
            let numeric = (f(&plus, &b0) - f(&minus, &b0)) / (2.0 * h);
            assert!((da.data()[idx] - numeric).abs() < 1e-3, "dA[{idx}]");
        }
        for idx in 0..b0.numel() {
            let mut plus = b0.clone();
            plus.data_mut()[idx] += h;
            let mut minus = b0.clone();
            minus.data_mut()[idx] -= h;
            let numeric = (f(&a0, &plus) - f(&a0, &minus)) / (2.0 * h);
            assert!((db.data()[idx] - numeric).abs() < 1e-3, "dB[{idx}]");
        }
    }

    #[test]
    fn backward_uses_backward_precision() {
        // Forward FP32 but backward quantized to a coarse format: the
        // parameter gradient must land on the coarse grid.
        let prec =
            GemmPrecision::split(QGemmConfig::fp32(), QGemmConfig::fp8_fp12_sr().with_seed(3));
        let w = Parameter::new("w", Tensor::from_fn(vec![2, 2], |i| 0.3 + i as f32 * 0.21));
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![2, 2], |i| 0.7 - i as f32 * 0.13));
        let wn = g.param(&w);
        let y = g.matmul_q(x, wn, prec);
        let loss = g.mean_all(y);
        g.backward(loss, 1.0);
        let e6m5 = mpt_formats::FloatFormat::e6m5();
        for &v in w.grad().data() {
            assert!(
                e6m5.is_representable(v as f64),
                "grad {v} not E6M5-representable"
            );
        }
    }

    #[test]
    fn add_bias_gradients() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![3, 2], |i| i as f32));
        let b = g.input(Tensor::from_vec(vec![2], vec![1.0, -1.0]).unwrap());
        let y = g.add_bias(x, b);
        assert_eq!(g.value(y).at(&[0, 0]), 1.0);
        let loss = g.mean_all(y);
        g.backward(loss, 6.0); // upstream grad of ones
        assert_eq!(g.grad(b).unwrap().data(), &[3.0, 3.0]);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn linear_matches_manual_computation() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap());
        // w: [out=2, in=3]
        let w = g.input(Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]).unwrap());
        let b = g.input(Tensor::from_vec(vec![2], vec![10.0, 20.0]).unwrap());
        let y = g.linear(x, w, Some(b), fp32());
        assert_eq!(g.value(y).data(), &[11.0, 25.0]);
    }

    #[test]
    fn transpose_gradient_transposes_back() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![2, 3], |i| i as f32));
        let y = g.transpose2d(x);
        assert_eq!(g.value(y).shape(), &[3, 2]);
        let loss = g.mean_all(y);
        g.backward(loss, 6.0);
        assert_eq!(g.grad(x).unwrap().shape(), &[2, 3]);
        assert_eq!(g.grad(x).unwrap().data(), &[1.0; 6]);
    }
}
