//! Convolution and pooling ops.
//!
//! Convolutions are lowered to GEMM with `im2col`/`col2im` exactly as
//! the paper does on the CPU host (Section III, footnote 1): the
//! forward product `W · cols` runs in the layer's forward arithmetic,
//! and both backward products (`dW = dY · colsᵀ`,
//! `dcols = Wᵀ · dY`) run in the backward arithmetic. The backward
//! pass unfolds `colsᵀ` directly with `im2col_t` rather than
//! transposing a fresh `im2col`.

use crate::precision::GemmPrecision;
use crate::tape::{Graph, NodeId};
use mpt_tensor::{col2im, im2col, im2col_t, Conv2dGeometry, Tensor};

impl Graph {
    /// 2-D convolution over an NCHW node.
    ///
    /// `weight` is `[out_channels, in_channels·kh·kw]` (already
    /// flattened for the GEMM formulation), `bias` is
    /// `[out_channels]`. Output is `[batch, out_channels, oh, ow]`.
    ///
    /// # Panics
    ///
    /// Panics if shapes do not conform to `geom`.
    pub fn conv2d(
        &mut self,
        x: NodeId,
        weight: NodeId,
        bias: Option<NodeId>,
        geom: Conv2dGeometry,
        prec: GemmPrecision,
    ) -> NodeId {
        let input = self.value(x);
        assert_eq!(input.rank(), 4, "conv2d input must be NCHW");
        let (batch, in_c) = (input.shape()[0], input.shape()[1]);
        let out_c = self.value(weight).shape()[0];

        let backend = self.backend();
        let cols = im2col(input, &geom).expect("input matches geometry");
        let mut out_mat = backend
            .gemm(self.value(weight), &cols, &prec.fwd)
            .expect("conv forward GEMM conforms"); // [out_c, batch*oh*ow]

        // Add each channel's bias to its row, then rearrange
        // [out_c, batch, oh*ow] -> [batch, out_c, oh*ow]. Without a
        // bias the row still adds 0.0, which turns -0.0 into +0.0.
        let pix = geom.out_pixels();
        let bias_vals = bias.map(|b| self.value(b).data());
        let row = batch * pix;
        for o in 0..out_c {
            let bv = bias_vals.map_or(0.0, |b| b[o]);
            for v in &mut out_mat.data_mut()[o * row..(o + 1) * row] {
                *v += bv;
            }
        }
        let value = out_mat
            .swap_axes(
                [1, out_c, batch, pix],
                vec![batch, out_c, geom.out_h, geom.out_w],
            )
            .expect("shape");

        let bwd = prec.bwd;
        let parents = match bias {
            Some(b) => vec![x, weight, b],
            None => vec![x, weight],
        };
        let has_bias = bias.is_some();
        self.push(
            value,
            parents,
            Some(Box::new(move |args| {
                // Re-derive dY as the [out_c, batch*oh*ow] matrix.
                let dy = args
                    .grad
                    .swap_axes([1, batch, out_c, pix], vec![out_c, batch * pix])
                    .expect("shape");

                let w_val = args.inputs[1];
                let x_val = args.inputs[0];

                // dW = dY · colsᵀ (backward arithmetic).
                let colst = im2col_t(x_val, &geom).expect("geometry");
                let dw = backend.gemm(&dy, &colst, &bwd).expect("dW GEMM conforms");
                // dcols = Wᵀ · dY, folded back with col2im.
                let wt = w_val.transpose().expect("matrix");
                let dcols = backend.gemm(&wt, &dy, &bwd).expect("dcols GEMM conforms");
                let dx = col2im(&dcols, batch, in_c, &geom).expect("geometry");

                let mut grads = vec![Some(dx), Some(dw)];
                if has_bias {
                    // db[o] = sum over batch and pixels of dY.
                    let mut db = vec![0.0f32; out_c];
                    for (o, d) in db.iter_mut().enumerate() {
                        *d = dy.data()[o * (batch * pix)..(o + 1) * (batch * pix)]
                            .iter()
                            .sum();
                    }
                    grads.push(Some(Tensor::from_vec(vec![out_c], db).expect("shape")));
                }
                grads
            })),
            None,
        )
    }

    /// 2×2 max pooling with stride 2 over an NCHW node (the LeNet/VGG
    /// pooling). Odd trailing rows/columns are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4.
    pub fn maxpool2d(&mut self, x: NodeId) -> NodeId {
        let input = self.value(x);
        assert_eq!(input.rank(), 4, "maxpool2d input must be NCHW");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = (h / 2, w / 2);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        let data = input.data();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        // First maximum in window order; the first NaN
                        // wins, as in PyTorch's `max_pool2d`.
                        let mut best_idx = base + oy * 2 * w + ox * 2;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = base + (oy * 2 + dy) * w + (ox * 2 + dx);
                                let (v, best) = (data[idx], data[best_idx]);
                                if !best.is_nan() && (v > best || v.is_nan()) {
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = (img * c + ch) * oh * ow + oy * ow + ox;
                        out[o] = data[best_idx];
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        let value = Tensor::from_vec(vec![n, c, oh, ow], out).expect("shape");
        let in_numel = n * c * h * w;
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                let mut dx = vec![0.0f32; in_numel];
                for (o, &src) in argmax.iter().enumerate() {
                    dx[src] += args.grad.data()[o];
                }
                vec![Some(Tensor::from_vec(vec![n, c, h, w], dx).expect("shape"))]
            })),
            None,
        )
    }

    /// Global average pooling: NCHW → `[batch, channels]` (the ResNet
    /// head).
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4.
    pub fn avgpool_global(&mut self, x: NodeId) -> NodeId {
        let input = self.value(x);
        assert_eq!(input.rank(), 4, "avgpool_global input must be NCHW");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let area = (h * w) as f32;
        let mut out = vec![0.0f32; n * c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                out[img * c + ch] = input.data()[base..base + h * w].iter().sum::<f32>() / area;
            }
        }
        let value = Tensor::from_vec(vec![n, c], out).expect("shape");
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                let mut dx = vec![0.0f32; n * c * h * w];
                for img in 0..n {
                    for ch in 0..c {
                        let g = args.grad.data()[img * c + ch] / area;
                        let base = (img * c + ch) * h * w;
                        for v in &mut dx[base..base + h * w] {
                            *v = g;
                        }
                    }
                }
                vec![Some(Tensor::from_vec(vec![n, c, h, w], dx).expect("shape"))]
            })),
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp32() -> GemmPrecision {
        GemmPrecision::fp32()
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 is the identity.
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![1, 1, 3, 3], |i| i as f32));
        let w = g.input(Tensor::ones(vec![1, 1]));
        let geom = Conv2dGeometry::new(3, 3, 1, 1, 1, 0).unwrap();
        let y = g.conv2d(x, w, None, geom, fp32());
        assert_eq!(g.value(y).shape(), &[1, 1, 3, 3]);
        assert_eq!(g.value(y).data(), g.value(x).data());
    }

    #[test]
    fn conv2d_bias_added_per_channel() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::zeros(vec![1, 1, 2, 2]));
        let w = g.input(Tensor::zeros(vec![2, 1]));
        let b = g.input(Tensor::from_vec(vec![2], vec![3.0, -1.0]).unwrap());
        let geom = Conv2dGeometry::new(2, 2, 1, 1, 1, 0).unwrap();
        let y = g.conv2d(x, w, Some(b), geom, fp32());
        assert_eq!(g.value(y).at(&[0, 0, 1, 1]), 3.0);
        assert_eq!(g.value(y).at(&[0, 1, 0, 0]), -1.0);
    }

    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let geom = Conv2dGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
        let x0 = Tensor::from_fn(vec![1, 2, 4, 4], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let w0 = Tensor::from_fn(vec![2, 2 * 9], |i| ((i * 5 % 11) as f32 - 5.0) * 0.1);
        let b0 = Tensor::from_vec(vec![2], vec![0.1, -0.2]).unwrap();

        let run = |xv: &Tensor, wv: &Tensor, bv: &Tensor| -> f32 {
            let mut g = Graph::new(true);
            let x = g.input(xv.clone());
            let w = g.input(wv.clone());
            let b = g.input(bv.clone());
            let y = g.conv2d(x, w, Some(b), geom, fp32());
            let sq = g.mul(y, y);
            let loss = g.mean_all(sq);
            g.value(loss).item()
        };

        let mut g = Graph::new(true);
        let x = g.input(x0.clone());
        let w = g.input(w0.clone());
        let b = g.input(b0.clone());
        let y = g.conv2d(x, w, Some(b), geom, fp32());
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        g.backward(loss, 1.0);

        let h = 1e-2;
        // Sample a few coordinates of each gradient.
        for idx in [0usize, 5, 17, 31] {
            let mut plus = x0.clone();
            plus.data_mut()[idx] += h;
            let mut minus = x0.clone();
            minus.data_mut()[idx] -= h;
            let numeric = (run(&plus, &w0, &b0) - run(&minus, &w0, &b0)) / (2.0 * h);
            let analytic = g.grad(x).unwrap().data()[idx];
            assert!(
                (analytic - numeric).abs() < 1e-3,
                "dx[{idx}]: {analytic} vs {numeric}"
            );
        }
        for idx in [0usize, 7, 20, 35] {
            let mut plus = w0.clone();
            plus.data_mut()[idx] += h;
            let mut minus = w0.clone();
            minus.data_mut()[idx] -= h;
            let numeric = (run(&x0, &plus, &b0) - run(&x0, &minus, &b0)) / (2.0 * h);
            let analytic = g.grad(w).unwrap().data()[idx];
            assert!(
                (analytic - numeric).abs() < 1e-3,
                "dw[{idx}]: {analytic} vs {numeric}"
            );
        }
        for idx in 0..2 {
            let mut plus = b0.clone();
            plus.data_mut()[idx] += h;
            let mut minus = b0.clone();
            minus.data_mut()[idx] -= h;
            let numeric = (run(&x0, &w0, &plus) - run(&x0, &w0, &minus)) / (2.0 * h);
            let analytic = g.grad(b).unwrap().data()[idx];
            assert!(
                (analytic - numeric).abs() < 1e-3,
                "db[{idx}]: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn maxpool_selects_max_and_routes_gradient() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]).unwrap());
        let y = g.maxpool2d(x);
        assert_eq!(g.value(y).data(), &[5.0]);
        g.backward(y, 1.0);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_keeps_nonfinite_windows_in_place() {
        // Image 1 is all −inf: its gradient stays in its own window.
        let mut g = Graph::new(true);
        let mut v = vec![1.0, 5.0, 3.0, 2.0];
        v.extend([f32::NEG_INFINITY; 4]);
        let x = g.input(Tensor::from_vec(vec![2, 1, 2, 2], v).unwrap());
        let y = g.maxpool2d(x);
        assert_eq!(g.value(y).data(), &[5.0, f32::NEG_INFINITY]);
        let loss = g.mean_all(y);
        g.backward(loss, 2.0);
        let dx = g.grad(x).unwrap().data().to_vec();
        assert_eq!(dx, [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);

        // The first NaN in window order wins, over larger values too.
        let mut g = Graph::new(true);
        let x = g.input(
            Tensor::from_vec(vec![1, 2, 2, 2], {
                let mut v = vec![1.0, f32::NAN, 7.0, f32::NAN];
                v.extend([f32::NAN; 4]);
                v
            })
            .unwrap(),
        );
        let y = g.maxpool2d(x);
        assert!(g.value(y).data().iter().all(|v| v.is_nan()));
        let loss = g.mean_all(y);
        g.backward(loss, 2.0);
        let dx = g.grad(x).unwrap().data().to_vec();
        assert_eq!(dx, [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![1, 1, 5, 5], |i| i as f32));
        let y = g.maxpool2d(x);
        assert_eq!(g.value(y).shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn avgpool_means_channels() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![1, 2, 2, 2], |i| i as f32));
        let y = g.avgpool_global(x);
        assert_eq!(g.value(y).shape(), &[1, 2]);
        assert_eq!(g.value(y).data(), &[1.5, 5.5]);
        let loss = g.mean_all(y);
        g.backward(loss, 2.0);
        assert_eq!(g.grad(x).unwrap().data(), &[0.25; 8]);
    }
}
