//! Sequence-model ops: embedding lookup, batched quantized matmul and
//! causal masking — the primitives behind the NanoGPT benchmark.

use crate::precision::GemmPrecision;
use crate::tape::{Graph, NodeId};
use mpt_tensor::Tensor;

impl Graph {
    /// Embedding lookup: gathers rows of `table`
    /// (`[vocab, dim]`) for each id, producing `[ids.len(), dim]`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a matrix or an id is out of range.
    pub fn embedding(&mut self, table: NodeId, ids: &[usize]) -> NodeId {
        let (vocab, dim) = self
            .value(table)
            .as_matrix()
            .expect("embedding table is a matrix");
        assert!(ids.iter().all(|&i| i < vocab), "embedding id out of range");
        let mut out = vec![0.0f32; ids.len() * dim];
        for (row, &id) in ids.iter().enumerate() {
            out[row * dim..(row + 1) * dim]
                .copy_from_slice(&self.value(table).data()[id * dim..(id + 1) * dim]);
        }
        let value = Tensor::from_vec(vec![ids.len(), dim], out).expect("shape");
        let ids = ids.to_vec();
        self.push(
            value,
            vec![table],
            Some(Box::new(move |args| {
                let mut dt = vec![0.0f32; vocab * dim];
                for (row, &id) in ids.iter().enumerate() {
                    for j in 0..dim {
                        dt[id * dim + j] += args.grad.data()[row * dim + j];
                    }
                }
                vec![Some(Tensor::from_vec(vec![vocab, dim], dt).expect("shape"))]
            })),
            None,
        )
    }

    /// Batched quantized matmul over rank-3 nodes:
    /// `[b, n, k] × [b, k, m] → [b, n, m]`.
    ///
    /// Each batch slice runs as an independent quantized GEMM (used by
    /// attention: one GEMM per head). Stochastic streams are decoupled
    /// across slices by deriving a per-slice seed.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch.
    pub fn matmul_batched_q(&mut self, a: NodeId, b: NodeId, prec: GemmPrecision) -> NodeId {
        let (ab, an, ak) = rank3(self.value(a), "matmul_batched_q lhs");
        let (bb, bk, bm) = rank3(self.value(b), "matmul_batched_q rhs");
        assert_eq!(ab, bb, "batch sizes differ");
        assert_eq!(ak, bk, "inner dimensions differ");

        let backend = self.backend();
        let mut out = Vec::with_capacity(ab * an * bm);
        for s in 0..ab {
            let as_ = slice3(self.value(a), s, an, ak);
            let bs = slice3(self.value(b), s, bk, bm);
            let cfg = prec.fwd.with_seed(slice_seed(&prec.fwd, s));
            let c = backend.gemm(&as_, &bs, &cfg).expect("shapes conform");
            out.extend_from_slice(c.data());
        }
        let value = Tensor::from_vec(vec![ab, an, bm], out).expect("shape");

        let bwd = prec.bwd;
        self.push(
            value,
            vec![a, b],
            Some(Box::new(move |args| {
                let mut da = vec![0.0f32; ab * an * ak];
                let mut db = vec![0.0f32; ab * ak * bm];
                for s in 0..ab {
                    let gs = slice3(args.grad, s, an, bm);
                    let as_ = slice3(args.inputs[0], s, an, ak);
                    let bs = slice3(args.inputs[1], s, ak, bm);
                    let cfg = bwd.with_seed(slice_seed(&bwd, s));
                    let bt = bs.transpose().expect("matrix");
                    let at = as_.transpose().expect("matrix");
                    let das = backend.gemm(&gs, &bt, &cfg).expect("conform");
                    let dbs = backend.gemm(&at, &gs, &cfg).expect("conform");
                    da[s * an * ak..(s + 1) * an * ak].copy_from_slice(das.data());
                    db[s * ak * bm..(s + 1) * ak * bm].copy_from_slice(dbs.data());
                }
                vec![
                    Some(Tensor::from_vec(vec![ab, an, ak], da).expect("shape")),
                    Some(Tensor::from_vec(vec![ab, ak, bm], db).expect("shape")),
                ]
            })),
            None,
        )
    }

    /// Batched transpose of the last two dims: `[b, r, c] → [b, c, r]`.
    ///
    /// # Panics
    ///
    /// Panics unless the node is rank 3.
    pub fn transpose_batched(&mut self, x: NodeId) -> NodeId {
        let (b, r, c) = rank3(self.value(x), "transpose_batched");
        self.swap_axes(x, [b, r, c, 1], vec![b, c, r])
    }

    /// Applies an additive causal mask to a rank-3 score node
    /// `[heads, t, t]`: positions `j > i` are set to `-inf` so softmax
    /// zeroes them.
    ///
    /// # Panics
    ///
    /// Panics unless the node is rank 3 with square trailing dims.
    pub fn causal_mask(&mut self, x: NodeId) -> NodeId {
        let (b, r, c) = rank3(self.value(x), "causal_mask");
        assert_eq!(r, c, "causal mask needs square scores");
        let mut value = self.value(x).clone();
        for s in 0..b {
            for i in 0..r {
                for j in (i + 1)..c {
                    value.data_mut()[s * r * c + i * c + j] = f32::NEG_INFINITY;
                }
            }
        }
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                let mut dx = args.grad.clone();
                for s in 0..b {
                    for i in 0..r {
                        for j in (i + 1)..c {
                            dx.data_mut()[s * r * c + i * c + j] = 0.0;
                        }
                    }
                }
                vec![Some(dx)]
            })),
            None,
        )
    }

    /// Row-wise softmax over the last dim of a rank-3 node
    /// (attention probabilities). `-inf` entries (from
    /// [`causal_mask`](Graph::causal_mask)) become exact zeros.
    ///
    /// # Panics
    ///
    /// Panics unless the node is rank 3.
    pub fn softmax_batched(&mut self, x: NodeId) -> NodeId {
        let (b, r, c) = rank3(self.value(x), "softmax_batched");
        let flat = self.value(x).reshape(vec![b * r, c]).expect("numel");
        let probs = crate::ops_loss::softmax_rows_fwd(&flat);
        let value = probs.reshape(vec![b, r, c]).expect("numel");
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                let s = args.output;
                let mut dx = vec![0.0f32; b * r * c];
                for row in 0..b * r {
                    let srow = &s.data()[row * c..(row + 1) * c];
                    let grow = &args.grad.data()[row * c..(row + 1) * c];
                    let dot: f32 = srow.iter().zip(grow).map(|(&a, &g)| a * g).sum();
                    for j in 0..c {
                        dx[row * c + j] = srow[j] * (grow[j] - dot);
                    }
                }
                vec![Some(Tensor::from_vec(vec![b, r, c], dx).expect("shape"))]
            })),
            None,
        )
    }
}

impl Graph {
    /// Extracts columns `start..end` of a 2-D node (used to split a
    /// fused QKV projection).
    ///
    /// # Panics
    ///
    /// Panics on non-matrix input or an out-of-range span.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, end: usize) -> NodeId {
        let (r, c) = self
            .value(x)
            .as_matrix()
            .expect("slice_cols input is a matrix");
        assert!(
            start <= end && end <= c,
            "column span {start}..{end} out of range"
        );
        let w = end - start;
        let mut out = vec![0.0f32; r * w];
        for i in 0..r {
            out[i * w..(i + 1) * w]
                .copy_from_slice(&self.value(x).data()[i * c + start..i * c + end]);
        }
        let value = Tensor::from_vec(vec![r, w], out).expect("shape");
        self.push(
            value,
            vec![x],
            Some(Box::new(move |args| {
                let mut dx = vec![0.0f32; r * c];
                for i in 0..r {
                    dx[i * c + start..i * c + end]
                        .copy_from_slice(&args.grad.data()[i * w..(i + 1) * w]);
                }
                vec![Some(Tensor::from_vec(vec![r, c], dx).expect("shape"))]
            })),
            None,
        )
    }

    /// Reorganizes `[tokens, heads·head_dim]` into
    /// `[heads, tokens, head_dim]` for per-head attention GEMMs.
    ///
    /// # Panics
    ///
    /// Panics unless the feature dimension divides evenly by `heads`.
    pub fn split_heads(&mut self, x: NodeId, heads: usize) -> NodeId {
        let (t, c) = self
            .value(x)
            .as_matrix()
            .expect("split_heads input is a matrix");
        assert_eq!(
            c % heads,
            0,
            "feature dim {c} not divisible by {heads} heads"
        );
        let hs = c / heads;
        self.swap_axes(x, [1, t, heads, hs], vec![heads, t, hs])
    }

    /// Inverse of [`split_heads`](Graph::split_heads):
    /// `[heads, tokens, head_dim] → [tokens, heads·head_dim]`.
    ///
    /// # Panics
    ///
    /// Panics unless the node is rank 3.
    pub fn merge_heads(&mut self, x: NodeId) -> NodeId {
        let (heads, t, hs) = rank3(self.value(x), "merge_heads");
        self.swap_axes(x, [1, heads, t, hs], vec![t, heads * hs])
    }
}

fn rank3(t: &Tensor, op: &str) -> (usize, usize, usize) {
    assert_eq!(
        t.rank(),
        3,
        "{op} requires a rank-3 tensor, got rank {}",
        t.rank()
    );
    (t.shape()[0], t.shape()[1], t.shape()[2])
}

fn slice3(t: &Tensor, s: usize, r: usize, c: usize) -> Tensor {
    Tensor::from_vec(vec![r, c], t.data()[s * r * c..(s + 1) * r * c].to_vec())
        .expect("slice shape")
}

/// Derives a distinct seed per batch slice from the config's existing
/// stream (keeps slices decorrelated without global state).
fn slice_seed(cfg: &mpt_arith::QGemmConfig, s: usize) -> u64 {
    cfg.mac
        .acc
        .rng()
        .seed()
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(s as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_gathers_and_scatters() {
        let mut g = Graph::new(true);
        let table = g.input(Tensor::from_fn(vec![4, 2], |i| i as f32));
        let e = g.embedding(table, &[2, 0, 2]);
        assert_eq!(g.value(e).data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        let loss = g.mean_all(e);
        g.backward(loss, 6.0);
        // Row 2 was used twice: grad 2, row 0 once: grad 1, others 0.
        assert_eq!(
            g.grad(table).unwrap().data(),
            &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0]
        );
    }

    #[test]
    #[should_panic(expected = "id out of range")]
    fn embedding_validates_ids() {
        let mut g = Graph::new(true);
        let table = g.input(Tensor::zeros(vec![4, 2]));
        g.embedding(table, &[4]);
    }

    #[test]
    fn batched_matmul_matches_per_slice() {
        let mut g = Graph::new(true);
        let a = g.input(Tensor::from_fn(vec![2, 3, 4], |i| (i as f32) * 0.1));
        let b = g.input(Tensor::from_fn(vec![2, 4, 2], |i| (i as f32) * 0.05 - 0.2));
        let c = g.matmul_batched_q(a, b, GemmPrecision::fp32());
        assert_eq!(g.value(c).shape(), &[2, 3, 2]);
        for s in 0..2 {
            let as_ = slice3(g.value(a), s, 3, 4);
            let bs = slice3(g.value(b), s, 4, 2);
            let expect = as_.matmul(&bs).unwrap();
            let got = slice3(g.value(c), s, 3, 2);
            assert_eq!(got, expect, "slice {s}");
        }
    }

    #[test]
    fn batched_matmul_gradients_match_finite_difference() {
        let a0 = Tensor::from_fn(vec![2, 2, 3], |i| ((i * 5 % 7) as f32) * 0.2 - 0.4);
        let b0 = Tensor::from_fn(vec![2, 3, 2], |i| ((i * 3 % 5) as f32) * 0.3 - 0.5);
        let run = |av: &Tensor, bv: &Tensor| -> f32 {
            let mut g = Graph::new(true);
            let a = g.input(av.clone());
            let b = g.input(bv.clone());
            let c = g.matmul_batched_q(a, b, GemmPrecision::fp32());
            let sq = g.mul(c, c);
            let loss = g.mean_all(sq);
            g.value(loss).item()
        };
        let mut g = Graph::new(true);
        let a = g.input(a0.clone());
        let b = g.input(b0.clone());
        let c = g.matmul_batched_q(a, b, GemmPrecision::fp32());
        let sq = g.mul(c, c);
        let loss = g.mean_all(sq);
        g.backward(loss, 1.0);
        let h = 1e-2;
        for idx in [0usize, 4, 9, 11] {
            let mut plus = a0.clone();
            plus.data_mut()[idx] += h;
            let mut minus = a0.clone();
            minus.data_mut()[idx] -= h;
            let numeric = (run(&plus, &b0) - run(&minus, &b0)) / (2.0 * h);
            let analytic = g.grad(a).unwrap().data()[idx];
            assert!((analytic - numeric).abs() < 1e-3, "da[{idx}]");
        }
        for idx in [0usize, 5, 8, 11] {
            let mut plus = b0.clone();
            plus.data_mut()[idx] += h;
            let mut minus = b0.clone();
            minus.data_mut()[idx] -= h;
            let numeric = (run(&a0, &plus) - run(&a0, &minus)) / (2.0 * h);
            let analytic = g.grad(b).unwrap().data()[idx];
            assert!((analytic - numeric).abs() < 1e-3, "db[{idx}]");
        }
    }

    #[test]
    fn transpose_batched_roundtrip() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![2, 3, 4], |i| i as f32));
        let t = g.transpose_batched(x);
        let tt = g.transpose_batched(t);
        assert_eq!(g.value(tt), g.value(x));
        assert_eq!(g.value(t).shape(), &[2, 4, 3]);
        assert_eq!(g.value(t).at(&[1, 2, 1]), g.value(x).at(&[1, 1, 2]));
    }

    #[test]
    fn split_heads_moves_head_blocks_and_merge_heads_inverts_it() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![3, 4], |i| i as f32));
        let h = g.split_heads(x, 2);
        assert_eq!(g.value(h).shape(), &[2, 3, 2]);
        // Head 1 of token 2 is columns 2..4 of row 2.
        assert_eq!(g.value(h).at(&[1, 2, 0]), g.value(x).at(&[2, 2]));
        assert_eq!(g.value(h).at(&[1, 2, 1]), g.value(x).at(&[2, 3]));
        let m = g.merge_heads(h);
        assert_eq!(g.value(m), g.value(x));
    }

    #[test]
    fn causal_mask_zeroes_future_probs() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::zeros(vec![1, 3, 3]));
        let m = g.causal_mask(x);
        let p = g.softmax_batched(m);
        let probs = g.value(p);
        // Row 0 attends only to position 0.
        assert_eq!(probs.at(&[0, 0, 0]), 1.0);
        assert_eq!(probs.at(&[0, 0, 1]), 0.0);
        // Row 1 splits evenly over positions 0..=1.
        assert!((probs.at(&[0, 1, 0]) - 0.5).abs() < 1e-6);
        assert_eq!(probs.at(&[0, 1, 2]), 0.0);
        // Rows sum to one.
        for i in 0..3 {
            let s: f32 = (0..3).map(|j| probs.at(&[0, i, j])).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn causal_mask_blocks_gradient_to_future() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_fn(vec![1, 2, 2], |i| i as f32 * 0.1));
        let m = g.causal_mask(x);
        let p = g.softmax_batched(m);
        let loss = g.mean_all(p);
        g.backward(loss, 1.0);
        let dx = g.grad(x).unwrap();
        assert_eq!(dx.at(&[0, 0, 1]), 0.0, "future position received gradient");
    }
}
