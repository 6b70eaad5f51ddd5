//! Finite-difference gradient checks for every differentiable `nn`
//! op, in FP32-passthrough mode ([`GemmPrecision::fp32`]), against
//! the central-difference oracle in `conformance::gradcheck`.
//!
//! Piecewise-linear ops (`relu`, `maxpool2d`) use inputs from
//! [`Corpus::separated`] so no probe crosses a kink or flips an
//! argmax; stochastic ops (`dropout`, attention) use fixed seeds so
//! the sampled mask is identical across the analytic pass and every
//! numeric probe.

use conformance::{assert_gradients, Corpus};
use mpt_nn::{CausalSelfAttention, GemmPrecision, Graph, NodeId};
use mpt_tensor::{Conv2dGeometry, Tensor};

fn fp32() -> GemmPrecision {
    GemmPrecision::fp32()
}

/// Scalar loss `mean(y ⊙ y)`: smooth, and sensitive to every element
/// of `y` (a plain `mean` would hide sign errors behind cancellation).
fn sq_mean(g: &mut Graph, y: NodeId) -> NodeId {
    let sq = g.mul(y, y);
    g.mean_all(sq)
}

fn tensor(corpus: &mut Corpus, shape: Vec<usize>) -> Tensor {
    corpus.tensor(shape, -1.0, 1.0)
}

fn separated_tensor(corpus: &mut Corpus, shape: Vec<usize>, gap: f32) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, corpus.separated(n, gap)).expect("shape matches data")
}

// ---------------------------------------------------------------
// ops_basic
// ---------------------------------------------------------------

#[test]
fn grad_add() {
    let mut c = Corpus::new(0x10);
    let a = tensor(&mut c, vec![3, 4]);
    let b = tensor(&mut c, vec![3, 4]);
    assert_gradients("add", &[a, b], |g, ids| {
        let y = g.add(ids[0], ids[1]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_scale() {
    let mut c = Corpus::new(0x11);
    let x = tensor(&mut c, vec![2, 5]);
    assert_gradients("scale", &[x], |g, ids| {
        let y = g.scale(ids[0], -1.7);
        sq_mean(g, y)
    });
}

#[test]
fn grad_mul() {
    let mut c = Corpus::new(0x12);
    let a = tensor(&mut c, vec![4, 3]);
    let b = tensor(&mut c, vec![4, 3]);
    assert_gradients("mul", &[a, b], |g, ids| {
        let y = g.mul(ids[0], ids[1]);
        g.mean_all(y)
    });
}

#[test]
fn grad_relu() {
    let mut c = Corpus::new(0x13);
    // Keep every element at least 0.075 away from the kink at zero —
    // well outside the 2h = 0.02 probe span.
    let mut x = separated_tensor(&mut c, vec![4, 6], 0.1);
    for v in x.data_mut() {
        *v += 0.075;
    }
    assert_gradients("relu", &[x], |g, ids| {
        let y = g.relu(ids[0]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_gelu() {
    let mut c = Corpus::new(0x14);
    let x = tensor(&mut c, vec![3, 5]);
    assert_gradients("gelu", &[x], |g, ids| {
        let y = g.gelu(ids[0]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_reshape() {
    let mut c = Corpus::new(0x15);
    let x = tensor(&mut c, vec![2, 6]);
    assert_gradients("reshape", &[x], |g, ids| {
        let y = g.reshape(ids[0], vec![3, 4]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_dropout() {
    let mut c = Corpus::new(0x16);
    let x = tensor(&mut c, vec![4, 8]);
    // Fixed seed: the mask is a function of (seed) only, so every
    // probe sees the same mask and the surviving lanes are linear.
    assert_gradients("dropout", &[x], |g, ids| {
        let y = g.dropout(ids[0], 0.4, 0xd20b);
        sq_mean(g, y)
    });
}

#[test]
fn grad_mean_all() {
    let mut c = Corpus::new(0x17);
    let x = tensor(&mut c, vec![5, 3]);
    assert_gradients("mean_all", &[x], |g, ids| {
        let y = g.mul(ids[0], ids[0]);
        g.mean_all(y)
    });
}

// ---------------------------------------------------------------
// ops_gemm
// ---------------------------------------------------------------

#[test]
fn grad_matmul_q() {
    let mut c = Corpus::new(0x20);
    let a = tensor(&mut c, vec![3, 4]);
    let b = tensor(&mut c, vec![4, 5]);
    assert_gradients("matmul_q", &[a, b], |g, ids| {
        let y = g.matmul_q(ids[0], ids[1], fp32());
        sq_mean(g, y)
    });
}

#[test]
fn grad_add_bias() {
    let mut c = Corpus::new(0x21);
    let x = tensor(&mut c, vec![4, 6]);
    let b = tensor(&mut c, vec![6]);
    assert_gradients("add_bias", &[x, b], |g, ids| {
        let y = g.add_bias(ids[0], ids[1]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_linear() {
    let mut c = Corpus::new(0x22);
    let x = tensor(&mut c, vec![3, 5]);
    let w = tensor(&mut c, vec![4, 5]); // [out, in]
    let b = tensor(&mut c, vec![4]);
    assert_gradients("linear", &[x, w, b], |g, ids| {
        let y = g.linear(ids[0], ids[1], Some(ids[2]), fp32());
        sq_mean(g, y)
    });
}

#[test]
fn grad_transpose2d() {
    let mut c = Corpus::new(0x23);
    let x = tensor(&mut c, vec![3, 5]);
    assert_gradients("transpose2d", &[x], |g, ids| {
        let y = g.transpose2d(ids[0]);
        sq_mean(g, y)
    });
}

// ---------------------------------------------------------------
// ops_conv (im2col forward / col2im backward)
// ---------------------------------------------------------------

#[test]
fn grad_conv2d_padded() {
    let mut c = Corpus::new(0x30);
    let x = tensor(&mut c, vec![2, 2, 5, 5]);
    let w = tensor(&mut c, vec![3, 2 * 3 * 3]);
    let b = tensor(&mut c, vec![3]);
    let geom = Conv2dGeometry::new(5, 5, 3, 3, 1, 1).expect("valid geometry");
    assert_gradients("conv2d (3x3, stride 1, pad 1)", &[x, w, b], |g, ids| {
        let y = g.conv2d(ids[0], ids[1], Some(ids[2]), geom, fp32());
        sq_mean(g, y)
    });
}

#[test]
fn grad_conv2d_strided_no_bias() {
    let mut c = Corpus::new(0x31);
    let x = tensor(&mut c, vec![1, 1, 4, 4]);
    let w = tensor(&mut c, vec![2, 2 * 2]);
    let geom = Conv2dGeometry::new(4, 4, 2, 2, 2, 0).expect("valid geometry");
    assert_gradients("conv2d (2x2, stride 2, no bias)", &[x, w], |g, ids| {
        let y = g.conv2d(ids[0], ids[1], None, geom, fp32());
        sq_mean(g, y)
    });
}

#[test]
fn grad_maxpool2d() {
    let mut c = Corpus::new(0x32);
    // Pairwise-separated inputs: no probe can flip a pooling argmax.
    let x = separated_tensor(&mut c, vec![1, 2, 4, 4], 0.1);
    assert_gradients("maxpool2d", &[x], |g, ids| {
        let y = g.maxpool2d(ids[0]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_avgpool_global() {
    let mut c = Corpus::new(0x33);
    let x = tensor(&mut c, vec![2, 3, 4, 4]);
    assert_gradients("avgpool_global", &[x], |g, ids| {
        let y = g.avgpool_global(ids[0]);
        sq_mean(g, y)
    });
}

// ---------------------------------------------------------------
// ops_norm
// ---------------------------------------------------------------

#[test]
fn grad_batchnorm2d() {
    let mut c = Corpus::new(0x40);
    let x = tensor(&mut c, vec![2, 3, 2, 2]);
    let mut gamma = tensor(&mut c, vec![3]);
    for v in gamma.data_mut() {
        *v += 1.5; // keep the scale well away from zero
    }
    let beta = tensor(&mut c, vec![3]);
    let running = (Tensor::zeros(vec![3]), Tensor::ones(vec![3]));
    assert_gradients("batchnorm2d", &[x, gamma, beta], |g, ids| {
        let (y, _stats) = g.batchnorm2d(ids[0], ids[1], ids[2], (&running.0, &running.1));
        sq_mean(g, y)
    });
}

#[test]
fn grad_layernorm() {
    let mut c = Corpus::new(0x41);
    let x = tensor(&mut c, vec![4, 6]);
    let mut gamma = tensor(&mut c, vec![6]);
    for v in gamma.data_mut() {
        *v += 1.5;
    }
    let beta = tensor(&mut c, vec![6]);
    assert_gradients("layernorm", &[x, gamma, beta], |g, ids| {
        let y = g.layernorm(ids[0], ids[1], ids[2]);
        sq_mean(g, y)
    });
}

// ---------------------------------------------------------------
// ops_loss
// ---------------------------------------------------------------

#[test]
fn grad_softmax_rows() {
    let mut c = Corpus::new(0x50);
    let x = tensor(&mut c, vec![3, 5]);
    assert_gradients("softmax_rows", &[x], |g, ids| {
        let y = g.softmax_rows(ids[0]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_cross_entropy() {
    let mut c = Corpus::new(0x51);
    let logits = tensor(&mut c, vec![4, 5]);
    let targets = [0usize, 3, 1, 4];
    assert_gradients("cross_entropy", &[logits], |g, ids| {
        g.cross_entropy(ids[0], &targets)
    });
}

// ---------------------------------------------------------------
// ops_seq + attention
// ---------------------------------------------------------------

#[test]
fn grad_embedding() {
    let mut c = Corpus::new(0x60);
    let table = tensor(&mut c, vec![7, 4]);
    // Duplicate ids exercise gradient accumulation into one row.
    let ids_list = [0usize, 3, 3, 6];
    assert_gradients("embedding", &[table], |g, ids| {
        let y = g.embedding(ids[0], &ids_list);
        sq_mean(g, y)
    });
}

#[test]
fn grad_matmul_batched_q() {
    let mut c = Corpus::new(0x61);
    let a = tensor(&mut c, vec![2, 3, 4]);
    let b = tensor(&mut c, vec![2, 4, 3]);
    assert_gradients("matmul_batched_q", &[a, b], |g, ids| {
        let y = g.matmul_batched_q(ids[0], ids[1], fp32());
        let flat_len = g.value(y).numel();
        let flat = g.reshape(y, vec![flat_len, 1]);
        sq_mean(g, flat)
    });
}

#[test]
fn grad_transpose_batched() {
    let mut c = Corpus::new(0x62);
    let x = tensor(&mut c, vec![2, 3, 4]);
    assert_gradients("transpose_batched", &[x], |g, ids| {
        let y = g.transpose_batched(ids[0]);
        let flat_len = g.value(y).numel();
        let flat = g.reshape(y, vec![flat_len, 1]);
        sq_mean(g, flat)
    });
}

#[test]
fn grad_slice_cols() {
    let mut c = Corpus::new(0x63);
    let x = tensor(&mut c, vec![3, 7]);
    assert_gradients("slice_cols", &[x], |g, ids| {
        let y = g.slice_cols(ids[0], 2, 5);
        sq_mean(g, y)
    });
}

#[test]
fn grad_split_heads() {
    let mut c = Corpus::new(0x64);
    let x = tensor(&mut c, vec![3, 8]);
    assert_gradients("split_heads", &[x], |g, ids| {
        let y = g.split_heads(ids[0], 2);
        let flat_len = g.value(y).numel();
        let flat = g.reshape(y, vec![flat_len, 1]);
        sq_mean(g, flat)
    });
}

#[test]
fn grad_merge_heads() {
    let mut c = Corpus::new(0x65);
    let x = tensor(&mut c, vec![2, 3, 4]);
    assert_gradients("merge_heads", &[x], |g, ids| {
        let y = g.merge_heads(ids[0]);
        sq_mean(g, y)
    });
}

#[test]
fn grad_attention() {
    let mut c = Corpus::new(0x70);
    let x = tensor(&mut c, vec![5, 8]);
    // Built once outside the closure: its Linear parameters are fixed
    // constants, so the analytic pass and every numeric probe see the
    // identical attention weights.
    let attn = CausalSelfAttention::new(8, 2, 0.0, fp32(), 3);
    assert_gradients("attention (no dropout)", &[x], |g, ids| {
        let y = attn.forward_step(g, ids[0], 0);
        sq_mean(g, y)
    });
}

#[test]
fn grad_attention_with_dropout() {
    let mut c = Corpus::new(0x71);
    let x = tensor(&mut c, vec![4, 8]);
    let attn = CausalSelfAttention::new(8, 2, 0.25, fp32(), 9);
    // The dropout mask is a function of (layer seed, step): pinning
    // step keeps it identical across analytic and numeric passes.
    assert_gradients("attention (dropout 0.25)", &[x], |g, ids| {
        let y = attn.forward_step(g, ids[0], 1);
        sq_mean(g, y)
    });
}
