//! Layer types mirroring the paper's layer declaration (Fig. 3): each
//! compute layer owns its parameters and an arithmetic configuration.

use crate::init;
use crate::param::Parameter;
use crate::precision::GemmPrecision;
use crate::tape::{Graph, NodeId};
use mpt_tensor::{Conv2dGeometry, Tensor};
use std::cell::RefCell;

/// A neural-network layer that can run its forward pass on a tape.
///
/// Layers are stateless across steps except for their [`Parameter`]s
/// (and batch-norm running statistics); the tape handles gradients.
pub trait Layer {
    /// Runs the layer on `input`, recording ops on `g`.
    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId;

    /// The layer's trainable parameters (handles).
    fn parameters(&self) -> Vec<Parameter> {
        Vec::new()
    }

    /// Short type label used in telemetry span/scope names (e.g.
    /// `"conv2d"`); the default suits anonymous wrappers.
    fn kind(&self) -> &'static str {
        "layer"
    }
}

/// Fully-connected layer `y = x·Wᵀ + b` with per-pass GEMM arithmetic
/// (the paper's `QLinear`).
#[derive(Debug)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    precision: GemmPrecision,
}

impl Linear {
    /// Creates a linear layer with Kaiming initialization.
    pub fn new(
        in_features: usize,
        out_features: usize,
        precision: GemmPrecision,
        seed: u64,
    ) -> Self {
        Linear {
            weight: Parameter::new(
                format!("linear{seed}.weight"),
                init::kaiming_normal(vec![out_features, in_features], in_features, seed),
            ),
            bias: Parameter::new(
                format!("linear{seed}.bias"),
                Tensor::zeros(vec![out_features]),
            ),
            precision,
        }
    }

    /// The weight parameter (`[out, in]`).
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// The bias parameter (`[out]`).
    pub fn bias(&self) -> &Parameter {
        &self.bias
    }
}

impl Layer for Linear {
    fn kind(&self) -> &'static str {
        "linear"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        let w = g.param(&self.weight);
        let b = g.param(&self.bias);
        g.linear(input, w, Some(b), self.precision)
    }

    fn parameters(&self) -> Vec<Parameter> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// 2-D convolution layer (weights stored GEMM-flattened
/// `[out_c, in_c·kh·kw]`), lowered through im2col (the paper's
/// `QConv2d`).
#[derive(Debug)]
pub struct Conv2d {
    weight: Parameter,
    bias: Parameter,
    geom: Conv2dGeometry,
    in_channels: usize,
    out_channels: usize,
    precision: GemmPrecision,
}

impl Conv2d {
    /// Creates a convolution for inputs of spatial size
    /// `in_h × in_w`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is impossible.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        (in_h, in_w): (usize, usize),
        precision: GemmPrecision,
        seed: u64,
    ) -> Self {
        let geom = Conv2dGeometry::new(in_h, in_w, kernel, kernel, stride, padding)
            .expect("valid convolution geometry");
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Parameter::new(
                format!("conv{seed}.weight"),
                init::kaiming_normal(vec![out_channels, fan_in], fan_in, seed),
            ),
            bias: Parameter::new(
                format!("conv{seed}.bias"),
                Tensor::zeros(vec![out_channels]),
            ),
            geom,
            in_channels,
            out_channels,
            precision,
        }
    }

    /// The convolution geometry (includes output size).
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geom
    }

    /// `(in_channels, out_channels)`.
    pub fn channels(&self) -> (usize, usize) {
        (self.in_channels, self.out_channels)
    }
}

impl Layer for Conv2d {
    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        let w = g.param(&self.weight);
        let b = g.param(&self.bias);
        g.conv2d(input, w, Some(b), self.geom, self.precision)
    }

    fn parameters(&self) -> Vec<Parameter> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// ReLU activation layer.
#[derive(Debug, Default)]
pub struct Relu;

impl Layer for Relu {
    fn kind(&self) -> &'static str {
        "relu"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        g.relu(input)
    }
}

/// GELU activation layer.
#[derive(Debug, Default)]
pub struct Gelu;

impl Layer for Gelu {
    fn kind(&self) -> &'static str {
        "gelu"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        g.gelu(input)
    }
}

/// 2×2/stride-2 max-pooling layer.
#[derive(Debug, Default)]
pub struct MaxPool2d;

impl Layer for MaxPool2d {
    fn kind(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        g.maxpool2d(input)
    }
}

/// Global average pooling (NCHW → `[batch, channels]`).
#[derive(Debug, Default)]
pub struct AvgPoolGlobal;

impl Layer for AvgPoolGlobal {
    fn kind(&self) -> &'static str {
        "avgpool"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        g.avgpool_global(input)
    }
}

/// Flattens NCHW (or any rank) to `[batch, rest]`.
#[derive(Debug, Default)]
pub struct Flatten;

impl Layer for Flatten {
    fn kind(&self) -> &'static str {
        "flatten"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        let shape = g.value(input).shape().to_vec();
        let batch = shape.first().copied().unwrap_or(1);
        let rest: usize = shape.iter().skip(1).product();
        g.reshape(input, vec![batch, rest])
    }
}

/// Batch normalization with running statistics (momentum 0.1).
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: RefCell<Tensor>,
    running_var: RefCell<Tensor>,
    momentum: f32,
}

impl BatchNorm2d {
    /// Creates batch norm over `channels` feature maps.
    pub fn new(channels: usize, seed: u64) -> Self {
        BatchNorm2d {
            gamma: Parameter::new(format!("bn{seed}.gamma"), Tensor::ones(vec![channels])),
            beta: Parameter::new(format!("bn{seed}.beta"), Tensor::zeros(vec![channels])),
            running_mean: RefCell::new(Tensor::zeros(vec![channels])),
            running_var: RefCell::new(Tensor::ones(vec![channels])),
            momentum: 0.1,
        }
    }

    /// Snapshot of the running mean.
    pub fn running_mean(&self) -> Tensor {
        self.running_mean.borrow().clone()
    }

    /// Snapshot of the running variance.
    pub fn running_var(&self) -> Tensor {
        self.running_var.borrow().clone()
    }
}

impl Layer for BatchNorm2d {
    fn kind(&self) -> &'static str {
        "batchnorm2d"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        let rm = self.running_mean.borrow().clone();
        let rv = self.running_var.borrow().clone();
        let (out, stats) = g.batchnorm2d(input, gamma, beta, (&rm, &rv));
        if let Some((mean, var)) = stats {
            let m = self.momentum;
            let mut rm = self.running_mean.borrow_mut();
            let mut rv = self.running_var.borrow_mut();
            *rm = rm.scale(1.0 - m).add(&mean.scale(m)).expect("shape");
            *rv = rv.scale(1.0 - m).add(&var.scale(m)).expect("shape");
        }
        out
    }

    fn parameters(&self) -> Vec<Parameter> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Layer normalization over the last dimension of a matrix node.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Parameter,
    beta: Parameter,
}

impl LayerNorm {
    /// Creates layer norm over vectors of length `dim`.
    pub fn new(dim: usize, seed: u64) -> Self {
        LayerNorm {
            gamma: Parameter::new(format!("ln{seed}.gamma"), Tensor::ones(vec![dim])),
            beta: Parameter::new(format!("ln{seed}.beta"), Tensor::zeros(vec![dim])),
        }
    }
}

impl Layer for LayerNorm {
    fn kind(&self) -> &'static str {
        "layernorm"
    }

    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        g.layernorm(input, gamma, beta)
    }

    fn parameters(&self) -> Vec<Parameter> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Token embedding table (used by the transformer; looked up through
/// [`Graph::embedding`] rather than `forward`).
#[derive(Debug)]
pub struct Embedding {
    table: Parameter,
}

impl Embedding {
    /// Creates a `vocab × dim` embedding with `N(0, 0.02)` init
    /// (the GPT convention).
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        Embedding {
            table: Parameter::new(
                format!("emb{seed}.table"),
                init::normal(vec![vocab, dim], 0.0, 0.02, seed),
            ),
        }
    }

    /// The underlying table parameter.
    pub fn table(&self) -> &Parameter {
        &self.table
    }

    /// Looks up `ids`, producing `[ids.len(), dim]`.
    pub fn lookup(&self, g: &mut Graph, ids: &[usize]) -> NodeId {
        let t = g.param(&self.table);
        g.embedding(t, ids)
    }
}

impl Layer for Embedding {
    fn kind(&self) -> &'static str {
        "embedding"
    }

    fn forward(&self, _g: &mut Graph, _input: NodeId) -> NodeId {
        panic!("Embedding is looked up by id via Embedding::lookup, not forward()")
    }

    fn parameters(&self) -> Vec<Parameter> {
        vec![self.table.clone()]
    }
}

/// A stack of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&self, g: &mut Graph, input: NodeId) -> NodeId {
        if mpt_telemetry::enabled() {
            // Span each child forward and stamp its scope onto the
            // nodes it records, so backward time can be attributed to
            // the same `<idx>:<kind>` label by Graph::backward. The
            // telemetry layer scope mirrors it so quantizer tallies
            // flushed by this layer's GEMMs (on any band thread) land
            // under `layer:<idx>:<kind>` too.
            let out = self.layers.iter().enumerate().fold(input, |x, (i, l)| {
                let scope = format!("{i}:{}", l.kind());
                let _span = mpt_telemetry::span(format!("fwd:{scope}"));
                g.set_scope(Some(&scope));
                mpt_telemetry::set_layer_scope(Some(&scope));
                l.forward(g, x)
            });
            g.set_scope(None);
            mpt_telemetry::set_layer_scope(None);
            return out;
        }
        self.layers.iter().fold(input, |x, l| l.forward(g, x))
    }

    fn kind(&self) -> &'static str {
        "sequential"
    }

    fn parameters(&self) -> Vec<Parameter> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_params() {
        let l = Linear::new(4, 3, GemmPrecision::fp32(), 0);
        let mut g = Graph::new(true);
        let x = g.input(Tensor::ones(vec![2, 4]));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[2, 3]);
        assert_eq!(l.parameters().len(), 2);
    }

    #[test]
    fn conv_layer_output_shape() {
        let l = Conv2d::new(3, 8, 3, 1, 1, (8, 8), GemmPrecision::fp32(), 1);
        let mut g = Graph::new(true);
        let x = g.input(Tensor::ones(vec![2, 3, 8, 8]));
        let y = l.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[2, 8, 8, 8]);
        assert_eq!(l.geometry().out_pixels(), 64);
        assert_eq!(l.channels(), (3, 8));
    }

    #[test]
    fn flatten_collapses_trailing_dims() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::ones(vec![2, 3, 4, 4]));
        let y = Flatten.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[2, 48]);
    }

    #[test]
    fn sequential_runs_in_order() {
        let model = Sequential::new()
            .push(Linear::new(4, 8, GemmPrecision::fp32(), 0))
            .push(Relu)
            .push(Linear::new(8, 2, GemmPrecision::fp32(), 1));
        assert_eq!(model.len(), 3);
        assert_eq!(model.parameters().len(), 4);
        let mut g = Graph::new(true);
        let x = g.input(Tensor::ones(vec![1, 4]));
        let y = model.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[1, 2]);
    }

    #[test]
    fn batchnorm_updates_running_stats_in_training() {
        let bn = BatchNorm2d::new(1, 0);
        let before = bn.running_mean();
        let mut g = Graph::new(true);
        let x = g.input(Tensor::full(vec![4, 1, 2, 2], 10.0));
        bn.forward(&mut g, x);
        let after = bn.running_mean();
        assert_ne!(before, after);
        assert!((after.data()[0] - 1.0).abs() < 1e-5); // 0.9*0 + 0.1*10
    }

    #[test]
    fn batchnorm_eval_does_not_update_stats() {
        let bn = BatchNorm2d::new(1, 0);
        let before = bn.running_mean();
        let mut g = Graph::new(false);
        let x = g.input(Tensor::full(vec![4, 1, 2, 2], 10.0));
        bn.forward(&mut g, x);
        assert_eq!(bn.running_mean(), before);
    }

    #[test]
    fn embedding_lookup_shape() {
        let e = Embedding::new(16, 4, 0);
        let mut g = Graph::new(true);
        let x = e.lookup(&mut g, &[1, 5, 3]);
        assert_eq!(g.value(x).shape(), &[3, 4]);
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        // End-to-end sanity: a 2-layer MLP learns XOR-ish data.
        use crate::optim::{Optimizer, Sgd};
        let model = Sequential::new()
            .push(Linear::new(2, 16, GemmPrecision::fp32(), 10))
            .push(Relu)
            .push(Linear::new(16, 2, GemmPrecision::fp32(), 11));
        let params = model.parameters();
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let inputs =
            Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let targets = [0usize, 1, 1, 0];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            for p in &params {
                p.zero_grad();
            }
            let mut g = Graph::new(true);
            let x = g.input(inputs.clone());
            let logits = model.forward(&mut g, x);
            let loss = g.cross_entropy(logits, &targets);
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss, 1.0);
            opt.step(&params);
        }
        assert!(last < first.unwrap() * 0.2, "{} -> {last}", first.unwrap());
    }
}
