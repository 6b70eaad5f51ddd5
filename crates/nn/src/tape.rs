//! Tape-based reverse-mode autograd.
//!
//! [`Graph`] is an eagerly-evaluated tape: every op computes its
//! output immediately and records a backward closure. Node creation
//! order is a topological order, so [`Graph::backward`] is a single
//! reverse sweep accumulating gradients; gradients reaching
//! [`Graph::param`] nodes are added into the corresponding
//! [`Parameter`]'s gradient buffer.
//!
//! Ops live in the `ops_*` modules as `impl Graph` blocks; this module
//! holds the engine plus the two leaf constructors.

use crate::param::Parameter;
use mpt_arith::{keep_heap_mapped, CpuBackend, GemmBackend};
use mpt_tensor::Tensor;
use std::rc::Rc;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Arguments handed to a backward closure.
pub(crate) struct BackwardArgs<'a> {
    /// Gradient of the loss w.r.t. this node's output.
    pub grad: &'a Tensor,
    /// Forward values of the node's parents, in parent order.
    pub inputs: Vec<&'a Tensor>,
    /// Forward value of the node itself.
    pub output: &'a Tensor,
}

type BackwardFn = Box<dyn Fn(&BackwardArgs<'_>) -> Vec<Option<Tensor>>>;

struct Node {
    parents: Vec<NodeId>,
    backward: Option<BackwardFn>,
    /// Set for nodes created by [`Graph::param`].
    param: Option<Parameter>,
    /// Telemetry scope active when the node was recorded (the layer
    /// label [`Sequential`](crate::Sequential) stamps during its
    /// forward pass); `None` when telemetry is off or the node was
    /// recorded outside any scope.
    scope: Option<Rc<str>>,
}

/// An autograd tape. Create one per training step, run the forward
/// computation through its op methods, then call
/// [`backward`](Graph::backward) once on the scalar loss.
///
/// # Example
///
/// ```
/// use mpt_nn::Graph;
/// use mpt_tensor::Tensor;
///
/// let mut g = Graph::new(true);
/// let x = g.input(Tensor::from_vec(vec![2], vec![3.0, -1.0])?);
/// let y = g.relu(x);
/// assert_eq!(g.value(y).data(), &[3.0, 0.0]);
/// # Ok::<(), mpt_tensor::ShapeError>(())
/// ```
pub struct Graph {
    values: Vec<Tensor>,
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    training: bool,
    backend: Rc<dyn GemmBackend>,
    scope: Option<Rc<str>>,
}

impl Graph {
    /// Creates an empty tape. `training` controls dropout and
    /// batch-norm statistics. GEMMs run on the CPU emulation backend;
    /// see [`with_backend`](Graph::with_backend) for the FPGA path.
    pub fn new(training: bool) -> Self {
        Graph::with_backend(training, Rc::new(CpuBackend::new()))
    }

    /// Creates a tape whose quantized GEMMs execute on `backend`
    /// (e.g. the FPGA accelerator simulator) — the paper's
    /// `device='fpga'` layer parameter. Results are bit-identical
    /// across backends.
    ///
    /// The first tape of a process also applies [`keep_heap_mapped`]:
    /// a tape allocates a step's whole working set and frees it on
    /// drop, and without the policy the next step faults it in again.
    pub fn with_backend(training: bool, backend: Rc<dyn GemmBackend>) -> Self {
        keep_heap_mapped();
        Graph {
            values: Vec::new(),
            nodes: Vec::new(),
            grads: Vec::new(),
            training,
            backend,
            scope: None,
        }
    }

    /// Sets the telemetry scope stamped onto subsequently recorded
    /// nodes (used by [`Sequential`](crate::Sequential) to attribute
    /// backward time per layer). `None` clears it.
    pub fn set_scope(&mut self, scope: Option<&str>) {
        self.scope = scope.map(Rc::from);
    }

    /// The GEMM execution backend of this tape.
    pub fn backend(&self) -> Rc<dyn GemmBackend> {
        Rc::clone(&self.backend)
    }

    /// `true` when built for a training step (dropout active,
    /// batch-norm uses batch statistics).
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.values[id.0]
    }

    /// The gradient of the last [`backward`](Graph::backward) call
    /// w.r.t. `id`, if one was produced.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Records a leaf node holding input data (no gradient flows
    /// past it).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Vec::new(), None, None)
    }

    /// Records a leaf node for a trainable parameter; gradients
    /// reaching it during [`backward`](Graph::backward) are
    /// accumulated into the parameter.
    pub fn param(&mut self, p: &Parameter) -> NodeId {
        let value = p.value().clone();
        self.push(value, Vec::new(), None, Some(p.clone()))
    }

    /// Core node constructor used by the op modules.
    pub(crate) fn push(
        &mut self,
        value: Tensor,
        parents: Vec<NodeId>,
        backward: Option<BackwardFn>,
        param: Option<Parameter>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.values.push(value);
        self.nodes.push(Node {
            parents,
            backward,
            param,
            scope: self.scope.clone(),
        });
        id
    }

    /// Runs reverse-mode differentiation from `loss`, seeding with
    /// `d(loss)/d(loss) = seed` (use the loss-scale factor here), and
    /// accumulates gradients into every parameter node on the tape.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: NodeId, seed: f32) {
        assert_eq!(
            self.values[loss.0].numel(),
            1,
            "backward must start from a scalar loss"
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = Vec::new();
        grads.resize_with(n, || None);
        grads[loss.0] = Some(Tensor::full(self.values[loss.0].shape().to_vec(), seed));

        // Per-layer backward attribution: when telemetry is on, each
        // scoped backward closure runs in a `bwd:<scope>` span, so the
        // GEMM spans inside it nest under it. One enabled() check per
        // backward pass; the disabled loop body is unchanged.
        let timing = mpt_telemetry::enabled();

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            if let Some(p) = &node.param {
                p.accumulate_grad(&g);
            }
            if let Some(backward) = &node.backward {
                let inputs: Vec<&Tensor> = node.parents.iter().map(|p| &self.values[p.0]).collect();
                let args = BackwardArgs {
                    grad: &g,
                    inputs,
                    output: &self.values[i],
                };
                let span = match &node.scope {
                    Some(scope) if timing => Some(mpt_telemetry::span(format!("bwd:{scope}"))),
                    _ => None,
                };
                if timing {
                    // Attribute quantizer flushes inside this closure
                    // (GEMM band threads included) to the layer that
                    // recorded the node.
                    mpt_telemetry::set_layer_scope(node.scope.as_deref());
                }
                let parent_grads = backward(&args);
                drop(span);
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (pid, pg) in node.parents.clone().into_iter().zip(parent_grads) {
                    if let Some(pg) = pg {
                        match &mut grads[pid.0] {
                            Some(existing) => {
                                existing.add_assign(&pg).expect("gradient shapes agree")
                            }
                            slot @ None => *slot = Some(pg),
                        }
                    }
                }
            }
            grads[i] = Some(g); // keep for inspection via Graph::grad
        }
        if timing {
            mpt_telemetry::set_layer_scope(None);
        }
        self.grads = grads;
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph({} nodes, training={})",
            self.nodes.len(),
            self.training
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_values_visible() {
        let mut g = Graph::new(true);
        let t = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let x = g.input(t.clone());
        assert_eq!(g.value(x), &t);
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn param_nodes_receive_gradients() {
        let p = Parameter::new("w", Tensor::from_vec(vec![1], vec![2.0]).unwrap());
        let mut g = Graph::new(true);
        let w = g.param(&p);
        // loss = 3 * w  => dloss/dw = 3
        let loss = g.scale(w, 3.0);
        g.backward(loss, 1.0);
        assert_eq!(p.grad().data(), &[3.0]);
    }

    #[test]
    fn gradient_accumulates_across_backwards() {
        let p = Parameter::new("w", Tensor::from_vec(vec![1], vec![2.0]).unwrap());
        for _ in 0..2 {
            let mut g = Graph::new(true);
            let w = g.param(&p);
            let loss = g.scale(w, 1.0);
            g.backward(loss, 1.0);
        }
        assert_eq!(p.grad().data(), &[2.0]);
    }

    #[test]
    fn seed_scales_gradients() {
        let p = Parameter::new("w", Tensor::from_vec(vec![1], vec![1.0]).unwrap());
        let mut g = Graph::new(true);
        let w = g.param(&p);
        let loss = g.scale(w, 1.0);
        g.backward(loss, 256.0); // loss-scale seed
        assert_eq!(p.grad().data(), &[256.0]);
    }

    #[test]
    fn fan_out_sums_gradients() {
        // loss = w*2 + w*3 => dloss/dw = 5
        let p = Parameter::new("w", Tensor::from_vec(vec![1], vec![1.0]).unwrap());
        let mut g = Graph::new(true);
        let w = g.param(&p);
        let a = g.scale(w, 2.0);
        let b = g.scale(w, 3.0);
        let loss = g.add(a, b);
        g.backward(loss, 1.0);
        assert_eq!(p.grad().data(), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::zeros(vec![2]));
        g.backward(x, 1.0);
    }

    #[test]
    fn grads_inspectable_after_backward() {
        let mut g = Graph::new(true);
        let x = g.input(Tensor::from_vec(vec![1], vec![4.0]).unwrap());
        let y = g.scale(x, 0.5);
        g.backward(y, 1.0);
        assert_eq!(g.grad(x).unwrap().data(), &[0.5]);
        assert_eq!(g.grad(y).unwrap().data(), &[1.0]);
    }
}
