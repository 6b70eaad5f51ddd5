//! Training *through the FPGA accelerator*: every GEMM of every
//! forward and backward pass executes on the simulated hardware (the
//! paper's `device='fpga'` layer parameter), with per-launch latency
//! accounting — and results bit-identical to CPU emulation.
//!
//! ```text
//! cargo run --release -p mpt-core --example train_on_fpga
//! ```

use mpt_arith::GemmBackend;
use mpt_data::synthetic_mnist;
use mpt_fpga::{FpgaBackend, SynthesisDb};
use mpt_models::lenet5;
use mpt_nn::{GemmPrecision, Graph, Layer, Optimizer, Sgd};
use std::rc::Rc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's `device='fpga'`: the tape takes the FPGA backend,
    // and this handle on the same object reads its counters.
    let backend = Rc::new(FpgaBackend::new(SynthesisDb::u55().accelerator(8, 8, 4)?));
    println!(
        "training LeNet5 (FP8 x FP12-SR) on backend: {}\n",
        backend.label()
    );

    let data = synthetic_mnist(64, 1);
    let model = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(4), 9);
    let params = model.parameters();
    let mut opt = Sgd::new(0.02, 0.9, 0.0);

    for step in 0..4 {
        for p in &params {
            p.zero_grad();
        }
        let mut g = Graph::with_backend(true, Rc::clone(&backend) as Rc<dyn GemmBackend>);
        let idx: Vec<usize> = (0..16).map(|i| (i + step * 16) % data.len()).collect();
        let (images, labels) = data.gather(&idx);
        let x = g.input(images);
        let logits = model.forward(&mut g, x);
        let loss = g.cross_entropy(logits, &labels);
        let loss_val = g.value(loss).item();
        g.backward(loss, 256.0);
        for p in &params {
            let mut grad = p.grad_mut();
            for v in grad.data_mut() {
                *v /= 256.0;
            }
        }
        opt.step(&params);
        println!(
            "step {step}: loss {loss_val:.4}  |  {} GEMM launches, {:.3} ms on hardware",
            backend.gemm_count(),
            backend.elapsed_s() * 1e3
        );
    }
    println!(
        "\ntotal simulated hardware time: {:.3} ms across {} launches",
        backend.elapsed_s() * 1e3,
        backend.gemm_count()
    );
    Ok(())
}
