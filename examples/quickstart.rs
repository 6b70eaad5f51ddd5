//! Quickstart: custom number formats, a quantized GEMM, and the
//! emulation-vs-FPGA bit-equality that MPTorch-FPGA is built around.
//!
//! ```text
//! cargo run -p mpt-core --example quickstart
//! ```

use mpt_arith::{qgemm, QGemmConfig};
use mpt_formats::{FloatFormat, Quantizer, Rounding};
use mpt_fpga::{FpgaBackend, SynthesisDb};
use mpt_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Quantize a value into the paper's formats.
    let x = 1.2345f32;
    for (name, q) in [
        (
            "E5M2-RN (FP8)",
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        ),
        (
            "E6M5-RN (FP12)",
            Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest),
        ),
        (
            "E6M5-SR (FP12)",
            Quantizer::float(FloatFormat::e6m5(), Rounding::stochastic()),
        ),
        (
            "E5M10-RN (FP16)",
            Quantizer::float(FloatFormat::e5m10(), Rounding::Nearest),
        ),
    ] {
        println!("{x} -> {name}: {}", q.quantize_f32(x, 0));
    }

    // 2. A custom-precision GEMM: FP8 operands, fused multiplier,
    //    FP12 stochastic-rounding accumulator (the paper's headline
    //    configuration).
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(42);
    let a = Tensor::from_fn(vec![4, 8], |i| ((i % 5) as f32 - 2.0) * 0.3);
    let b = Tensor::from_fn(vec![8, 3], |i| ((i % 7) as f32 - 3.0) * 0.2);
    let emulated = qgemm(&a, &b, &cfg)?;
    println!("\nemulated GEMM [0,0..3] = {:?}", &emulated.data()[..3]);

    // 3. The same GEMM on the simulated FPGA accelerator: bit-equal,
    //    plus a latency measurement.
    let fpga = FpgaBackend::new(SynthesisDb::u55().accelerator(8, 8, 4)?);
    let (on_fpga, latency) = fpga.gemm_timed(&a, &b, &cfg)?;
    assert_eq!(emulated, on_fpga, "emulation and FPGA must agree bitwise");
    let lat = latency.expect("FPGA reports latency");
    println!(
        "FPGA <8,8,4>: identical bits, {} cycles, {:.2} us total",
        lat.core_cycles,
        lat.total_s * 1e6
    );

    // 4. One step of mixed-precision training.
    use mpt_nn::{GemmPrecision, Graph, Layer, Linear, Optimizer, Sgd};
    let layer = Linear::new(8, 2, GemmPrecision::fp8_fp12_sr(), 0);
    let mut opt = Sgd::new(0.01, 0.9, 0.0);
    let mut g = Graph::new(true);
    let input = g.input(Tensor::from_fn(vec![4, 8], |i| (i as f32 * 0.37).sin()));
    let logits = layer.forward(&mut g, input);
    let loss = g.cross_entropy(logits, &[0, 1, 0, 1]);
    println!("\ninitial loss = {:.4}", g.value(loss).item());
    g.backward(loss, 256.0); // the paper's loss scale
    for p in layer.parameters() {
        let mut grad = p.grad_mut();
        for v in grad.data_mut() {
            *v /= 256.0; // unscale
        }
    }
    opt.step(&layer.parameters());
    println!("stepped {} parameters", layer.parameters().len());
    Ok(())
}
