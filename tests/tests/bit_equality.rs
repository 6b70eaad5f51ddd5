//! The framework's central claim, tested across crates: the FPGA
//! accelerator path produces results **bitwise identical** to CPU
//! emulation for every format family and rounding mode (paper
//! Section I: "bit-level accuracy with respect to emulated low
//! precision DNN training").

use mpt_arith::{qgemm, MacConfig, QGemmConfig};
use mpt_formats::{BlockFpFormat, FixedFormat, FloatFormat, Quantizer, Rounding};
use mpt_fpga::{Accelerator, FpgaBackend, SaConfig, SynthesisDb};
use mpt_tensor::Tensor;

fn operands(n: usize, k: usize, m: usize, seed: u64) -> (Tensor, Tensor) {
    (
        Tensor::from_fn(vec![n, k], |i| {
            (((i as u64 + seed) * 2654435761 % 97) as f32 - 48.0) * 0.021
        }),
        Tensor::from_fn(vec![k, m], |i| {
            (((i as u64 + seed) * 40503 % 89) as f32 - 44.0) * 0.017
        }),
    )
}

fn all_mac_configs() -> Vec<(&'static str, MacConfig)> {
    vec![
        ("fp32", MacConfig::fp32()),
        ("fp8_fp12_rn", MacConfig::fp8_fp12(Rounding::Nearest)),
        ("fp8_fp12_rz", MacConfig::fp8_fp12(Rounding::TowardZero)),
        ("fp8_fp12_ro", MacConfig::fp8_fp12(Rounding::ToOdd)),
        ("fp8_fp12_sr", MacConfig::fp8_fp12(Rounding::stochastic())),
        ("fp8_fp16", MacConfig::fp8_fp16_rn()),
        ("fxp44_rn", MacConfig::fxp4_4(Rounding::Nearest)),
        ("fxp44_sr", MacConfig::fxp4_4(Rounding::stochastic())),
        (
            "unfused_fp8_mul_rn",
            MacConfig::new(
                Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
                Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest),
            ),
        ),
        (
            "fxp_mixed_widths",
            MacConfig::new(
                Quantizer::fixed(FixedFormat::fxp8_4(), Rounding::Nearest),
                Quantizer::fixed(FixedFormat::fxp16_8(), Rounding::stochastic()),
            ),
        ),
    ]
}

#[test]
fn fpga_equals_emulation_for_every_mac_config() {
    let (a, b) = operands(17, 23, 11, 1);
    for (name, mac) in all_mac_configs() {
        let cfg = QGemmConfig::for_mac(mac).with_seed(99);
        let want = qgemm(&a, &b, &cfg).expect("emulation");
        for (n, m, c) in [(2, 2, 3), (8, 8, 2), (16, 8, 5)] {
            let acc = Accelerator::new(SaConfig::new(n, m, c).expect("valid"), 200.0);
            let (got, _) = acc.execute(&a, &b, &cfg).expect("fpga");
            assert_eq!(got, want, "{name} on <{n},{m},{c}>");
        }
    }
}

#[test]
fn fpga_equals_emulation_across_many_shapes() {
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(7);
    let acc = Accelerator::new(SaConfig::new(8, 4, 3).expect("valid"), 197.7);
    for (n, k, m) in [
        (1, 1, 1),
        (1, 64, 1),
        (64, 1, 64),
        (5, 7, 3),
        (31, 65, 17),
        (64, 64, 64),
        (3, 200, 5),
    ] {
        let (a, b) = operands(n, k, m, (n * 1000 + k * 10 + m) as u64);
        let want = qgemm(&a, &b, &cfg).expect("emulation");
        let (got, _) = acc.execute(&a, &b, &cfg).expect("fpga");
        assert_eq!(got, want, "shape ({n},{k},{m})");
    }
}

#[test]
fn device_dispatch_is_transparent() {
    let db = SynthesisDb::u55();
    let (a, b) = operands(12, 30, 9, 5);
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
    let cpu = qgemm(&a, &b, &cfg).expect("cpu");
    for (n, m, c) in [(1, 1, 10), (4, 4, 5), (8, 8, 10), (64, 32, 1)] {
        let dev = FpgaBackend::new(db.accelerator(n, m, c).expect("config in db"));
        let (out, lat) = dev.gemm_timed(&a, &b, &cfg).expect("fpga");
        assert_eq!(out, cpu, "<{n},{m},{c}>");
        assert!(lat.expect("latency").total_s > 0.0);
    }
}

#[test]
fn block_fp_operands_agree_between_paths() {
    // Block floating-point input quantization with an FP16 MAC.
    let bfp = BlockFpFormat::new(4, 16).expect("valid");
    let cfg = QGemmConfig::new(
        Quantizer::new(bfp, Rounding::Nearest),
        Quantizer::new(bfp, Rounding::Nearest),
        MacConfig::fp8_fp16_rn(),
    );
    let (a, b) = operands(9, 33, 6, 11);
    let want = qgemm(&a, &b, &cfg).expect("emulation");
    let acc = Accelerator::new(SaConfig::new(4, 4, 2).expect("valid"), 328.4);
    let (got, _) = acc.execute(&a, &b, &cfg).expect("fpga");
    assert_eq!(got, want);
}

#[test]
fn emulated_training_step_matches_fpga_gemm_results() {
    // A linear layer's forward GEMM computed through the nn stack
    // (emulation) and directly on the accelerator.
    use mpt_nn::{GemmPrecision, Graph};
    let prec = GemmPrecision::fp8_fp12_sr().with_seed(21);
    let x = Tensor::from_fn(vec![6, 10], |i| ((i * 13 % 17) as f32 - 8.0) * 0.05);
    let wt = Tensor::from_fn(vec![10, 4], |i| ((i * 7 % 13) as f32 - 6.0) * 0.04);

    let mut g = Graph::new(true);
    let xn = g.input(x.clone());
    let wn = g.input(wt.clone());
    let y = g.matmul_q(xn, wn, prec);

    let acc = Accelerator::new(SaConfig::new(8, 8, 2).expect("valid"), 330.9);
    let (direct, _) = acc.execute(&x, &wt, &prec.fwd).expect("fpga");
    assert_eq!(g.value(y), &direct);
}
