//! Property-based tests for the quantized GEMM kernel.

use mpt_arith::{qgemm, qgemm_parallel, MacConfig, QGemmConfig};
use mpt_formats::{FloatFormat, Quantizer, Rounding};
use mpt_tensor::Tensor;
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..10, 1usize..12, 1usize..10)
}

fn tensor_pair(n: usize, k: usize, m: usize, seed: u64) -> (Tensor, Tensor) {
    let a = Tensor::from_fn(vec![n, k], |i| {
        (((i as u64).wrapping_add(seed).wrapping_mul(2654435761) % 64) as f32 - 32.0) * 0.05
    });
    let b = Tensor::from_fn(vec![k, m], |i| {
        (((i as u64).wrapping_add(seed).wrapping_mul(40503) % 64) as f32 - 32.0) * 0.04
    });
    (a, b)
}

fn mac_configs() -> impl Strategy<Value = MacConfig> {
    prop_oneof![
        Just(MacConfig::fp32()),
        Just(MacConfig::fp8_fp12_sr()),
        Just(MacConfig::fp8_fp12(Rounding::Nearest)),
        Just(MacConfig::fp8_fp12(Rounding::TowardZero)),
        Just(MacConfig::fp8_fp12(Rounding::ToOdd)),
        Just(MacConfig::fp8_fp16_rn()),
        Just(MacConfig::fxp4_4(Rounding::Nearest)),
        Just(MacConfig::fxp4_4(Rounding::stochastic())),
    ]
}

proptest! {
    /// qgemm is deterministic for a fixed seed, for every config.
    #[test]
    fn qgemm_deterministic((n, k, m) in dims(), mac in mac_configs(), seed in 0u64..1000) {
        let (a, b) = tensor_pair(n, k, m, seed);
        let cfg = QGemmConfig::for_mac(mac).with_seed(seed);
        prop_assert_eq!(qgemm(&a, &b, &cfg).unwrap(), qgemm(&a, &b, &cfg).unwrap());
    }

    /// Parallel and sequential kernels agree bit-for-bit.
    #[test]
    fn qgemm_parallel_agrees(
        (n, k, m) in dims(),
        mac in mac_configs(),
        seed in 0u64..1000,
        threads in 1usize..6,
    ) {
        let (a, b) = tensor_pair(n, k, m, seed);
        let cfg = QGemmConfig::for_mac(mac).with_seed(seed);
        prop_assert_eq!(
            qgemm_parallel(&a, &b, &cfg, threads).unwrap(),
            qgemm(&a, &b, &cfg).unwrap()
        );
    }

    /// Zero-padding the reduction dimension never changes a bit.
    #[test]
    fn qgemm_k_padding_invariant(
        (n, k, m) in dims(),
        mac in mac_configs(),
        seed in 0u64..1000,
        pad in 1usize..16,
    ) {
        let (a, b) = tensor_pair(n, k, m, seed);
        let cfg = QGemmConfig::for_mac(mac).with_seed(seed);
        let plain = qgemm(&a, &b, &cfg).unwrap();
        let ap = a.pad_to(n, k + pad).unwrap();
        let bp = b.pad_to(k + pad, m).unwrap();
        prop_assert_eq!(qgemm(&ap, &bp, &cfg).unwrap(), plain);
    }

    /// Row partitioning with offsets reproduces the monolithic result
    /// for any split point (the multicore partitioning property).
    #[test]
    fn qgemm_row_partition_invariant(
        (n, k, m) in (2usize..10, 1usize..12, 1usize..10),
        mac in mac_configs(),
        seed in 0u64..1000,
        split_frac in 0.1f64..0.9,
    ) {
        use mpt_arith::qgemm_with_tier;
        let tier = mpt_formats::simd::active_tier();
        let (a, b) = tensor_pair(n, k, m, seed);
        let cfg = QGemmConfig::for_mac(mac).with_seed(seed);
        let full = qgemm(&a, &b, &cfg).unwrap();
        let split = ((n as f64 * split_frac) as usize).clamp(1, n - 1);
        let top = qgemm_with_tier(&a.slice_rows(0, split).unwrap(), &b, &cfg, 0, 0, tier).unwrap();
        let bot =
            qgemm_with_tier(&a.slice_rows(split, n).unwrap(), &b, &cfg, split, 0, tier).unwrap();
        prop_assert_eq!(Tensor::concat_rows(&[top, bot]).unwrap(), full);
    }

    /// With a wide accumulator, the quantized GEMM stays within the
    /// input-quantization error bound of the FP32 reference.
    #[test]
    fn qgemm_error_bounded_by_input_quantization(
        (n, k, m) in dims(),
        seed in 0u64..1000,
    ) {
        let (a, b) = tensor_pair(n, k, m, seed);
        // E5M10 operands (relative error <= 2^-11 each), FP32 MAC.
        let q = Quantizer::float(FloatFormat::e5m10(), Rounding::Nearest);
        let cfg = QGemmConfig::new(q, q, MacConfig::fp32());
        let got = qgemm(&a, &b, &cfg).unwrap();
        let reference = a.matmul(&b).unwrap();
        let scale: f32 = k as f32 * a.abs_max() * b.abs_max();
        for (x, y) in got.data().iter().zip(reference.data()) {
            prop_assert!((x - y).abs() <= scale * 3.0 * 2f32.powi(-11) + 1e-6,
                "{} vs {}", x, y);
        }
    }

    /// Outputs of a low-precision accumulator GEMM are representable
    /// in the accumulator format (deterministic modes).
    #[test]
    fn qgemm_outputs_live_in_acc_format(
        (n, k, m) in dims(),
        seed in 0u64..1000,
    ) {
        let (a, b) = tensor_pair(n, k, m, seed);
        let cfg = QGemmConfig::for_mac(MacConfig::fp8_fp12(Rounding::Nearest)).with_seed(seed);
        let c = qgemm(&a, &b, &cfg).unwrap();
        let e6m5 = FloatFormat::e6m5();
        for &v in c.data() {
            prop_assert!(e6m5.is_representable(v as f64), "{}", v);
        }
    }

    /// GEMM with the identity on one side reproduces the (quantized)
    /// other operand when formats are wide enough to hold it.
    #[test]
    fn qgemm_identity_neutral(n in 1usize..8, seed in 0u64..1000) {
        let a = Tensor::from_fn(vec![n, n], |i| {
            // E5M2-exact values: multiples of 0.25 in [-2, 2), where
            // the E5M2 ULP is at most 0.25.
            (((i as u64 + seed) * 97 % 16) as f32 - 8.0) * 0.25
        });
        let cfg = QGemmConfig::for_mac(MacConfig::fp8_fp16_rn()).with_seed(seed);
        let c = qgemm(&a, &Tensor::eye(n), &cfg).unwrap();
        prop_assert_eq!(c, a);
    }
}
