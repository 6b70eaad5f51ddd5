//! Cross-path bit-equality at the GEMM level: the dispatched fast
//! kernels behind [`qgemm`] must agree bit for bit with
//! [`qgemm_reference`] — the plain scalar loop over the reference
//! quantizer — for every configuration family, rounding mode, shape,
//! seed and offset, including operands containing zeros, infinities
//! and saturation-range values.

use mpt_arith::{
    qgemm_parallel, qgemm_reference, qgemm_with_offsets, qgemm_with_tier, MacConfig, QGemmConfig,
};
use mpt_formats::{FixedFormat, FloatFormat, NumberFormat, Quantizer, Rounding, SimdTier};
use mpt_tensor::Tensor;
use proptest::prelude::*;

/// Every kernel tier testable on this host (`Avx2` falls back to the
/// portable kernel on non-AVX2 CPUs, which must be bit-identical too).
fn all_tiers() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Off, SimdTier::Portable];
    if cfg!(target_arch = "x86_64") {
        tiers.push(SimdTier::Avx2);
    }
    tiers
}

fn modes() -> impl Strategy<Value = Rounding> {
    prop_oneof![
        Just(Rounding::Nearest),
        Just(Rounding::TowardZero),
        Just(Rounding::ToOdd),
        Just(Rounding::NoRound),
        (1u32..=16).prop_map(|b| Rounding::Stochastic { random_bits: b }),
    ]
}

/// The paper's configuration families plus corner variants that route
/// through every kernel in the dispatch table.
fn configs() -> impl Strategy<Value = QGemmConfig> {
    prop_oneof![
        Just(QGemmConfig::fp32()),
        Just(QGemmConfig::fp8_fp12_sr()),
        modes().prop_map(|m| QGemmConfig::for_mac(MacConfig::fp8_fp12(m))),
        Just(QGemmConfig::for_mac(MacConfig::fp8_fp16_rn())),
        // The paper's unfused fixed-point MAC under every multiplier
        // mode (`NR` makes it fused x fixed).
        modes().prop_map(|m| QGemmConfig::for_mac(MacConfig::fxp4_4(m))),
        // Unfused float x float, and the mixed-family pairings.
        (modes(), modes()).prop_map(|(m, a)| {
            QGemmConfig::for_mac(MacConfig::new(
                Quantizer::float(FloatFormat::e5m2(), m),
                Quantizer::float(FloatFormat::e6m5(), a),
            ))
        }),
        (modes(), modes()).prop_map(|(m, a)| {
            QGemmConfig::for_mac(MacConfig::new(
                Quantizer::float(FloatFormat::e4m3(), m),
                Quantizer::fixed(FixedFormat::fxp8_8(), a),
            ))
        }),
        (modes(), modes()).prop_map(|(m, a)| {
            QGemmConfig::for_mac(MacConfig::new(
                Quantizer::fixed(FixedFormat::fxp8_4(), m),
                Quantizer::float(FloatFormat::e5m10(), a),
            ))
        }),
        // What is left on the scalar-oracle stages: block FP.
        modes().prop_map(|m| {
            let bfp = mpt_formats::BlockFpFormat::new(3, 4).expect("valid BFP");
            QGemmConfig::for_mac(MacConfig::new(
                Quantizer::new(bfp, m),
                Quantizer::float(FloatFormat::e6m5(), m),
            ))
        }),
        // Accumulator variants that stress saturation/subnormal
        // handling inside the fused fast kernel.
        modes().prop_map(|m| {
            let mut cfg = QGemmConfig::for_mac(MacConfig::fp8_fp12(m));
            cfg.mac.acc = Quantizer::new(
                NumberFormat::Float(FloatFormat::e4m3().with_infinities()),
                m,
            );
            cfg
        }),
        modes().prop_map(|m| {
            let mut cfg = QGemmConfig::for_mac(MacConfig::fp8_fp12(m));
            cfg.mac.acc = Quantizer::new(
                NumberFormat::Float(FloatFormat::e6m5().without_subnormals()),
                m,
            );
            cfg
        }),
    ]
}

fn values(scale: f32) -> impl Strategy<Value = f32> {
    prop_oneof![
        (-1.0f32..1.0).prop_map(move |v| v * scale),
        Just(0.0f32),
        Just(-0.0f32),
        // Large magnitudes push the low-precision accumulator into its
        // saturation regime.
        (-1.0f32..1.0).prop_map(move |v| v * scale * 1.0e4),
    ]
}

fn matrix(rows: usize, cols: usize, scale: f32) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(values(scale), rows * cols)
        .prop_map(move |data| Tensor::from_vec(vec![rows, cols], data).expect("shape fits"))
}

fn assert_bitwise_eq(fast: &Tensor, reference: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.shape(), reference.shape());
    for (i, (f, r)) in fast.data().iter().zip(reference.data().iter()).enumerate() {
        prop_assert_eq!(
            f.to_bits(),
            r.to_bits(),
            "element {}: fast {} != reference {}",
            i,
            f,
            r
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Dispatched kernels == scalar reference for random shapes,
    /// configurations, seeds and offsets.
    #[test]
    fn qgemm_matches_reference(
        (n, k, m) in (1usize..12, 1usize..14, 1usize..12),
        cfg in configs(),
        seed in 0u64..1 << 20,
        (ro, co) in (0usize..64, 0usize..64),
        abig in matrix(11, 13, 4.0),
        bbig in matrix(13, 11, 4.0),
    ) {
        // Carve the generated operands down to the sampled shape.
        let a = Tensor::from_fn(vec![n, k], |i| abig.data()[i % abig.data().len()]);
        let b = Tensor::from_fn(vec![k, m], |i| bbig.data()[i % bbig.data().len()]);
        let cfg = cfg.with_seed(seed);
        let fast = qgemm_with_offsets(&a, &b, &cfg, ro, co).unwrap();
        let reference = qgemm_reference(&a, &b, &cfg, ro, co).unwrap();
        assert_bitwise_eq(&fast, &reference)?;
    }

    /// The parallel pool path equals the reference too (composition of
    /// both tentpole pieces).
    #[test]
    fn qgemm_parallel_matches_reference(
        cfg in configs(),
        seed in 0u64..1 << 20,
        threads in 1usize..9,
        a in matrix(9, 12, 3.0),
        b in matrix(12, 7, 3.0),
    ) {
        let cfg = cfg.with_seed(seed);
        let fast = qgemm_parallel(&a, &b, &cfg, threads).unwrap();
        let reference = qgemm_reference(&a, &b, &cfg, 0, 0).unwrap();
        assert_bitwise_eq(&fast, &reference)?;
    }

    /// Operands containing non-finite values must flow through the
    /// kernels exactly as through the reference (the row-level zero
    /// skip may only fire when B is all-finite).
    #[test]
    fn non_finite_operands_match_reference(
        cfg in configs(),
        seed in 0u64..1 << 16,
        inf_pos in 0usize..35,
        zero_row in 0usize..5,
        a in matrix(5, 7, 2.0),
        b in matrix(7, 5, 2.0),
    ) {
        let cfg = cfg.with_seed(seed);
        let mut bd = b.data().to_vec();
        let pos = inf_pos % bd.len();
        bd[pos] = f32::INFINITY;
        let b = Tensor::from_vec(vec![7, 5], bd).unwrap();
        let mut ad = a.data().to_vec();
        for v in ad[zero_row * 7..(zero_row + 1) * 7].iter_mut() {
            *v = 0.0; // a whole zero row of A against an inf in B
        }
        let a = Tensor::from_vec(vec![5, 7], ad).unwrap();
        let fast = qgemm_with_offsets(&a, &b, &cfg, 0, 0).unwrap();
        let reference = qgemm_reference(&a, &b, &cfg, 0, 0).unwrap();
        assert_bitwise_eq(&fast, &reference)?;
    }

    /// Every SIMD tier of the dispatched kernel equals the scalar
    /// reference — random shapes (exercising 4-lane MAC tails when
    /// `m % 4 != 0`), every config family and rounding mode, random
    /// SR seeds and offsets.
    #[test]
    fn qgemm_tiers_match_reference(
        (n, k, m) in (1usize..10, 1usize..12, 1usize..14),
        cfg in configs(),
        seed in 0u64..1 << 20,
        (ro, co) in (0usize..64, 0usize..64),
        abig in matrix(9, 11, 4.0),
        bbig in matrix(11, 13, 4.0),
    ) {
        let a = Tensor::from_fn(vec![n, k], |i| abig.data()[i % abig.data().len()]);
        let b = Tensor::from_fn(vec![k, m], |i| bbig.data()[i % bbig.data().len()]);
        let cfg = cfg.with_seed(seed);
        let reference = qgemm_reference(&a, &b, &cfg, ro, co).unwrap();
        for tier in all_tiers() {
            let fast = qgemm_with_tier(&a, &b, &cfg, ro, co, tier).unwrap();
            prop_assert_eq!(
                fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tier {} != reference", tier.name()
            );
        }
    }

    /// Non-finite and zero-product corner operands agree across tiers
    /// (the vector kernels' zero-product lane blending and
    /// scalar-fallback lanes are the risk here).
    #[test]
    fn tiers_agree_on_special_operands(
        cfg in configs(),
        seed in 0u64..1 << 16,
        special in prop_oneof![
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(f32::NAN),
            Just(0.0f32),
            Just(-0.0f32),
            Just(f32::from_bits(1)), // subnormal
        ],
        pos in 0usize..91,
        a in matrix(7, 13, 2.0),
        b in matrix(13, 7, 2.0),
    ) {
        let cfg = cfg.with_seed(seed);
        let mut bd = b.data().to_vec();
        let p = pos % bd.len();
        bd[p] = special;
        let b = Tensor::from_vec(vec![13, 7], bd).unwrap();
        let reference = qgemm_with_tier(&a, &b, &cfg, 0, 0, SimdTier::Off).unwrap();
        for tier in [SimdTier::Portable, SimdTier::Avx2] {
            let fast = qgemm_with_tier(&a, &b, &cfg, 0, 0, tier).unwrap();
            prop_assert_eq!(
                fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tier {} != off tier", tier.name()
            );
        }
    }
}

/// `(total, exact, rounded, saturated, flushed, sr_up, sr_down)` of
/// one quantizer label's global counter group.
fn tally_counts(label: &str) -> [u64; 7] {
    let c = mpt_telemetry::quant_counters(label);
    [
        c.total.get(),
        c.exact.get(),
        c.rounded.get(),
        c.saturated.get(),
        c.flushed.get(),
        c.sr_up.get(),
        c.sr_down.get(),
    ]
}

/// With telemetry on, every tier of the lane kernels records exactly
/// the `(x, q)` pairs the scalar `gemm_generic` recorded for
/// fixed-point MACs before they moved onto the shared loop nests: the
/// literals below were measured at that parent commit on this very
/// GEMM (which saturates both stages on both sides, but puts no value
/// in the band just above a two's-complement minimum, whose
/// classification that same change corrected). The formats are ones
/// no other test in this binary uses, so the global counter groups
/// are this test's alone.
#[test]
fn fixed_point_tallies_match_parent_generic_counts() {
    let mul = Quantizer::fixed(FixedFormat::new(5, 3).unwrap(), Rounding::stochastic());
    let acc = Quantizer::fixed(FixedFormat::new(7, 2).unwrap(), Rounding::Nearest);
    let cfg = QGemmConfig::for_mac(MacConfig::new(mul, acc)).with_seed(11);
    let a = Tensor::from_fn(vec![9, 21], |i| ((i * 37 % 101) as f32 - 50.0) * 0.07);
    let b = Tensor::from_fn(vec![21, 13], |i| ((i * 53 % 89) as f32 - 44.0) * 0.19);
    let (mul_label, acc_label) = (
        format!("mul:{}", cfg.mac.mul),
        format!("acc:{}", cfg.mac.acc),
    );
    for tier in all_tiers() {
        let before = (tally_counts(&mul_label), tally_counts(&acc_label));
        mpt_telemetry::enable();
        qgemm_with_tier(&a, &b, &cfg, 3, 5, tier).unwrap();
        mpt_telemetry::disable();
        let delta = |after: [u64; 7], before: [u64; 7]| -> [u64; 7] {
            std::array::from_fn(|i| after[i] - before[i])
        };
        let got_mul = delta(tally_counts(&mul_label), before.0);
        let got_acc = delta(tally_counts(&acc_label), before.1);
        assert_eq!(
            got_mul,
            [2404, 672, 1398, 329, 5, 678, 720],
            "mul tally, tier {tier}"
        );
        assert_eq!(
            got_acc,
            [2404, 1213, 1143, 45, 3, 0, 0],
            "acc tally, tier {tier}"
        );
    }
}
