//! Cross-path bit-equality at the GEMM level: the dispatched fast
//! kernels behind [`qgemm`] must agree bit for bit with
//! [`qgemm_reference`] — the plain scalar loop over the reference
//! quantizer — for every configuration family, rounding mode, shape,
//! seed and offset, including operands containing zeros, infinities
//! and saturation-range values.

use mpt_arith::{qgemm_parallel, qgemm_reference, qgemm_with_tier, MacConfig, QGemmConfig};
use mpt_formats::simd::{active_tier, widest_supported_tier};
use mpt_formats::{FixedFormat, FloatFormat, NumberFormat, Quantizer, Rounding, SimdTier};
use mpt_tensor::Tensor;
use proptest::prelude::*;

fn modes() -> impl Strategy<Value = Rounding> {
    prop_oneof![
        Just(Rounding::Nearest),
        Just(Rounding::TowardZero),
        Just(Rounding::ToOdd),
        Just(Rounding::NoRound),
        // Both sides of the `f32` lanes' 31-bit limit, and (for E6M5
        // on `f32` lanes, 18 discarded bits) more draw bits than
        // discarded bits.
        (0u32..=53).prop_map(|b| Rounding::Stochastic { random_bits: b }),
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
        let fast = qgemm_with_tier(&a, &b, &cfg, ro, co, active_tier()).unwrap();
        let reference = qgemm_reference(&a, &b, &cfg, ro, co).unwrap();
        assert_bitwise_eq(&fast, &reference)?;
    }

    /// The row-banded parallel path equals the reference too (composition of
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
        let fast = qgemm_with_tier(&a, &b, &cfg, 0, 0, active_tier()).unwrap();
        let reference = qgemm_reference(&a, &b, &cfg, 0, 0).unwrap();
        assert_bitwise_eq(&fast, &reference)?;
    }

    /// Every SIMD tier of the dispatched kernel equals the scalar
    /// reference — random shapes (exercising the lane nest's partial
    /// blocks when `m % 8 != 0`), every config family and rounding
    /// mode, random SR seeds and offsets.
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
        for tier in SimdTier::ALL {
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
        for tier in SimdTier::ALL {
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
    use mpt_telemetry::QuantCat::*;
    let c = mpt_telemetry::quant_counters(label);
    [Total, Exact, Rounded, Saturated, Flushed, SrUp, SrDown].map(|cat| c[cat].get())
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
    for tier in SimdTier::ALL {
        // The counter names the tier that ran: a tier the host lacks
        // runs the widest one it has (`off` off x86_64).
        let ran = if SimdTier::available().contains(&tier) {
            tier
        } else {
            widest_supported_tier()
        };
        let before = (tally_counts(&mul_label), tally_counts(&acc_label));
        let dispatched = mpt_telemetry::counter(&format!("kernel.tier.{ran}"));
        let ticks = dispatched.get();
        mpt_telemetry::enable();
        qgemm_with_tier(&a, &b, &cfg, 3, 5, tier).unwrap();
        mpt_telemetry::disable();
        assert!(
            dispatched.get() > ticks,
            "kernel.tier.{ran} did not tick (tier {tier} requested)"
        );
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

// ---------------------------------------------------------------
// Edges of the lane nest's own mechanisms — strip masks, register
// accumulators with settled lanes, the zero-product merge,
// incremental SR hash inputs, the `f32` exactness tests — and of the
// configurations it declines. Every case runs on every tier against
// `qgemm_reference`, so both widths and the scalar nest are pinned
// on the same inputs.
// ---------------------------------------------------------------

/// Asserts every tier equals `qgemm_reference` bit for bit; returns
/// the reference.
#[track_caller]
fn assert_tiers_match(
    what: &str,
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
    ro: usize,
    co: usize,
) -> Tensor {
    let reference = qgemm_reference(a, b, cfg, ro, co).unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for tier in SimdTier::ALL {
        let fast = qgemm_with_tier(a, b, cfg, ro, co, tier).unwrap();
        assert_eq!(
            bits(&fast),
            bits(&reference),
            "{what}: {cfg}: tier {tier} != reference"
        );
    }
    reference
}

/// One configuration per `(multiplier, accumulator)` stage family the
/// lane nests are instantiated for, every one with at least one SR
/// stage; `with_seed` gives the two stages different seeds.
fn sr_stage_configs() -> Vec<QGemmConfig> {
    let sr = Rounding::stochastic();
    let float = |f, r| Quantizer::float(f, r);
    let fixed = |f, r| Quantizer::fixed(f, r);
    vec![
        QGemmConfig::fp8_fp12_sr(),
        QGemmConfig::for_mac(MacConfig::new(
            float(FloatFormat::e5m2(), sr),
            float(FloatFormat::e6m5(), sr),
        )),
        QGemmConfig::for_mac(MacConfig::new(
            float(FloatFormat::e4m3(), Rounding::NoRound),
            fixed(FixedFormat::fxp8_8(), sr),
        )),
        QGemmConfig::for_mac(MacConfig::new(
            fixed(FixedFormat::fxp4_4(), sr),
            fixed(FixedFormat::fxp8_8(), sr),
        )),
        QGemmConfig::for_mac(MacConfig::fxp4_4(sr)),
        QGemmConfig::for_mac(MacConfig::new(
            float(FloatFormat::e5m2(), Rounding::NoRound),
            float(bf16(), Rounding::Stochastic { random_bits: 31 }),
        )),
    ]
    .into_iter()
    .map(|c| c.with_seed(0x5eed))
    .collect()
}

/// Every rounding mode at both stages of both families (the
/// deterministic modes take other paths through the vector
/// quantizers than SR does).
fn all_mode_configs() -> Vec<QGemmConfig> {
    let modes = [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::ToOdd,
        Rounding::stochastic(),
    ];
    let mut cfgs = Vec::new();
    for m in modes {
        cfgs.push(QGemmConfig::for_mac(MacConfig::fp8_fp12(m)));
        cfgs.push(QGemmConfig::for_mac(MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), m),
            Quantizer::float(FloatFormat::e6m5().with_infinities(), m),
        )));
        cfgs.push(QGemmConfig::for_mac(MacConfig::new(
            Quantizer::fixed(FixedFormat::fxp4_4(), m),
            Quantizer::fixed(FixedFormat::fxp8_8(), m),
        )));
    }
    cfgs.into_iter().map(|c| c.with_seed(77)).collect()
}

fn dense(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn(vec![rows, cols], |i| {
        (((i + salt) * 37 % 101) as f32 - 50.0) * 0.043
    })
}

/// `m` from 1 to 65: every load/store-mask remainder of both vector
/// widths, strips of every block count, and one column past two full
/// strips; `n` and `k` of 1.
#[test]
fn every_strip_width_matches_reference() {
    for cfg in all_mode_configs() {
        for m in 1..=65 {
            for (n, k) in [(1, 1), (1, 9), (3, 1), (3, 9)] {
                let (a, b) = (dense(n, k, m), dense(k, m, 7 * m));
                assert_tiers_match(&format!("{n}x{k}x{m}"), &a, &b, &cfg, 5, 11);
            }
        }
    }
}

/// Sums the vector quantizers hand back to the scalar path — an exact
/// zero, a target-subnormal, ±inf, NaN from `A`, NaN from `B`,
/// `0 × inf` — at every lane position of a strip and of the partial
/// strip after it, between ordinary steps before and after. Operands
/// pass through unquantized so the non-finite ones reach the MAC.
/// (A *carrier*-subnormal sum cannot arise from `f32` operands; the
/// quantizers' own tests in `mpt-formats` cover that hand-back.)
#[test]
fn handed_back_sums_match_reference_at_every_lane() {
    let raw = |mac| QGemmConfig::new(Quantizer::identity(), Quantizer::identity(), mac);
    let tiny = 2.0f32.powi(-16);
    // (A's value at the special step, B's value there in the probed
    // column, A's value at the next step, B's value there).
    let cases: [(&str, [f32; 4]); 7] = [
        ("exact zero", [1.5, 2.0, -1.5, 2.0]),
        ("target subnormal", [tiny, tiny, 0.0, 0.0]),
        ("+inf", [1.0, f32::INFINITY, 0.0, 0.0]),
        ("-inf", [-1.0, f32::INFINITY, 0.0, 0.0]),
        ("NaN in A", [f32::NAN, 1.0, 0.0, 0.0]),
        ("NaN in B", [1.0, f32::NAN, 0.0, 0.0]),
        ("0 x inf", [0.0, f32::INFINITY, 0.0, 0.0]),
    ];
    let (n, k, m) = (2, 5, 40);
    for cfg in all_mode_configs() {
        let cfg = raw(cfg.mac);
        for (what, [a1, b1, a2, b2]) in cases {
            for lane in 0..m {
                let mut a = dense(n, k, lane);
                let mut b = dense(k, m, 3 * lane);
                // Row 1 carries the special at steps 1 and 2; the
                // probed column is otherwise empty so the sum is
                // exactly what the case says.
                for kk in 0..k {
                    b.set(&[kk, lane], 0.0);
                }
                a.set(&[1, 1], a1);
                b.set(&[1, lane], b1);
                a.set(&[1, 2], a2);
                b.set(&[2, lane], b2);
                b.set(&[4, lane], 0.75);
                assert_tiers_match(&format!("{what} at lane {lane}"), &a, &b, &cfg, 0, 0);
            }
        }
    }
}

/// Whole rows of `A` that are zero: skipped outright when `B` is
/// finite, stepped through (`0 × inf = NaN`, `0 × NaN`) when it is
/// not — and a zero row must leave a `-0.0`-free, untouched output.
#[test]
fn zero_rows_of_a_match_reference() {
    for cfg in sr_stage_configs() {
        let cfg = QGemmConfig::new(Quantizer::identity(), Quantizer::identity(), cfg.mac);
        for poison in [None, Some(f32::INFINITY), Some(f32::NAN)] {
            let mut a = dense(4, 6, 1);
            for kk in 0..6 {
                a.set(&[0, kk], 0.0);
                a.set(&[2, kk], -0.0);
            }
            let mut b = dense(6, 37, 2);
            if let Some(p) = poison {
                b.set(&[3, 0], p);
                b.set(&[5, 36], p);
            }
            let out = assert_tiers_match(&format!("poison {poison:?}"), &a, &b, &cfg, 0, 0);
            if poison.is_none() {
                assert!(out.data()[..37].iter().all(|v| v.to_bits() == 0));
            }
        }
    }
}

/// A zero product must leave the accumulator lane *untouched*, not
/// re-rounded: with a `-0.0` accumulator the sum `-0.0 + 0.0` is
/// `+0.0`, so only the merge keeps the reference's sign bit.
#[test]
fn zero_products_keep_a_negative_zero_accumulator() {
    let mac = MacConfig::new(
        Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound),
        Quantizer::fixed(FixedFormat::fxp8_8(), Rounding::TowardZero),
    );
    let cfg = QGemmConfig::new(Quantizer::identity(), Quantizer::identity(), mac);
    // Step 0 truncates -2^-12 to -0.0 in every column; step 1's
    // product is zero in the even columns only.
    let a = Tensor::from_vec(vec![1, 2], vec![-1.0, 3.0]).unwrap();
    let b = Tensor::from_fn(vec![2, 21], |i| match (i / 21, i % 21 % 2) {
        (0, _) => 2.0f32.powi(-12),
        (_, 0) => 0.0,
        _ => 0.5,
    });
    let out = assert_tiers_match("-0.0 accumulator", &a, &b, &cfg, 0, 0);
    for (j, v) in out.data().iter().enumerate() {
        let want = if j % 2 == 0 { -0.0f32 } else { 1.5 };
        assert_eq!(v.to_bits(), want.to_bits(), "column {j}");
    }
}

/// The SR hash inputs are built incrementally from the row, column
/// and `k` fields of `sr_event_index`; put each field on its last
/// in-range values, for every SR stage pairing.
#[test]
fn sr_event_fields_at_their_last_values_match_reference() {
    for cfg in sr_stage_configs() {
        let (n, k, m) = (3, 7, 37);
        let (a, b) = (dense(n, k, 3), dense(k, m, 4));
        let (ro, co) = ((1 << 22) - n, (1 << 20) - m);
        assert_tiers_match("last rows and columns", &a, &b, &cfg, ro, co);
        assert_tiers_match("last rows", &a, &b, &cfg, ro, 0);
        assert_tiers_match("last columns", &a, &b, &cfg, 0, co);
        // 1 × 2^20 × 1: the `k` field runs to its last value.
        let k = 1 << 20;
        let a = Tensor::from_fn(vec![1, k], |i| ((i * 37 % 101) as f32 - 50.0) * 0.01);
        let b = Tensor::from_fn(vec![k, 1], |i| ((i * 43 % 97) as f32 - 48.0) * 0.01);
        assert_tiers_match("last k", &a, &b, &cfg, ro + n - 1, co + m - 1);
    }
}

/// Accumulator formats whose values do *not* all fit `f32` — every
/// nest narrows the running sum to the `f32` output after each step;
/// the vector tiers run them on the scalar nest, which must as well.
#[test]
fn accumulators_wider_than_f32_round_trip_every_step() {
    let nr = Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound);
    let wide_float = FloatFormat::new(8, 30).unwrap();
    let wide_exp = FloatFormat::new(11, 10).unwrap().with_infinities();
    let wide_fixed = FixedFormat::new(16, 16).unwrap();
    for mode in [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::ToOdd,
        Rounding::stochastic(),
    ] {
        for (acc, scale) in [
            (Quantizer::float(wide_float, mode), 1.0f32),
            // Sums beyond f32's range: `as f32` saturates to inf.
            (Quantizer::float(wide_exp, mode), 1.0e19),
            // Codes past 2^24: integer part beyond 8 bits.
            (Quantizer::fixed(wide_fixed, mode), 40.0),
        ] {
            let cfg = QGemmConfig::new(
                Quantizer::identity(),
                Quantizer::identity(),
                MacConfig::new(nr, acc),
            )
            .with_seed(9);
            let a = dense(3, 11, 5).map(|v| v * scale * 1.000_123);
            let b = dense(11, 19, 6).map(|v| v * scale * 0.999_771);
            let out = assert_tiers_match("wide accumulator", &a, &b, &cfg, 0, 0);
            // The case is only worth its name if narrowing is
            // observable: the same reduction held in `f64` throughout
            // must end somewhere else for at least one element.
            let held_wide = |i: usize, j: usize| {
                (0..11).fold(0.0f64, |sum, kk| {
                    let product = a.at(&[i, kk]) as f64 * b.at(&[kk, j]) as f64;
                    let index =
                        mpt_arith::sr_event_index(i, j, kk, mpt_arith::MacStage::Accumulate);
                    acc.with_seed(cfg.mac.acc.rng().seed())
                        .quantize(sum + product, index)
                })
            };
            assert!(
                (0..3).any(|i| (0..19).any(|j| held_wide(i, j) as f32 != out.at(&[i, j]))),
                "{acc}: the per-step f32 narrowing never showed"
            );
        }
    }
}

/// `E8M7`: bfloat16's exponent range, so sums reach `f32`'s subnormals
/// while still inside the format's normal range.
fn bf16() -> FloatFormat {
    FloatFormat::new(8, 7).unwrap()
}

/// MACs whose stages the `f32`-lane nest carries, under every mode
/// and SR widths from 0 to its 31-bit limit: fused into float and
/// fixed-point accumulators, and the unfused fixed × fixed and
/// float × float pairings with both stages rounding.
fn f32_lane_configs() -> Vec<QGemmConfig> {
    let nr = Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound);
    let float = |f, r| Quantizer::float(f, r);
    let fixed = |f, r| Quantizer::fixed(f, r);
    let mut cfgs = Vec::new();
    for mode in [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::ToOdd,
        Rounding::Stochastic { random_bits: 0 },
        Rounding::Stochastic { random_bits: 1 },
        Rounding::stochastic(),
        Rounding::Stochastic { random_bits: 19 },
        Rounding::Stochastic { random_bits: 31 },
    ] {
        let mut macs: Vec<MacConfig> = [
            FloatFormat::e6m5(),
            FloatFormat::e6m5().without_subnormals(),
            FloatFormat::e5m10().with_infinities(),
            bf16(),
        ]
        .into_iter()
        .map(|acc| MacConfig::new(nr, float(acc, mode)))
        .collect();
        macs.extend([
            MacConfig::new(nr, fixed(FixedFormat::fxp8_8(), mode)),
            MacConfig::new(
                fixed(FixedFormat::fxp4_4(), mode),
                fixed(FixedFormat::fxp8_8(), mode),
            ),
            MacConfig::new(
                float(FloatFormat::e5m2(), mode),
                float(FloatFormat::e6m5(), mode),
            ),
        ]);
        cfgs.extend(macs.into_iter().map(|mac| {
            QGemmConfig::new(Quantizer::identity(), Quantizer::identity(), mac).with_seed(0xf32)
        }));
    }
    cfgs
}

/// The `f32` lanes' exactness tests at every lane of two 16-lane
/// blocks and a partial third: products and sums `f32` cannot hold,
/// products that underflow `f32` (whose FMA residual rounds to zero
/// too), products that flush to zero without being zero, zero `B`
/// elements under a non-finite `A` element, the hand-back classes
/// (target-subnormal sums, NaN and inf in either operand), sums and
/// products that saturate either way, and the fixed-point RN tie at
/// code `-0.5` (which rounds to `+0.0`, unlike its neighbours) at
/// either stage. Each case is three steps of one output element,
/// followed by an ordinary step; operands pass through unquantized.
#[test]
fn f32_lane_exactness_edges_match_reference_at_every_lane() {
    let p = |e: i32| 2.0f32.powi(e);
    let bf = 1.0 + p(-7);
    let cases: [(&str, [(f32, f32); 3]); 20] = [
        // 2^22 + 2.1875 needs 27 significant bits.
        (
            "inexact f32 sum",
            [(p(11), p(11)), (1.25, 1.75), (1.0, 0.5)],
        ),
        (
            "inexact f32 sum, negative",
            [(-p(11), p(11)), (1.25, -1.75), (0.0, 0.0)],
        ),
        // 26 significant bits.
        (
            "inexact f32 product",
            [(1.0 + p(-12), 1.0 + p(-13)), (0.0, 0.0), (1.0, 0.5)],
        ),
        // A normal `bf16` accumulator plus a product that rounds in
        // `f32`'s subnormal range with a zero residual.
        (
            "underflowing product",
            [(p(-63), p(-63)), (bf * p(-70), bf * p(-70)), (0.0, 0.0)],
        ),
        (
            "underflowing product alone",
            [(bf * p(-70), bf * p(-70)), (0.0, 0.0), (1.0, 0.5)],
        ),
        // Rounds to exactly one `bf16` ulp above the accumulator,
        // while the exact sum lies just below it.
        (
            "underflowing product onto the grid",
            [
                (p(-63), p(-63)),
                ((1.0 - p(-9)) * p(-60), (1.0 + p(-9)) * p(-73)),
                (0.0, 0.0),
            ],
        ),
        // A non-zero product that is zero in `f32`.
        (
            "product flushing to zero",
            [(p(-63), p(-63)), (bf * p(-80), bf * p(-80)), (0.0, 0.0)],
        ),
        (
            "target-subnormal sum",
            [(p(-16), p(-17)), (p(-65), p(-65)), (0.0, 0.0)],
        ),
        (
            "saturating sum",
            [(p(15), p(16)), (p(15), p(16)), (p(64), p(64))],
        ),
        (
            "saturating negative sum",
            [(-p(5), p(2)), (-p(5), p(2)), (-1.0, 3.0)],
        ),
        // FXP8.8 and FXP4.4 codes `-0.5` and `-0.25`.
        (
            "RN tie at code -0.5",
            [(-p(-5), p(-4)), (0.0, 0.0), (0.0, 0.0)],
        ),
        ("code -0.25", [(-p(-5), p(-5)), (0.0, 0.0), (0.0, 0.0)]),
        (
            "RN tie at product code -0.5",
            [(-p(-3), p(-2)), (0.0, 0.0), (0.0, 0.0)],
        ),
        ("NaN in A", [(1.0, 1.0), (f32::NAN, 1.0), (0.0, 0.0)]),
        ("NaN in B", [(1.0, 1.0), (1.0, f32::NAN), (0.0, 0.0)]),
        (
            "inf in A",
            [(1.0, 1.0), (f32::NEG_INFINITY, 0.5), (0.0, 0.0)],
        ),
        (
            "inf in B",
            [(1.0, 1.0), (1.0, f32::INFINITY), (1.0, f32::NEG_INFINITY)],
        ),
        ("0 x inf", [(1.0, 1.0), (0.0, f32::INFINITY), (0.0, 0.0)]),
        // A zero `b` under a non-finite `a` is no zero product.
        ("inf x 0", [(1.0, 1.0), (f32::INFINITY, 0.0), (0.0, 0.0)]),
        ("NaN x 0", [(1.0, 1.0), (f32::NAN, -0.0), (0.0, 0.0)]),
    ];
    let (n, k, m) = (2, 5, 35);
    for cfg in f32_lane_configs() {
        for (what, steps) in cases {
            for lane in 0..m {
                let mut a = dense(n, k, lane);
                let mut b = dense(k, m, 3 * lane);
                for kk in 0..k {
                    b.set(&[kk, lane], 0.0);
                }
                for (kk, (av, bv)) in steps.into_iter().enumerate() {
                    a.set(&[1, kk + 1], av);
                    b.set(&[kk + 1, lane], bv);
                }
                b.set(&[4, lane], 0.75);
                assert_tiers_match(&format!("{what} at lane {lane}"), &a, &b, &cfg, 0, 0);
            }
        }
    }
}

/// `inf × 0` and `NaN × 0` are NaN, not zero products: a non-finite
/// `A` element over a `B` row of zeros must poison every output of its
/// row, on every lane of every block, though no lane of the step has
/// anything to settle.
#[test]
fn non_finite_a_over_a_zero_b_row_matches_reference() {
    for cfg in f32_lane_configs() {
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut a = dense(3, 4, 1);
            a.set(&[1, 2], poison);
            let mut b = dense(4, 37, 2);
            for j in 0..37 {
                b.set(&[2, j], if j % 2 == 0 { 0.0 } else { -0.0 });
            }
            let out = assert_tiers_match(&format!("{poison} x 0"), &a, &b, &cfg, 0, 0);
            assert!(
                (0..37).all(|j| out.at(&[1, j]).is_nan()),
                "{cfg}: {poison} x 0"
            );
        }
    }
}

/// With telemetry on, the `f32`-lane nest shows both observers the
/// same `(unrounded, rounded)` pairs as the scalar nest, at both of
/// its widths, on GEMMs where some lanes settle through the scalar
/// path, fused and unfused. The formats are ones no other test in this binary uses,
/// so their counter groups are this test's alone.
#[test]
fn f32_lane_nest_tallies_equal_the_scalar_and_avx2_nests() {
    let sr = Rounding::stochastic();
    for mac in [
        MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound),
            Quantizer::float(FloatFormat::new(7, 4).unwrap(), sr),
        ),
        MacConfig::new(
            Quantizer::fixed(FixedFormat::new(6, 3).unwrap(), sr),
            Quantizer::fixed(FixedFormat::new(10, 5).unwrap(), Rounding::Nearest),
        ),
    ] {
        let cfg = QGemmConfig::new(Quantizer::identity(), Quantizer::identity(), mac).with_seed(5);
        let mut a = dense(9, 21, 3).map(|v| v * 300.0);
        a.set(&[2, 4], f32::NAN);
        a.set(&[3, 5], 2.0f32.powi(-70));
        a.set(&[4, 6], 1.0 + 2.0f32.powi(-20));
        let b = dense(21, 37, 8);
        let labels = [
            format!("mul:{}", cfg.mac.mul),
            format!("acc:{}", cfg.mac.acc),
        ];
        let mut tallies = Vec::new();
        for tier in SimdTier::ALL {
            let before = labels.each_ref().map(|l| tally_counts(l));
            mpt_telemetry::enable();
            qgemm_with_tier(&a, &b, &cfg, 0, 0, tier).unwrap();
            mpt_telemetry::disable();
            let got: [[u64; 7]; 2] = std::array::from_fn(|s| {
                let after = tally_counts(&labels[s]);
                std::array::from_fn(|i| after[i] - before[s][i])
            });
            tallies.push((tier, got));
        }
        let (first, want) = tallies[0];
        assert!(
            want[1][0] > 0,
            "{mac}: the accumulator tally recorded nothing"
        );
        if !cfg.mac.is_fused() {
            assert!(
                want[0][0] > 0,
                "{mac}: the multiplier tally recorded nothing"
            );
        }
        for (tier, got) in tallies {
            assert_eq!(got, want, "{mac}: tallies, tier {tier} != tier {first}");
        }
    }
}

/// The paper's unfused `FXP4.4 × FXP8.8` MAC over a reduction long
/// enough to pin the accumulator at both ends of FXP8.8: every product
/// saturates FXP4.4 at `±7.9375`, 20 steps up reach `127.99609375`
/// and 36 steps down `-128`. Every lane of two 16-lane blocks and a
/// partial third, zero products among them, under every mode.
#[test]
fn fixed_point_sums_saturate_both_ways_at_every_lane() {
    let (n, k, m) = (3, 56, 35);
    let a = Tensor::from_fn(vec![n, k], |i| [3.0f32, -3.0, 0.25][i / k]);
    let b = Tensor::from_fn(vec![k, m], |i| {
        let (kk, j) = (i / m, i % m);
        let up = if kk < 20 { 3.0 } else { -3.0 };
        match j % 7 {
            3 => 0.0,
            _ if j % 2 == 0 => up,
            _ => -up,
        }
    });
    for mode in [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::ToOdd,
        Rounding::Stochastic { random_bits: 0 },
        Rounding::Stochastic { random_bits: 1 },
        Rounding::stochastic(),
        Rounding::Stochastic { random_bits: 31 },
    ] {
        let cfg = QGemmConfig::for_mac(MacConfig::new(
            Quantizer::fixed(FixedFormat::fxp4_4(), mode),
            Quantizer::fixed(FixedFormat::fxp8_8(), mode),
        ))
        .with_seed(0xf8);
        let out = assert_tiers_match("saturating FXP8.8", &a, &b, &cfg, 0, 0);
        // FXP8.8's largest code, and its smallest.
        let (top, bottom) = (32767.0 / 256.0, -128.0);
        for j in (0..m).filter(|j| j % 7 != 3) {
            let (row0, row1) = if j % 2 == 0 {
                (bottom, top)
            } else {
                (top, bottom)
            };
            assert_eq!(out.at(&[0, j]), row0, "{cfg}: row 0 column {j}");
            assert_eq!(out.at(&[1, j]), row1, "{cfg}: row 1 column {j}");
        }
    }
}

/// Strip edges under every Table II MAC: `m` on each side of every
/// block and strip boundary of both widths, over a ReLU-sparse `B`,
/// with NaN or ±inf in `A` and in `B`, and a row whose accumulators
/// round to `-0.0` and then see only zero products. Operands pass
/// through unquantized so the non-finite ones reach the MAC.
#[test]
fn strip_edges_match_reference_under_every_table_ii_mac() {
    let mut macs = vec![MacConfig::fp8_fp16_rn()];
    for r in [
        Rounding::TowardZero,
        Rounding::ToOdd,
        Rounding::Nearest,
        Rounding::stochastic(),
    ] {
        macs.extend([MacConfig::fp8_fp12(r), MacConfig::fxp4_4(r)]);
    }
    let (n, k) = (4, 6);
    let mut negative_zeros = 0;
    for mac in macs {
        let cfg = QGemmConfig::new(Quantizer::identity(), Quantizer::identity(), mac).with_seed(3);
        for m in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            for poison in [
                None,
                Some(f32::NAN),
                Some(f32::INFINITY),
                Some(f32::NEG_INFINITY),
            ] {
                let mut a = dense(n, k, m);
                // Row 1: one tiny negative step, then zeros.
                for kk in 0..k {
                    a.set(&[1, kk], if kk == 0 { -(2.0f32.powi(-60)) } else { 0.0 });
                }
                // ReLU-sparse: about half of `B` is zero.
                let mut b = dense(k, m, 3 * m).map(|v| v.max(0.0));
                if let Some(p) = poison {
                    a.set(&[2, 3], p);
                    b.set(&[4, m / 2], p);
                    // The other infinity, or the NaN of the other sign.
                    b.set(&[1, m - 1], -p);
                }
                let what = format!("1 x {k} x {m}, poison {poison:?}");
                let out = assert_tiers_match(&what, &a, &b, &cfg, 0, 0);
                negative_zeros += (0..m)
                    .filter(|&j| out.at(&[1, j]).to_bits() == (-0.0f32).to_bits())
                    .count();
            }
        }
    }
    assert!(negative_zeros > 0, "no accumulator ever held -0.0");
}

/// Two NaNs of opposite sign meeting in one sum, in both orders and at
/// every lane of a strip and of the partial strip after it, under the
/// paper's unfused `FXP4.4-RZ × FXP8.8-RN` MAC: every tier and the
/// reference return the one canonical NaN, whichever operand order the
/// compiler gives the sum.
#[test]
fn opposite_nans_in_one_sum_give_the_canonical_nan() {
    let mac = MacConfig::new(
        Quantizer::fixed(FixedFormat::fxp4_4(), Rounding::TowardZero),
        Quantizer::fixed(FixedFormat::fxp8_8(), Rounding::Nearest),
    );
    let cfg = QGemmConfig::new(Quantizer::identity(), Quantizer::identity(), mac);
    let (k, m) = (2, 40);
    let a = Tensor::from_vec(vec![1, k], vec![1.0; k]).unwrap();
    for (first, second) in [(f32::NAN, -f32::NAN), (-f32::NAN, f32::NAN)] {
        for lane in 0..m {
            let mut b = dense(k, m, lane);
            b.set(&[0, lane], first);
            b.set(&[1, lane], second);
            let what = format!("{first} then {second} at lane {lane}");
            let out = assert_tiers_match(&what, &a, &b, &cfg, 0, 0);
            assert_eq!(out.at(&[0, lane]).to_bits(), f32::NAN.to_bits(), "{what}");
        }
    }
}

/// One row past the row field's last value (`row_offset = 2^22 − n +
/// 1`) the summed hash inputs would carry out of the field: both
/// vector tiers must run the scalar nest there and match the
/// reference. `sr_event_index` debug-asserts its fields, so this runs
/// in release builds only.
#[cfg(not(debug_assertions))]
#[test]
fn one_row_past_the_row_field_matches_reference() {
    for cfg in sr_stage_configs() {
        let (n, k, m) = (3, 7, 37);
        let (a, b) = (dense(n, k, 3), dense(k, m, 4));
        assert_tiers_match("one row past", &a, &b, &cfg, (1 << 22) - n + 1, 0);
    }
}
