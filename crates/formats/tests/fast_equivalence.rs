//! Cross-path bit-equality: the monomorphized fast kernels
//! ([`FloatFastF64`] on `f64` and, widening, on `f32`, and
//! [`FixedFastF64`]) and the slice
//! entry point ([`Quantizer::quantize_slice_f32`]) must agree **bit
//! for bit** with the scalar reference quantizer for every format,
//! rounding mode, and input — including negative zero, subnormals,
//! NaN payloads, and values straddling the saturation boundary.

use mpt_formats::{
    FixedFastF64, FixedFormat, FloatFastF64, FloatFormat, Kernel, Quantizer, Rounding, SimdTier,
    SrRng,
};
use proptest::prelude::*;

/// Arbitrary `EeMm` with subnormal/saturation handling toggled — the
/// f32-carrier space (`man <= 23` keeps quantization non-trivial, but
/// wider mantissas exercise the identity fast path too).
fn float_formats_f32() -> impl Strategy<Value = FloatFormat> {
    (2u32..=8, 0u32..=30, any::<bool>(), any::<bool>()).prop_map(|(e, m, sub, sat)| {
        let mut f = FloatFormat::new(e, m).expect("valid");
        if !sub {
            f = f.without_subnormals();
        }
        if !sat {
            f = f.with_infinities();
        }
        f
    })
}

/// Full format space for the f64-carrier kernel, up to `E11M52`.
fn float_formats_f64() -> impl Strategy<Value = FloatFormat> {
    (2u32..=11, 0u32..=52, any::<bool>(), any::<bool>()).prop_map(|(e, m, sub, sat)| {
        let mut f = FloatFormat::new(e, m).expect("valid");
        if !sub {
            f = f.without_subnormals();
        }
        if !sat {
            f = f.with_infinities();
        }
        f
    })
}

/// Fixed-point formats from 1 to 64 bits: the lane kernels cover
/// widths up to 52, wider ones exercise the oracle fallback.
fn fixed_formats() -> impl Strategy<Value = FixedFormat> {
    (1u32..=32, 0u32..=32).prop_map(|(i, f)| FixedFormat::new(i, f).expect("valid"))
}

/// Quantizers of both lane-kernel families under every mode.
fn lane_quantizers() -> impl Strategy<Value = Quantizer> {
    prop_oneof![
        (float_formats_f32(), all_modes()).prop_map(|(f, m)| Quantizer::float(f, m)),
        (fixed_formats(), all_modes()).prop_map(|(f, m)| Quantizer::fixed(f, m)),
    ]
}

fn all_modes() -> impl Strategy<Value = Rounding> {
    prop_oneof![
        Just(Rounding::Nearest),
        Just(Rounding::TowardZero),
        Just(Rounding::ToOdd),
        Just(Rounding::NoRound),
        (0u32..=24).prop_map(|b| Rounding::Stochastic { random_bits: b }),
    ]
}

/// f32 bit patterns weighted toward the interesting corners: raw
/// patterns (hits NaN payloads, infinities, subnormals), ordinary
/// magnitudes, tiny values below every format's normal range, and
/// exact specials.
fn f32_values() -> impl Strategy<Value = f32> {
    prop_oneof![
        any::<u32>().prop_map(f32::from_bits),
        -1.0e6f32..1.0e6,
        (0u32..1 << 24).prop_map(f32::from_bits), // carrier subnormals
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::NAN),
        Just(f32::MIN_POSITIVE),
    ]
}

fn f64_values() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        -1.0e9f64..1.0e9,
        -2.0f64..2.0,
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
    ]
}

/// Bitwise equality that treats any-NaN == any-NaN the same way the
/// kernels do: compare raw bits (NaN payloads must match too, since
/// both paths pass the input through untouched).
fn assert_bits_f32(fast: f32, reference: f32) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fast.to_bits(),
        reference.to_bits(),
        "fast {} ({:#010x}) != reference {} ({:#010x})",
        fast,
        fast.to_bits(),
        reference,
        reference.to_bits()
    );
    Ok(())
}

fn assert_bits_f64(fast: f64, reference: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fast.to_bits(),
        reference.to_bits(),
        "fast {} ({:#018x}) != reference {} ({:#018x})",
        fast,
        fast.to_bits(),
        reference,
        reference.to_bits()
    );
    Ok(())
}

proptest! {
    /// The fast kernel's f32 path agrees with the scalar reference on
    /// every bit pattern, format, mode, seed and event index.
    #[test]
    fn fast_f32_matches_reference(
        fmt in float_formats_f32(),
        mode in all_modes(),
        x in f32_values(),
        seed in 0u64..1 << 20,
        idx in any::<u64>(),
    ) {
        let rng = SrRng::new(seed);
        match FloatFastF64::new(fmt, mode, rng) {
            Some(fast) => {
                let reference = fmt.quantize(x as f64, mode, &rng, idx) as f32;
                assert_bits_f32(fast.quantize_f32_dyn(x, idx), reference)?;
            }
            // Only NR declines a kernel (quantization is the identity).
            None => prop_assert_eq!(mode, Rounding::NoRound),
        }
    }

    /// Same for the f64 kernel over the full format space (up to
    /// E11M52), which the fused GEMM accumulator uses.
    #[test]
    fn fast_f64_matches_reference(
        fmt in float_formats_f64(),
        mode in all_modes(),
        x in f64_values(),
        seed in 0u64..1 << 20,
        idx in any::<u64>(),
    ) {
        let rng = SrRng::new(seed);
        match FloatFastF64::new(fmt, mode, rng) {
            Some(fast) => {
                let reference = fmt.quantize(x, mode, &rng, idx);
                assert_bits_f64(fast.quantize_dyn(x, idx), reference)?;
            }
            None => prop_assert_eq!(mode, Rounding::NoRound),
        }
    }

    /// The fast kernel saturates at exactly the same threshold as the
    /// reference: sweep a dense neighborhood of `max_value`.
    #[test]
    fn fast_f32_saturation_boundary(
        fmt in float_formats_f32(),
        mode in all_modes(),
        offset in -64i64..=64,
        negative in any::<bool>(),
        idx in 0u64..1024,
    ) {
        let rng = SrRng::new(9);
        let Some(fast) = FloatFastF64::new(fmt, mode, rng) else {
            return Ok(());
        };
        let boundary = fmt.max_value() as f32;
        let stepped = f32::from_bits(
            (boundary.to_bits() as i64 + offset).max(0) as u32
        );
        let x = if negative { -stepped } else { stepped };
        let reference = fmt.quantize(x as f64, mode, &rng, idx) as f32;
        assert_bits_f32(fast.quantize_f32_dyn(x, idx), reference)?;
    }

    /// `quantize_slice_f32` (the GEMM input path) equals element-wise
    /// `quantize_f32` with consecutive indices — for float formats
    /// (fast path) at every rounding mode. Identity quantizers are
    /// passthrough by contract (the FP32-baseline convention shared
    /// with the GEMM kernels), so they are asserted as no-ops instead.
    #[test]
    fn slice_matches_scalar_float(
        fmt in float_formats_f32(),
        mode in all_modes(),
        values in proptest::collection::vec(f32_values(), 0..40),
        seed in 0u64..1 << 16,
        base in 0u64..1 << 40,
    ) {
        let q = Quantizer::float(fmt, mode).with_seed(seed);
        let mut fast = values.clone();
        q.quantize_slice_f32(&mut fast, base);
        for (i, (&f, &v)) in fast.iter().zip(values.iter()).enumerate() {
            if q.is_identity() {
                assert_bits_f32(f, v)?;
            } else {
                let reference = q.quantize_f32(v, base.wrapping_add(i as u64));
                assert_bits_f32(f, reference)?;
            }
        }
    }

    /// The slice path's fixed-point lane kernel (ambient tier) also
    /// matches, on ordinary magnitudes and on raw bit patterns.
    #[test]
    fn slice_matches_scalar_fixed(
        fmt in fixed_formats(),
        mode in all_modes(),
        values in proptest::collection::vec(
            prop_oneof![-300.0f32..300.0, f32_values()],
            0..24,
        ),
        seed in 0u64..1 << 16,
        base in 0u64..1 << 40,
    ) {
        let q = Quantizer::fixed(fmt, mode).with_seed(seed);
        let mut fast = values.clone();
        q.quantize_slice_f32(&mut fast, base);
        for (i, (&f, &v)) in fast.iter().zip(values.iter()).enumerate() {
            let reference = q.quantize_f32(v, base.wrapping_add(i as u64));
            assert_bits_f32(f, reference)?;
        }
    }

    /// Every SIMD tier of the f32 slice kernel is bit-identical to
    /// the scalar reference — across float and fixed-point formats,
    /// modes (including SR seeds), raw bit patterns (NaN payloads,
    /// ±inf, subnormals), and slice lengths that are *not* multiples
    /// of the 8-wide lane count (tail handling).
    #[test]
    fn slice_tiers_match_scalar(
        q in lane_quantizers(),
        values in proptest::collection::vec(f32_values(), 0..40),
        seed in 0u64..1 << 16,
        base in 0u64..1 << 40,
    ) {
        let q = q.with_seed(seed);
        for tier in SimdTier::ALL {
            let mut out = values.clone();
            q.quantize_slice_f32_tier(&mut out, base, tier);
            for (i, (&f, &v)) in out.iter().zip(values.iter()).enumerate() {
                let reference = if q.is_identity() {
                    v
                } else {
                    q.quantize_f32(v, base.wrapping_add(i as u64))
                };
                prop_assert_eq!(
                    f.to_bits(),
                    reference.to_bits(),
                    "tier {} lane {}: {} != scalar {}",
                    tier.name(), i, f, reference
                );
            }
        }
    }

    /// The fixed-point f64 kernel — the MAC stages' scalar body —
    /// matches the scalar oracle on products/sums of any magnitude and
    /// arbitrary event indices.
    #[test]
    fn fixed_f64_matches_reference(
        fmt in fixed_formats(),
        mode in all_modes(),
        vals in proptest::collection::vec(
            prop_oneof![f64_values(), (-40000i64..40000).prop_map(|c| c as f64 / 512.0)],
            4,
        ),
        idxs in proptest::collection::vec(any::<u64>(), 4),
        seed in 0u64..1 << 16,
    ) {
        let rng = SrRng::new(seed);
        let Some(fast) = FixedFastF64::new(fmt, mode, rng) else {
            return Ok(());
        };
        for (&x, &index) in vals.iter().zip(&idxs) {
            let reference = fmt.quantize(x, mode, &rng, index);
            assert_bits_f64(fast.quantize_dyn(x, index), reference)?;
        }
    }

    /// Negative zero survives both paths identically (sign preserved).
    #[test]
    fn negative_zero_preserved(
        fmt in float_formats_f32(),
        mode in all_modes(),
        idx in any::<u64>(),
    ) {
        let rng = SrRng::new(3);
        let Some(fast) = FloatFastF64::new(fmt, mode, rng) else {
            return Ok(());
        };
        assert_bits_f32(fast.quantize_f32_dyn(-0.0, idx), -0.0)?;
        assert_bits_f32(fast.quantize_f32_dyn(0.0, idx), 0.0)?;
    }
}

/// Dense deterministic sweep: every `(exp, man, subnormals, saturate,
/// mode)` combination in a representative grid, over thousands of bit
/// patterns including carrier subnormals and tiny near-flush values.
/// This is the sweep that caught the `M0` kept-digit parity bug (the
/// implicit leading 1 makes the truncated significand always odd,
/// which `abs >> ts` cannot see).
#[test]
fn dense_sweep_slice_vs_scalar() {
    let mut failures = 0;
    for e in 2u32..=8 {
        for m in [0u32, 1, 2, 3, 5, 10, 23, 24, 30] {
            for (sub, sat) in [(true, true), (true, false), (false, true), (false, false)] {
                let mut fmt = FloatFormat::new(e, m).unwrap();
                if !sub {
                    fmt = fmt.without_subnormals();
                }
                if !sat {
                    fmt = fmt.with_infinities();
                }
                for rounding in [
                    Rounding::Nearest,
                    Rounding::TowardZero,
                    Rounding::ToOdd,
                    Rounding::NoRound,
                    Rounding::Stochastic { random_bits: 0 },
                    Rounding::Stochastic { random_bits: 3 },
                    Rounding::Stochastic { random_bits: 10 },
                    Rounding::Stochastic { random_bits: 24 },
                ] {
                    let q = Quantizer::float(fmt, rounding).with_seed(17);
                    if q.is_identity() {
                        continue; // passthrough by contract
                    }
                    let values: Vec<f32> = (0..4000u32)
                        .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
                        .chain((0..200).map(|i| (i as f32 - 100.0) * 1.7e-7))
                        .collect();
                    let mut fast = values.clone();
                    q.quantize_slice_f32(&mut fast, 5);
                    for (i, (&f, &v)) in fast.iter().zip(values.iter()).enumerate() {
                        let r = q.quantize_f32(v, 5 + i as u64);
                        if f.to_bits() != r.to_bits() && !(f.is_nan() && r.is_nan()) {
                            failures += 1;
                            if failures <= 10 {
                                println!(
                                    "MISMATCH fmt=E{e}M{m} sub={sub} sat={sat} \
                                     mode={rounding:?} x={v:e} ({:#010x}) fast={f:e} \
                                     ({:#010x}) ref={r:e} ({:#010x}) idx={}",
                                    v.to_bits(),
                                    f.to_bits(),
                                    r.to_bits(),
                                    5 + i as u64,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(failures, 0, "{failures} slice/scalar mismatches");
}

/// Deterministic tier sweep aimed squarely at the vector kernels'
/// edge lanes: every slice length from 0 through two full 8-lane
/// blocks plus a ragged tail, with NaN payloads, ±inf, carrier
/// subnormals, and ±0 rotated through every lane position. Each tier
/// must equal the scalar reference bit-for-bit (the proptest above
/// samples this space; this pins the corners unconditionally).
#[test]
fn tier_lane_tails_and_specials() {
    let specials = [
        f32::from_bits(0x7fc1_2345), // quiet NaN, payload
        f32::from_bits(0xffc0_0001), // negative NaN
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x0000_0001), // smallest subnormal
        f32::from_bits(0x807f_ffff), // largest negative subnormal
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        1.5,
        -65504.0,
        3.0e-8,
    ];
    let formats: [mpt_formats::NumberFormat; 7] = [
        FloatFormat::e5m2().into(),
        FloatFormat::new(4, 3).unwrap().into(),
        FloatFormat::e6m5().without_subnormals().into(),
        FloatFormat::new(5, 0).unwrap().with_infinities().into(),
        FixedFormat::fxp4_4().into(),
        FixedFormat::fxp16_8().into(),
        FixedFormat::new(20, 32).unwrap().into(),
    ];
    let modes = [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::ToOdd,
        Rounding::Stochastic { random_bits: 11 },
    ];
    for fmt in formats {
        for mode in modes {
            let q = Quantizer::new(fmt, mode).with_seed(77);
            for len in 0..=19 {
                for rot in 0..specials.len() {
                    let values: Vec<f32> = (0..len)
                        .map(|i| specials[(i + rot) % specials.len()])
                        .collect();
                    let mut reference = values.clone();
                    q.quantize_slice_f32_tier(&mut reference, 31, SimdTier::Off);
                    for tier in SimdTier::ALL {
                        let mut out = values.clone();
                        q.quantize_slice_f32_tier(&mut out, 31, tier);
                        let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                        let rb: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            ob,
                            rb,
                            "tier {} diverged: fmt {fmt} mode {mode:?} len {len} rot {rot}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }
}

/// The `f32` float quantizer of the MAC nest, `QuantVec` at 16 and at 8
/// lanes, equals the `f64` kernel (`FloatFastF64::quantize` of the
/// widened lane) and the scalar oracle lane for lane on `f32` inputs, under
/// every mode and SR widths on both sides of the discarded-bit count,
/// up to its 31-bit limit. Every hand-back class — `f32` subnormal,
/// target subnormal, ±inf, NaN — walks through every lane position,
/// and must come back with its valid bit clear; every other lane,
/// ±0 included, must come back valid and equal. This pins the
/// carrier-width equivalence the `f32`-lane nest relies on.
#[cfg(target_arch = "x86_64")]
#[test]
fn quantize16_f32_matches_the_f64_kernel_lane_for_lane() {
    use mpt_formats::lanes::quantize_array;
    use mpt_formats::simd_avx2::Avx2;
    use mpt_formats::simd_avx512::Avx512;
    let formats = [
        FloatFormat::e6m5(),
        FloatFormat::e5m2().with_infinities(),
        FloatFormat::e6m5().without_subnormals(),
        FloatFormat::new(8, 7).unwrap(),
        FloatFormat::new(5, 0).unwrap(),
        FloatFormat::new(8, 22).unwrap().with_infinities(),
    ];
    let mut modes = vec![Rounding::Nearest, Rounding::TowardZero, Rounding::ToOdd];
    modes.extend([0, 1, 10, 18, 19, 31].map(|random_bits| Rounding::Stochastic { random_bits }));
    for fmt in formats {
        let min_normal = fmt.min_normal() as f32;
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(0x0000_0003),                 // f32 subnormal
            -f32::from_bits(0x007f_ffff),                // f32 subnormal
            (fmt.min_normal() * 0.75) as f32,            // target subnormal
            -(fmt.min_normal() * 0.5).max(1e-45) as f32, // target subnormal or f32's
            f32::from_bits(min_normal.to_bits() - 1),    // just below the fast regime
            -min_normal,                                 // its first value
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xffc0_1234), // negative NaN, payload
        ];
        let ordinary = |block: usize, lane: usize| {
            // Magnitudes from the format's min normal to past its
            // max, on and off the grid, both signs.
            let t = ((block * 16 + lane) * 2654435761 % 4096) as f64 / 4096.0;
            let lo = fmt.min_normal().log2();
            let hi = (fmt.max_value() * 1.5).log2().min(127.9);
            let x = (lo + t * (hi - lo)).exp2() as f32;
            let x = f32::from_bits(x.to_bits() & !(block as u32 % 3 * 0x3ff));
            if (block + lane).is_multiple_of(2) {
                x
            } else {
                -x
            }
        };
        for rounding in modes.iter().copied() {
            let rng = SrRng::new(0xf32_5eed);
            let fast64 = FloatFastF64::new(fmt, rounding, rng).unwrap();
            for block in 0..400 {
                let xs: [f32; 16] = std::array::from_fn(|l| {
                    if (block + l).is_multiple_of(4) {
                        specials[(block / 4 + l) % specials.len()]
                    } else {
                        ordinary(block, l)
                    }
                });
                // Structured like `sr_event_index`.
                let idxs: [u64; 16] =
                    std::array::from_fn(|l| ((block as u64) << 42) | ((l as u64) << 22) | 1);
                let hash = idxs.map(|i| rng.hash_input(i));
                for (lanes, got) in [
                    (16, quantize_array::<Avx512, _>(&fast64, &xs, &hash)),
                    (8, quantize_array::<Avx2, _>(&fast64, &xs, &hash)),
                ] {
                    // `None` where the host lacks the width.
                    let Some((out, ok)) = got else { continue };
                    for l in 0..lanes {
                        let x = xs[l];
                        let slow =
                            x != 0.0 && (!x.is_normal() || (x.abs() as f64) < fmt.min_normal());
                        let what = format!("{fmt}-{rounding} block {block} lane {l} x {x:e}");
                        assert_eq!(ok & (1 << l) == 0, slow, "{lanes} lanes, valid bit: {what}");
                        if slow {
                            continue;
                        }
                        let want = fast64.quantize_dyn(x as f64, idxs[l]) as f32;
                        let oracle = fmt.quantize(x as f64, rounding, &rng, idxs[l]) as f32;
                        assert_eq!(want.to_bits(), oracle.to_bits(), "f64 kernel: {what}");
                        assert_eq!(out[l].to_bits(), want.to_bits(), "{lanes} lanes: {what}");
                    }
                }
            }
        }
    }
}
