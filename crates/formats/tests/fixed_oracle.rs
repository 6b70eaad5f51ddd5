//! Exhaustive fixed-point oracle: every implementation of fixed-point
//! quantization — the scalar [`FixedFormat::quantize`], the
//! monomorphized [`FixedFastF64`] (scalar body), the `f32` lane
//! quantizer `FixedVec` at 8 and 16 lanes and the `f32` slice path
//! behind
//! [`Quantizer::quantize_slice_f32_tier`] on every SIMD tier — against
//! a slow **exact-integer** reference that shares no code with
//! `round_scaled`.
//!
//! For `FXP4.4` and `FXP8.8` the probe set is exhaustive over the code
//! space: every adjacent code pair × {on-grid, midpoint, just below /
//! just above the midpoint at `f32` and at `f64` resolution}, both
//! saturation edges, ±0, ±inf, NaN, × {RN, RZ, RO, SR with three
//! seeds, SR with 0, 1, 31, 32 and 52 random bits}. `FXP8.4` and
//! `FXP16.8` are sampled on a prime code stride.
//!
//! The reference decides *values*. The sign of a zero result is a
//! convention of the scalar implementation (e.g. RN returns `-0.0` on
//! `(-0.5, 0)` ulp but `+0.0` at exactly `-0.5` ulp), so every fast
//! path must additionally match the scalar's bits.

use mpt_formats::{FastKernel, FixedFormat, Kernel, Quantizer, Rounding, SimdTier, SrRng};

/// `x = m · 2^e` with integer `m`, exactly.
fn decompose(x: f64) -> (i128, i32) {
    let bits = x.to_bits();
    let sign = if bits >> 63 == 1 { -1 } else { 1 };
    let exp = ((bits >> 52) & 0x7FF) as i32;
    let frac = (bits & ((1u64 << 52) - 1)) as i128;
    if exp == 0 {
        (sign * frac, -1074)
    } else {
        (sign * (frac | (1 << 52)), exp - 1075)
    }
}

/// The exact-integer reference: scale to code units as a rational
/// `m / 2^shift`, round on integers, clamp, scale back.
fn reference(fmt: FixedFormat, x: f64, rounding: Rounding, rng: &SrRng, index: u64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let w = fmt.bit_width();
    let (cmin, cmax) = (-(1i128 << (w - 1)), (1i128 << (w - 1)) - 1);
    let (m, e) = decompose(x);
    let s = e + fmt.frac_bits() as i32; // scaled value = m · 2^s
    let code = if x.is_infinite() || (m != 0 && s > 64) {
        if x > 0.0 {
            cmax
        } else {
            cmin
        }
    } else if m == 0 || s >= 0 {
        m << s.max(0)
    } else {
        let shift = (-s) as u32;
        assert!(
            shift < 70,
            "probe {x:e} is finer than the reference supports"
        );
        let floor = m >> shift; // arithmetic shift = floor division
        let rem = m - (floor << shift); // 0 <= rem < 2^shift
        let den = 1i128 << shift;
        let toward_zero = if m < 0 && rem != 0 { floor + 1 } else { floor };
        match rounding {
            Rounding::TowardZero => toward_zero,
            Rounding::Nearest => {
                let up = 2 * rem > den || (2 * rem == den && floor & 1 == 1);
                floor + up as i128
            }
            Rounding::ToOdd => {
                if rem == 0 || toward_zero & 1 == 1 {
                    toward_zero
                } else {
                    toward_zero + m.signum()
                }
            }
            Rounding::Stochastic { random_bits } => {
                let rb = random_bits.min(53);
                let frac_bits = (rem << rb) >> shift;
                floor + (frac_bits > rng.bits(index, rb) as i128) as i128
            }
            Rounding::NoRound => unreachable!("NR has no grid"),
        }
    };
    code.clamp(cmin, cmax) as f64 * 2f64.powi(-(fmt.frac_bits() as i32))
}

/// Probes for `fmt` over codes `code_min, code_min + stride, ..`:
/// `(f32-representable probes, f64-only probes)`.
fn probes(fmt: FixedFormat, stride: i64) -> (Vec<f32>, Vec<f64>) {
    let res = fmt.resolution();
    let half = 1i64 << (fmt.bit_width() - 1);
    let (mut narrow, mut wide) = (Vec::new(), Vec::new());
    let mut code = -half;
    while code < half {
        let on_grid = code as f64 * res;
        let mid = (code as f64 + 0.5) * res;
        let mid32 = mid as f32;
        for v in [
            on_grid,
            mid,
            mid32.next_up() as f64,
            mid32.next_down() as f64,
        ] {
            assert_eq!(v as f32 as f64, v, "{fmt}: probe {v:e} must be an f32");
            narrow.push(v as f32);
        }
        wide.extend([mid.next_up(), mid.next_down()]);
        code += stride;
    }
    let (min, max) = (fmt.min_value(), fmt.max_value());
    for v in [
        max,
        max + res * 0.5,
        max + res,
        max * 2.0,
        min,
        min - res * 0.5,
        min - res,
        min * 2.0,
        0.0,
        -0.0,
        1.0e30,
        -1.0e30,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ] {
        narrow.push(v as f32);
    }
    wide.extend([max.next_up(), min.next_down(), f64::MAX, f64::MIN]);
    (narrow, wide)
}

/// Checks one implementation's result: the reference's value, the
/// scalar implementation's bits.
#[track_caller]
fn check(what: &str, q: &Quantizer, x: f64, got: f64, want: f64, scalar: f64) {
    if want.is_nan() {
        assert!(got.is_nan(), "{what} {q}: NaN in, {got:e} out");
    } else {
        assert_eq!(got, want, "{what} {q}: x {x:e} ({:#018x})", x.to_bits());
    }
    assert_eq!(
        got.to_bits(),
        scalar.to_bits(),
        "{what} {q}: x {x:e} differs from the scalar bits ({got:e} vs {scalar:e})"
    );
}

/// The reference values and the scalar implementation's bits of four
/// probes.
fn expected(q: &Quantizer, fmt: FixedFormat, xs: [f64; 4], indices: [u64; 4]) -> [(f64, f64); 4] {
    let rng = q.rng();
    std::array::from_fn(|l| {
        let want = reference(fmt, xs[l], q.rounding(), &rng, indices[l]);
        (want, q.quantize(xs[l], indices[l]))
    })
}

/// Every [`FixedFastF64`] body on one block of four, and the 8- and
/// 16-lane `f32` quantizers on the block narrowed to `f32`.
fn check_fast_f64(q: &Quantizer, fmt: FixedFormat, xs: [f64; 4], indices: [u64; 4]) {
    let Some(FastKernel::Fixed(fast)) = q.fast_kernel() else {
        panic!("<= 52-bit fixed format");
    };
    let wide = expected(q, fmt, xs, indices);
    for l in 0..4 {
        let (want, scalar) = wide[l];
        check("scalar", q, xs[l], scalar, want, scalar);
        let got = fast.quantize_dyn(xs[l], indices[l]);
        check("FixedFastF64", q, xs[l], got, want, scalar);
    }
    // The vector quantizer at both widths (where the host has them), on
    // the probes narrowed to `f32` (`f32` lanes take `f32` inputs: the
    // probes that are not `f32`s are checked at their narrowing),
    // repeated to fill its lanes. A format or SR width the `f32` lanes
    // do not carry runs the scalar nest on every tier.
    #[cfg(target_arch = "x86_64")]
    {
        use mpt_formats::lanes::quantize_array;
        use mpt_formats::simd_avx2::Avx2;
        use mpt_formats::simd_avx512::Avx512;
        let rng = q.rng();
        let hash: [u64; 16] = std::array::from_fn(|l| rng.hash_input(indices[l % 4]));
        let narrow = xs.map(|x| x as f32);
        let x16: [f32; 16] = std::array::from_fn(|l| narrow[l % 4]);
        let inputs = narrow.map(f64::from);
        let want = if inputs == xs {
            wide
        } else {
            expected(q, fmt, inputs, indices)
        };
        for (what, lanes, got) in [
            (
                "FixedVec<Avx2>",
                8,
                quantize_array::<Avx2, _>(&fast, &x16, &hash),
            ),
            (
                "FixedVec<Avx512>",
                16,
                quantize_array::<Avx512, _>(&fast, &x16, &hash),
            ),
        ] {
            let Some((res, lanes_ok)) = got else { continue };
            for (l, &got) in res[..lanes].iter().enumerate() {
                let x = inputs[l % 4];
                // Lanes reported invalid are the caller's to recompute
                // (non-finite inputs only).
                if lanes_ok & (1 << l) != 0 {
                    check(what, q, x, got as f64, want[l % 4].0, want[l % 4].1);
                } else {
                    assert!(!x.is_finite(), "{what}: finite lane {x:e} handed back");
                }
            }
        }
    }
}

fn oracle_sweep(fmt: FixedFormat, stride: i64) {
    let (narrow, wide) = probes(fmt, stride);
    let mut roundings = vec![Rounding::Nearest, Rounding::TowardZero, Rounding::ToOdd];
    let sr_seeds = [1u64, 0x5eed, u64::MAX];
    roundings.extend([Rounding::stochastic(); 3]);
    // Both ends of the draw widths the lane quantizers compare on
    // 32-bit lanes, and past their 31-bit limit up to the widest the
    // scalar body compares as an exact `f64` (52 bits).
    roundings.extend([0, 1, 31, 32, 52].map(|random_bits| Rounding::Stochastic { random_bits }));
    for (ri, rounding) in roundings.into_iter().enumerate() {
        let q = Quantizer::fixed(fmt, rounding).with_seed(sr_seeds[ri % 3]);
        let base = 0x1234_5678_9abc + ri as u64;

        // The f32 slice path, every tier, with consecutive indices.
        let expected: Vec<(f64, f64)> = narrow
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let index = base + i as u64;
                let want = reference(fmt, x as f64, rounding, &q.rng(), index);
                (want, q.quantize_f32(x, index) as f64)
            })
            .collect();
        for &tier in SimdTier::available() {
            let mut out = narrow.clone();
            q.quantize_slice_f32_tier(&mut out, base, tier);
            let what = format!("FixedFastF64 slice (tier {tier})");
            for ((&x, &got), &(want, scalar)) in narrow.iter().zip(&out).zip(&expected) {
                check(&what, &q, x as f64, got as f64, want, scalar);
            }
        }

        // The f64 bodies on every probe (the f32 ones widened, plus
        // the f64-only neighbours), four lanes at a time.
        let all: Vec<f64> = narrow
            .iter()
            .map(|&v| v as f64)
            .chain(wide.iter().copied())
            .collect();
        for (b, chunk) in all.chunks(4).enumerate() {
            let xs: [f64; 4] = std::array::from_fn(|l| chunk[l % chunk.len()]);
            // Structured like `sr_event_index`: far from consecutive.
            let indices: [u64; 4] =
                std::array::from_fn(|l| ((b as u64) << 42) | ((l as u64) << 22) | ri as u64);
            check_fast_f64(&q, fmt, xs, indices);
        }
    }
}

#[test]
fn fxp4_4_exhaustive() {
    oracle_sweep(FixedFormat::fxp4_4(), 1);
}

#[test]
fn fxp8_8_exhaustive() {
    oracle_sweep(FixedFormat::fxp8_8(), 1);
}

#[test]
fn fxp8_4_and_fxp16_8_sampled() {
    oracle_sweep(FixedFormat::fxp8_4(), 7);
    oracle_sweep(FixedFormat::fxp16_8(), 4099);
}

/// The reference itself, pinned on hand-computed FXP4.4 cases so a
/// bug in it cannot hide behind agreement with the implementations.
#[test]
fn reference_matches_hand_computed_cases() {
    let fmt = FixedFormat::fxp4_4();
    let rng = SrRng::new(0);
    let r = |x: f64, mode| reference(fmt, x, mode, &rng, 0);
    assert_eq!(r(0.09375, Rounding::Nearest), 0.125); // 1.5 ulp → 2 (even)
    assert_eq!(r(0.15625, Rounding::Nearest), 0.125); // 2.5 ulp → 2 (even)
    assert_eq!(r(-0.15625, Rounding::Nearest), -0.125);
    assert_eq!(r(0.07, Rounding::TowardZero), 0.0625);
    assert_eq!(r(-0.07, Rounding::TowardZero), -0.0625);
    assert_eq!(r(0.13, Rounding::ToOdd), 0.1875); // 2.08 ulp → 3
    assert_eq!(r(-0.13, Rounding::ToOdd), -0.1875);
    assert_eq!(r(0.07, Rounding::ToOdd), 0.0625); // 1.12 ulp → 1
    assert_eq!(r(100.0, Rounding::Nearest), 7.9375);
    assert_eq!(r(-100.0, Rounding::ToOdd), -8.0);
    assert_eq!(r(-7.99, Rounding::Nearest), -8.0);
    // SR only ever returns a neighbour, and both occur.
    let sr = Rounding::stochastic();
    let draws: Vec<f64> = (0..1000)
        .map(|i| reference(fmt, 0.1, sr, &rng, i))
        .collect();
    assert!(
        draws.iter().all(|&v| v == 0.0625 || v == 0.125),
        "SR left the bracket"
    );
    let ups = draws.iter().filter(|&&v| v == 0.125).count();
    assert!(
        (500..700).contains(&ups),
        "0.1 is 0.6 of the way up; got {ups}/1000"
    );
}
