//! Exhaustive float oracle: every implementation of float quantization
//! on `f32` carriers — the scalar [`FloatFormat::quantize`] behind
//! [`Quantizer::quantize_f32`], the `f32` slice path behind
//! [`Quantizer::quantize_slice_f32_tier`] on every SIMD tier, and the
//! `f32` lane quantizer `QuantVec` at 8 and 16 lanes — against a slow
//! **exact-integer** reference that shares no code with `round_scaled`.
//!
//! For `E5M2`, `E4M3`, `E6M5` and `E5M10`, saturating and with
//! infinities, the probe set is exhaustive over the representable
//! values: every adjacent pair × {on the grid, the midpoint, one `f32`
//! ulp either side of it}, both signs, the saturation edges, ±0, ±inf
//! and NaN, × {RN, RZ, RO, SR with 0, 1, 10 and 31 random bits}. Under
//! RN, RZ and RO every representable value and both zeros must also map
//! to themselves, bit for bit (idempotence, which lets a tensor be
//! quantized once and reused).
//!
//! The reference decides *values*; every path must additionally match
//! the scalar implementation's bits (the sign of a zero result is its
//! convention).

use mpt_formats::{FloatFormat, Quantizer, Rounding, SimdTier, SrRng};

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

/// The exact-integer reference: round `x` on the integer grid of its
/// ULP (the format's own exponent, pinned at `min_exp` below the normal
/// range), then overflow past the largest value. Formats with
/// subnormals only.
fn reference(fmt: FloatFormat, x: f64, rounding: Rounding, rng: &SrRng, index: u64) -> f64 {
    assert!(fmt.has_subnormals());
    let max = fmt.max_value();
    let overflow = |negative: bool| {
        let v = if fmt.saturates() { max } else { f64::INFINITY };
        if negative {
            -v
        } else {
            v
        }
    };
    if x.is_nan() || x == 0.0 {
        return x;
    }
    // At or past `2^(max_exp + 1)` every mode leaves the finite range.
    if x.is_infinite() || x.abs() >= 2.0 * 2f64.powi(fmt.max_exp()) {
        return overflow(x < 0.0);
    }
    let (m, e) = decompose(x);
    let msb = e + 127 - m.unsigned_abs().leading_zeros() as i32; // floor(log2 |x|)
    let ulp = msb.max(fmt.min_exp()) - fmt.man_bits() as i32;
    let s = e - ulp; // scaled value = m · 2^s
    let code = if s >= 0 {
        m << s
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
    let y = code as f64 * 2f64.powi(ulp);
    if y == 0.0 {
        0f64.copysign(x)
    } else if y.abs() > max {
        overflow(y < 0.0)
    } else {
        y
    }
}

/// Every non-negative finite value of `fmt`, ascending, computed from
/// its fields.
fn representable(fmt: FloatFormat) -> Vec<f64> {
    let man = fmt.man_bits() as i32;
    let mut values = Vec::new();
    for field in 0..(1i32 << fmt.exp_bits()) - 1 {
        for mantissa in 0..1i64 << man {
            values.push(if field == 0 {
                mantissa as f64 * 2f64.powi(fmt.min_exp() - man)
            } else {
                ((1i64 << man) + mantissa) as f64 * 2f64.powi(field - fmt.bias() - man)
            });
        }
    }
    values
}

/// The probes of `fmt`, each an `f32`, with whether it is representable
/// (±0 included; ±inf where the format has infinities).
fn probes(fmt: FloatFormat) -> Vec<(f32, bool)> {
    let values = representable(fmt);
    let mut out = Vec::new();
    let mut push = |v: f64, on_grid: bool| {
        assert_eq!(v as f32 as f64, v, "{fmt}: probe {v:e} must be an f32");
        out.push((v as f32, on_grid));
        out.push((-v as f32, on_grid));
    };
    for pair in values.windows(2) {
        let mid = (pair[0] + pair[1]) / 2.0;
        push(pair[0], true);
        push(mid, false);
        push((mid as f32).next_up() as f64, false);
        push((mid as f32).next_down() as f64, false);
    }
    let max = fmt.max_value();
    let top_ulp = max - values[values.len() - 2];
    push(max, true);
    for v in [
        max + top_ulp / 2.0,
        max + top_ulp,
        2.0 * max,
        1.0e30f32 as f64,
        f32::MAX as f64,
    ] {
        push(v, false);
    }
    push(f64::INFINITY, !fmt.saturates());
    out.push((f32::NAN, false));
    out
}

/// Checks one implementation's result: the reference's value, the
/// scalar implementation's bits, and — `idempotent` — the input's bits.
#[track_caller]
fn check(what: &str, q: &Quantizer, x: f32, got: f32, want: f64, scalar: f32, idempotent: bool) {
    if want.is_nan() {
        assert!(got.is_nan(), "{what} {q}: NaN in, {got:e} out");
    } else {
        assert_eq!(
            got as f64,
            want,
            "{what} {q}: x {x:e} ({:#010x})",
            x.to_bits()
        );
    }
    assert_eq!(
        got.to_bits(),
        scalar.to_bits(),
        "{what} {q}: x {x:e} differs from the scalar bits ({got:e} vs {scalar:e})"
    );
    if idempotent {
        assert_eq!(
            got.to_bits(),
            x.to_bits(),
            "{what} {q}: {x:e} does not map to itself"
        );
    }
}

fn oracle_sweep(fmt: FloatFormat) {
    let probes = probes(fmt);
    let mut roundings = vec![Rounding::Nearest, Rounding::TowardZero, Rounding::ToOdd];
    roundings.extend([0, 1, 10, 31].map(|random_bits| Rounding::Stochastic { random_bits }));
    for (ri, rounding) in roundings.into_iter().enumerate() {
        let q = Quantizer::float(fmt, rounding).with_seed(0x5eed + ri as u64);
        let rng = q.rng();
        let deterministic = !matches!(rounding, Rounding::Stochastic { .. });
        let base = 0x1234_5678_9abc + ri as u64;

        // The scalar path and the slice path on every tier, with
        // consecutive indices.
        let expected: Vec<(f64, f32)> = probes
            .iter()
            .enumerate()
            .map(|(i, &(x, _))| {
                let index = base + i as u64;
                let want = reference(fmt, x as f64, rounding, &rng, index);
                let scalar = q.quantize_f32(x, index);
                check("scalar", &q, x, scalar, want, scalar, false);
                (want, scalar)
            })
            .collect();
        let xs: Vec<f32> = probes.iter().map(|&(x, _)| x).collect();
        for tier in SimdTier::ALL {
            let mut out = xs.clone();
            q.quantize_slice_f32_tier(&mut out, base, tier);
            let what = format!("slice (tier {tier})");
            for ((&(x, on_grid), &got), &(want, scalar)) in probes.iter().zip(&out).zip(&expected) {
                check(&what, &q, x, got, want, scalar, deterministic && on_grid);
            }
        }

        // `QuantVec` at both widths, 16 probes at a time, at indices
        // structured like `sr_event_index`: far from consecutive.
        #[cfg(target_arch = "x86_64")]
        {
            use mpt_formats::lanes::quantize_array;
            use mpt_formats::simd_avx2::Avx2;
            use mpt_formats::simd_avx512::Avx512;
            let fast = q.fast_f64().expect("a float quantizer other than NR");
            for (b, chunk) in probes.chunks(16).enumerate() {
                let x16: [f32; 16] = std::array::from_fn(|l| chunk[l % chunk.len()].0);
                let indices: [u64; 16] =
                    std::array::from_fn(|l| ((b as u64) << 42) | ((l as u64) << 22) | ri as u64);
                let hash = indices.map(|i| rng.hash_input(i));
                for (what, lanes, got) in [
                    (
                        "QuantVec<Avx2>",
                        8,
                        quantize_array::<Avx2, _>(&fast, &x16, &hash),
                    ),
                    (
                        "QuantVec<Avx512>",
                        16,
                        quantize_array::<Avx512, _>(&fast, &x16, &hash),
                    ),
                ] {
                    let Some((res, ok)) = got else { continue };
                    for l in 0..lanes {
                        let (x, on_grid) = chunk[l % chunk.len()];
                        // Handed back: the target's subnormal range and
                        // ±inf/NaN, which the caller rounds through the
                        // scalar kernel.
                        let slow =
                            !x.is_finite() || (x != 0.0 && (x.abs() as f64) < fmt.min_normal());
                        assert_eq!(ok & (1 << l) == 0, slow, "{what} {q}: valid bit of {x:e}");
                        if !slow {
                            let want = reference(fmt, x as f64, rounding, &rng, indices[l]);
                            let scalar = q.quantize_f32(x, indices[l]);
                            check(what, &q, x, res[l], want, scalar, deterministic && on_grid);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn e5m2_exhaustive() {
    oracle_sweep(FloatFormat::e5m2());
    oracle_sweep(FloatFormat::e5m2().with_infinities());
}

#[test]
fn e4m3_exhaustive() {
    oracle_sweep(FloatFormat::e4m3());
    oracle_sweep(FloatFormat::e4m3().with_infinities());
}

#[test]
fn e6m5_exhaustive() {
    oracle_sweep(FloatFormat::e6m5());
    oracle_sweep(FloatFormat::e6m5().with_infinities());
}

#[test]
fn e5m10_exhaustive() {
    oracle_sweep(FloatFormat::e5m10());
    oracle_sweep(FloatFormat::e5m10().with_infinities());
}

/// The reference itself, pinned on hand-computed E5M2 cases so a bug in
/// it cannot hide behind agreement with the implementations.
#[test]
fn reference_matches_hand_computed_cases() {
    let fmt = FloatFormat::e5m2(); // ulp 0.25 on [1, 2), max 57344
    let rng = SrRng::new(0);
    let r = |x: f64, mode| reference(fmt, x, mode, &rng, 0);
    assert_eq!(r(1.125, Rounding::Nearest), 1.0); // tie → even
    assert_eq!(r(1.375, Rounding::Nearest), 1.5); // tie → even
    assert_eq!(r(-1.375, Rounding::Nearest), -1.5);
    assert_eq!(r(1.2, Rounding::TowardZero), 1.0);
    assert_eq!(r(-1.2, Rounding::TowardZero), -1.0);
    assert_eq!(r(1.1, Rounding::ToOdd), 1.25); // 1.00 → odd neighbour 1.01
    assert_eq!(r(1.3, Rounding::ToOdd), 1.25); // kept 1.01 is odd
    assert_eq!(r(-1.1, Rounding::ToOdd), -1.25);
    assert_eq!(r(2f64.powi(-17), Rounding::Nearest), 0.0); // half the smallest subnormal, tie → 0
    assert_eq!(
        r(-2f64.powi(-17), Rounding::Nearest).to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(r(61440.0, Rounding::Nearest), 57344.0); // past the max: saturate
    let inf = FloatFormat::e5m2().with_infinities();
    assert_eq!(
        reference(inf, 61440.0, Rounding::Nearest, &rng, 0),
        f64::INFINITY
    );
    assert_eq!(
        reference(inf, 61439.0, Rounding::TowardZero, &rng, 0),
        57344.0
    );
    // SR only ever returns a neighbour, and both occur.
    let sr = Rounding::stochastic();
    let draws: Vec<f64> = (0..1000)
        .map(|i| reference(fmt, 1.1, sr, &rng, i))
        .collect();
    assert!(
        draws.iter().all(|&v| v == 1.0 || v == 1.25),
        "SR left the bracket"
    );
    let ups = draws.iter().filter(|&&v| v == 1.25).count();
    assert!(
        (300..500).contains(&ups),
        "1.1 is 0.4 of the way up; got {ups}/1000"
    );
}
