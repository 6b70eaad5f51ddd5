//! Monomorphized fast-path quantization kernels.
//!
//! [`FloatFormat::quantize`] is the bit-accuracy *oracle*: a scalar
//! routine that scales to the target ULP in `f64`, rounds, and scales
//! back. It is general — any `EeMm`, any rounding mode, any carrier —
//! but it pays for that generality on every element: an `f32 → f64`
//! round trip, two exact scalings, and a rounding-mode match.
//!
//! The GEMM emulation kernels in `mpt-arith` quantize millions of
//! elements per call with one *fixed* `(format, rounding)` pair, so
//! this module precomputes everything derivable from the format once
//! ([`FloatFastF32`]/[`FloatFastF64`]) and then rounds the mantissa
//! directly on the carrier's bit pattern — no `f64` round trip, no
//! per-element dispatch. The rounding mode is a `const` generic, so
//! each mode compiles to its own branch-free inner loop, selected once
//! per slice (or once per GEMM).
//!
//! ## Bit-equality contract
//!
//! Every path here returns **bit-identical** results to the oracle.
//! The fast integer rounding applies only where its equivalence to the
//! scaled-`f64` computation is provable: finite, non-zero, normal
//! carriers whose exponent is at least the format's `min_exp` (there
//! the oracle's every `f64` step is exact, so both compute the same
//! mathematical rounding). Zeros, NaN/infinity, carrier subnormals and
//! target-subnormal-range values — rare in GEMM traffic — delegate to
//! the oracle itself. Property tests in `tests/fast_equivalence.rs`
//! compare the two paths bit-for-bit across random formats, modes, and
//! boundary values.

use crate::float::FloatFormat;
use crate::rounding::Rounding;
use crate::simd::SimdTier;
use crate::sr::SrRng;

/// Rounding-mode discriminants for `const`-generic monomorphization.
///
/// [`Rounding::NoRound`] has no discriminant: it is the identity, so
/// no kernel is ever instantiated for it.
pub mod mode {
    /// Round to nearest, ties to even (RN).
    pub const RN: u8 = 0;
    /// Round toward zero (RZ).
    pub const RZ: u8 = 1;
    /// Stochastic rounding (SR).
    pub const SR: u8 = 2;
    /// Round to odd (RO).
    pub const RO: u8 = 3;
}

/// Returns the [`mode`] discriminant for `rounding`, or `None` for
/// [`Rounding::NoRound`] (identity — no kernel needed).
pub fn mode_of(rounding: Rounding) -> Option<u8> {
    match rounding {
        Rounding::Nearest => Some(mode::RN),
        Rounding::TowardZero => Some(mode::RZ),
        Rounding::Stochastic { .. } => Some(mode::SR),
        Rounding::ToOdd => Some(mode::RO),
        Rounding::NoRound => None,
    }
}

/// Evaluates `$body` with `$m` bound, as a `const`, to the [`mode`]
/// discriminant of the [`Rounding`] `$rounding` — the one place a
/// runtime rounding mode becomes a `const`-generic argument — or `$nr`
/// for [`Rounding::NoRound`], which has no kernel.
#[macro_export]
macro_rules! with_mode {
    ($rounding:expr, $m:ident => $body:expr, $nr:expr) => {
        match $rounding {
            $crate::Rounding::Nearest => {
                const $m: u8 = $crate::fast::mode::RN;
                $body
            }
            $crate::Rounding::TowardZero => {
                const $m: u8 = $crate::fast::mode::RZ;
                $body
            }
            $crate::Rounding::Stochastic { .. } => {
                const $m: u8 = $crate::fast::mode::SR;
                $body
            }
            $crate::Rounding::ToOdd => {
                const $m: u8 = $crate::fast::mode::RO;
                $body
            }
            $crate::Rounding::NoRound => $nr,
        }
    };
}

macro_rules! define_float_fast {
    (
        $(#[$doc:meta])*
        $name:ident, $carrier:ty, $ubits:ty,
        man = $car_man:expr, exp_mask = $car_exp_mask:expr,
        bias = $car_bias:expr, inf_bits = $inf_bits:expr,
        max_exp_unreachable = $max_exp_unreachable:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name {
            format: FloatFormat,
            rounding: Rounding,
            rng: SrRng,
            min_exp: i32,
            max_exp: i32,
            /// Carrier mantissa bits dropped by the format (may be
            /// `<= 0`, in which case the format is at least as fine as
            /// the carrier and quantization is overflow-check-only).
            ts: i32,
            /// Largest magnitude bit pattern that does NOT overflow.
            max_abs_bits: $ubits,
            /// Magnitude bit pattern returned on overflow (saturated
            /// max or infinity), before the sign bit is OR'd back in.
            sat_bits: $ubits,
            /// Effective stochastic random bits (`min(random_bits, 53)`,
            /// 0 for deterministic modes).
            rb: u32,
            /// `man_bits == 0`: the truncated scaled significand is the
            /// implicit leading 1 alone, so it is *always odd* — the
            /// kept-digit parity cannot be read from the carrier bits
            /// (`abs >> ts` lands on the exponent field's LSB there).
            implicit_odd: bool,
        }

        impl $name {
            /// Builds the precomputed fast quantizer, or `None` for
            /// [`Rounding::NoRound`] (identity: nothing to do).
            pub fn new(format: FloatFormat, rounding: Rounding, rng: SrRng) -> Option<Self> {
                let rb = match rounding {
                    Rounding::NoRound => return None,
                    Rounding::Stochastic { random_bits } => random_bits.min(53),
                    _ => 0,
                };
                // Overflow threshold. When the format's finite range
                // covers every finite carrier exponent, rounding can at
                // most carry up to the carrier's infinity bit pattern,
                // which the oracle also produces (via the final `f64 →
                // carrier` cast); otherwise `max_value()` is exactly
                // representable in the carrier (`man_bits <= carrier
                // mantissa`, `max_exp` in carrier range) and magnitude
                // bit patterns order like magnitudes.
                let max_abs_bits = if format.max_exp() >= $max_exp_unreachable {
                    $inf_bits
                } else {
                    (format.max_value() as $carrier).to_bits()
                };
                // Saturation result: the oracle returns ±max_value()
                // (or ±inf) as f64 and casts to the carrier; replicate
                // that exact cast here, once.
                let sat_bits = if format.saturates() {
                    (format.max_value() as $carrier).to_bits()
                } else {
                    $inf_bits
                };
                Some($name {
                    format,
                    rounding,
                    rng,
                    min_exp: format.min_exp(),
                    max_exp: format.max_exp(),
                    ts: $car_man as i32 - format.man_bits() as i32,
                    max_abs_bits,
                    sat_bits,
                    rb,
                    implicit_odd: format.man_bits() == 0,
                })
            }

            /// The format this kernel quantizes to.
            pub fn format(&self) -> FloatFormat {
                self.format
            }

            /// The rounding mode baked into `MODE` selections.
            pub fn rounding(&self) -> Rounding {
                self.rounding
            }

            /// The SR bit source (lane kernels hash its
            /// [`hash_input`](SrRng::hash_input) per lane).
            pub fn rng(&self) -> SrRng {
                self.rng
            }

            /// Quantizes one carrier value at rounding event `index`,
            /// bit-identical to the oracle.
            ///
            /// `MODE` must be the [`mode`] discriminant matching this
            /// kernel's rounding mode (see [`mode_of`]).
            #[inline]
            pub fn quantize<const MODE: u8>(&self, x: $carrier, index: u64) -> $carrier {
                let bits = x.to_bits();
                let sign_bit = (1 as $ubits) << ($car_man + ($car_exp_mask as u32).count_ones());
                let abs = bits & (sign_bit - 1);
                let exp_field = (abs >> $car_man) as i32;
                if exp_field == 0 || exp_field == $car_exp_mask {
                    // Zero, carrier subnormal, infinity or NaN: rare —
                    // let the oracle decide.
                    return self.oracle(x, index);
                }
                let e_x = exp_field - $car_bias;
                if e_x < self.min_exp {
                    // Target-subnormal range (including flush-to-zero
                    // formats): the oracle's pinned-ULP path handles it.
                    return self.oracle(x, index);
                }
                let sign = bits & sign_bit;
                if self.ts <= 0 {
                    // Format mantissa at least as wide as the carrier:
                    // every in-range carrier value is representable.
                    if e_x > self.max_exp {
                        return <$carrier>::from_bits(sign | self.sat_bits);
                    }
                    return x;
                }
                let ts = self.ts as u32;
                let rem = abs & (((1 as $ubits) << ts) - 1);
                let y_abs = if rem == 0 {
                    abs
                } else {
                    let q = abs - rem;
                    match MODE {
                        mode::RZ => q,
                        mode::RN => {
                            let half = (1 as $ubits) << (ts - 1);
                            let odd = self.implicit_odd || (abs >> ts) & 1 == 1;
                            let up = rem > half || (rem == half && odd);
                            q + ((up as $ubits) << ts)
                        }
                        mode::RO => {
                            if self.implicit_odd {
                                // Already odd via the implicit 1; OR-ing
                                // bit `ts` would hit the exponent field.
                                q
                            } else {
                                q | ((1 as $ubits) << ts)
                            }
                        }
                        mode::SR => {
                            // The oracle floors the *signed* scaled
                            // value, so the discarded fraction is
                            // `rem/2^ts` for positive inputs and
                            // `(2^ts - rem)/2^ts` for negative ones;
                            // rounding toward +inf shrinks a negative
                            // magnitude. Event-index hashing
                            // (`SrRng::bits`) inlines here, fused with
                            // the mantissa truncation.
                            let neg = sign != 0;
                            let r = if neg { ((1u64 << ts) - rem as u64) as u64 } else { rem as u64 };
                            let frac_bits = if self.rb >= ts {
                                r << (self.rb - ts)
                            } else {
                                r >> (ts - self.rb)
                            };
                            let toward_pos_inf = frac_bits > self.rng.bits(index, self.rb);
                            let up = toward_pos_inf ^ neg;
                            q + ((up as $ubits) << ts)
                        }
                        _ => unreachable!("invalid mode discriminant"),
                    }
                };
                if y_abs > self.max_abs_bits {
                    return <$carrier>::from_bits(sign | self.sat_bits);
                }
                <$carrier>::from_bits(sign | y_abs)
            }

            /// Quantizes one value with the mode resolved at runtime
            /// (a single small match; use the `const`-generic
            /// [`quantize`](Self::quantize) in hot loops).
            #[inline]
            pub fn quantize_dyn(&self, x: $carrier, index: u64) -> $carrier {
                with_mode!(self.rounding, M => self.quantize::<M>(x, index), x)
            }

            /// Quantizes a slice in place with the monomorphized
            /// kernel; element `i` uses rounding event
            /// `base_index + i`.
            pub fn quantize_slice<const MODE: u8>(
                &self,
                values: &mut [$carrier],
                base_index: u64,
            ) {
                for (i, v) in values.iter_mut().enumerate() {
                    *v = self.quantize::<MODE>(*v, base_index.wrapping_add(i as u64));
                }
            }

            /// [`quantize_slice`](Self::quantize_slice) with the mode
            /// matched once, outside the loop.
            pub fn quantize_slice_dyn(&self, values: &mut [$carrier], base_index: u64) {
                with_mode!(self.rounding, M => self.quantize_slice::<M>(values, base_index), ())
            }

            /// The scalar oracle, for inputs outside the fast regime.
            #[cold]
            #[inline(never)]
            fn oracle(&self, x: $carrier, index: u64) -> $carrier {
                self.format.quantize(x as f64, self.rounding, &self.rng, index) as $carrier
            }
        }
    };
}

define_float_fast!(
    /// Precomputed fast quantizer for `f32` carriers (operand
    /// quantization: `Quantizer::quantize_slice_f32`).
    FloatFastF32, f32, u32,
    man = 23, exp_mask = 0xFF,
    bias = 127, inf_bits = 0x7F80_0000u32,
    max_exp_unreachable = 128
);

define_float_fast!(
    /// Precomputed fast quantizer for `f64` carriers (MAC accumulator
    /// and multiplier-output rounding on exact `f64` sums/products).
    FloatFastF64, f64, u64,
    man = 52, exp_mask = 0x7FF,
    bias = 1023, inf_bits = 0x7FF0_0000_0000_0000u64,
    max_exp_unreachable = 1024
);

/// Lane-kernel parameters for [`FloatFastF32`]: the `f32` lane
/// quantizers (`simd_avx2::QuantVecF32x8`, `simd_avx512::QuantVecF32x16`)
/// broadcast them into vector registers once per slice or GEMM.
/// Produced by [`FloatFastF32::lane_plan`].
#[derive(Debug, Clone, Copy)]
pub struct LanePlanF32 {
    /// Carrier mantissa bits dropped by the format (`> 0`).
    pub ts: u32,
    /// `(1 << ts) - 1`: mask of the discarded mantissa bits.
    pub rem_mask: u32,
    /// `1 << (ts - 1)`: the round-to-nearest tie point.
    pub half: u32,
    /// `1 << ts`: one ULP of the target format, as a carrier
    /// bit-pattern increment.
    pub ts_bit: u32,
    /// Smallest biased carrier exponent field inside the fast regime
    /// (`min_exp + bias`, clamped to `>= 1`). Lanes with a smaller
    /// field fall back to the scalar path.
    pub lo_exp_field: u32,
    /// The carrier's all-ones exponent field (infinity/NaN).
    pub exp_mask_field: u32,
    /// Largest magnitude bit pattern that does NOT overflow.
    pub max_abs_bits: u32,
    /// Magnitude bit pattern returned on overflow, before the sign bit
    /// is OR'd back in.
    pub sat_bits: u32,
    /// `man_bits == 0`: the kept significand is the implicit leading 1
    /// alone (always odd; see `FloatFast*`).
    pub implicit_odd: bool,
    /// Stochastic random bits per rounding event (0 for deterministic
    /// modes).
    pub rb: u32,
    /// The SR seed, for per-lane `seed ^ index·INDEX_MUL` hash-input
    /// reconstruction.
    pub seed: u64,
}

impl FloatFastF32 {
    /// The precomputed lane-kernel parameters, or `None` when the
    /// format is at least as fine as `f32` (`ts <= 0`: quantization is
    /// an overflow check only, and the scalar loop is already minimal).
    pub fn lane_plan(&self) -> Option<LanePlanF32> {
        if self.ts <= 0 {
            return None;
        }
        let ts = self.ts as u32;
        Some(LanePlanF32 {
            ts,
            rem_mask: (1 << ts) - 1,
            half: 1 << (ts - 1),
            ts_bit: 1 << ts,
            lo_exp_field: (self.min_exp + 127).max(1) as u32,
            exp_mask_field: 0xFF,
            max_abs_bits: self.max_abs_bits,
            sat_bits: self.sat_bits,
            implicit_odd: self.implicit_odd,
            rb: self.rb,
            seed: self.rng.seed(),
        })
    }

    /// [`quantize_slice`](Self::quantize_slice) through the requested
    /// kernel tier. All tiers are bit-identical; pass
    /// [`crate::simd::active_tier`] for the ambient `MPT_SIMD`
    /// selection, or an explicit tier for in-process comparisons
    /// (differential tests, benches).
    pub fn quantize_slice_tier<const MODE: u8>(
        &self,
        values: &mut [f32],
        base_index: u64,
        tier: SimdTier,
    ) {
        match (tier, self.lane_plan()) {
            // The `Avx512` tier widens the MAC nest only; operand
            // slices run the AVX2 kernel under it.
            #[cfg(target_arch = "x86_64")]
            (SimdTier::Avx2 | SimdTier::Avx512, Some(plan)) => {
                crate::simd_avx2::quantize_slice_f32::<MODE>(self, &plan, values, base_index)
            }
            _ => self.quantize_slice::<MODE>(values, base_index),
        }
    }

    /// [`quantize_slice_tier`](Self::quantize_slice_tier) with the
    /// rounding mode matched once, outside the loop.
    pub fn quantize_slice_tier_dyn(&self, values: &mut [f32], base_index: u64, tier: SimdTier) {
        with_mode!(
            self.rounding,
            M => self.quantize_slice_tier::<M>(values, base_index, tier),
            ()
        )
    }
}

impl FloatFastF64 {
    /// The `f32` lane plan of this kernel where `f32` lanes carry it —
    /// an exponent of at most 8 bits, a mantissa narrower than `f32`'s,
    /// and at most [`MAX_RANDOM_BITS`](crate::simd::MAX_RANDOM_BITS)
    /// SR bits. There the `f32` lane quantizers round every `f32`
    /// value exactly as [`quantize`](Self::quantize) rounds its `f64`
    /// image.
    pub fn f32_plan(&self) -> Option<LanePlanF32> {
        if self.format.exp_bits() > 8 {
            return None;
        }
        let fast = FloatFastF32::new(self.format, self.rounding, self.rng)?;
        fast.lane_plan()
            .filter(|plan| plan.rb <= crate::simd::MAX_RANDOM_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Rounding; 4] = [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::Stochastic { random_bits: 10 },
        Rounding::ToOdd,
    ];

    fn assert_f32_matches(fmt: FloatFormat, rounding: Rounding, x: f32, index: u64) {
        let rng = SrRng::new(17);
        let fast = FloatFastF32::new(fmt, rounding, rng).unwrap();
        let got = fast.quantize_dyn(x, index);
        let want = fmt.quantize(x as f64, rounding, &rng, index) as f32;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "fmt {fmt} mode {rounding} x {x} ({:#010x}) index {index}: fast {got} ref {want}",
            x.to_bits()
        );
    }

    fn assert_f64_matches(fmt: FloatFormat, rounding: Rounding, x: f64, index: u64) {
        let rng = SrRng::new(23);
        let fast = FloatFastF64::new(fmt, rounding, rng).unwrap();
        let got = fast.quantize_dyn(x, index);
        let want = fmt.quantize(x, rounding, &rng, index);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "fmt {fmt} mode {rounding} x {x} ({:#018x}) index {index}: fast {got} ref {want}",
            x.to_bits()
        );
    }

    #[test]
    fn dense_f32_sweep_small_formats() {
        // Walk contiguous bit patterns around 1.0, the subnormal
        // boundary and the saturation boundary for several formats.
        for fmt in [
            FloatFormat::e5m2(),
            FloatFormat::e4m3(),
            FloatFormat::e6m5(),
            FloatFormat::e5m2().without_subnormals(),
            FloatFormat::e4m3().with_infinities(),
        ] {
            let anchors = [
                1.0f32.to_bits(),
                (fmt.min_normal() as f32).to_bits(),
                (fmt.max_value() as f32).to_bits().saturating_sub(64),
            ];
            for rounding in MODES {
                for &anchor in &anchors {
                    for delta in 0..128u32 {
                        let bits = anchor.wrapping_add(delta);
                        let x = f32::from_bits(bits);
                        assert_f32_matches(fmt, rounding, x, delta as u64);
                        assert_f32_matches(fmt, rounding, -x, 1000 + delta as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn special_values_delegate_correctly() {
        let fmt = FloatFormat::e5m2();
        for rounding in MODES {
            for x in [
                0.0f32,
                -0.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE / 4.0, // carrier subnormal
                1.0e-30,                 // far below min_exp
                f32::MAX,
            ] {
                let rng = SrRng::new(3);
                let fast = FloatFastF32::new(fmt, rounding, rng).unwrap();
                let got = fast.quantize_dyn(x, 5);
                let want = fmt.quantize(x as f64, rounding, &rng, 5) as f32;
                assert_eq!(got.to_bits(), want.to_bits(), "mode {rounding} x {x}");
            }
        }
    }

    #[test]
    fn f64_accumulator_formats_match() {
        for fmt in [
            FloatFormat::e6m5(),
            FloatFormat::e5m10(),
            FloatFormat::e8m23(),
        ] {
            for rounding in MODES {
                for i in 0..2000u64 {
                    // Accumulator-like sums: spread across magnitudes
                    // and signs, plus exact representables.
                    let x = ((i as f64) - 1000.0) * 0.0371 + (i as f64) * 1.0e-6;
                    assert_f64_matches(fmt, rounding, x, i);
                }
                assert_f64_matches(fmt, rounding, fmt.max_value() * 1.001, 1);
                assert_f64_matches(fmt, rounding, -fmt.max_value() * 1.001, 2);
                assert_f64_matches(fmt, rounding, fmt.max_value(), 3);
            }
        }
    }

    #[test]
    fn wide_mantissa_formats_are_overflow_check_only() {
        // man_bits >= carrier mantissa: ts <= 0 path.
        let fmt = FloatFormat::new(5, 30).unwrap();
        for rounding in MODES {
            for x in [1.5f32, -2.75, 60000.0, -70000.0, 1.0e-3] {
                assert_f32_matches(fmt, rounding, x, 9);
            }
        }
    }

    #[test]
    fn no_round_yields_no_kernel() {
        let rng = SrRng::new(0);
        assert!(FloatFastF32::new(FloatFormat::e5m2(), Rounding::NoRound, rng).is_none());
        assert!(FloatFastF64::new(FloatFormat::e6m5(), Rounding::NoRound, rng).is_none());
    }

    #[test]
    fn slice_matches_scalar_events() {
        let fmt = FloatFormat::e6m5();
        let rng = SrRng::new(77);
        let fast = FloatFastF32::new(fmt, Rounding::stochastic(), rng).unwrap();
        let src: Vec<f32> = (0..512).map(|i| ((i as f32) - 256.0) * 0.173).collect();
        let mut fastv = src.clone();
        fast.quantize_slice_dyn(&mut fastv, 4096);
        for (i, (&got, &x)) in fastv.iter().zip(&src).enumerate() {
            let want = fmt.quantize(x as f64, Rounding::stochastic(), &rng, 4096 + i as u64);
            assert_eq!(got.to_bits(), (want as f32).to_bits(), "i {i}");
        }
    }

    #[test]
    fn sr_zero_random_bits_floors() {
        let fmt = FloatFormat::e5m2();
        let mode = Rounding::Stochastic { random_bits: 0 };
        for x in [1.1f32, -1.1, 3.9, -3.9] {
            assert_f32_matches(fmt, mode, x, 0);
        }
    }
}
