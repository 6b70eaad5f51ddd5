//! AVX-512 lane quantizers (the `SimdTier::Avx512` tier): the 8-lane
//! `f64` siblings of [`QuantVecF64`](crate::simd_avx2::QuantVecF64)
//! and [`FixedVecF64`](crate::simd_avx2::FixedVecF64), used by
//! `mpt-arith`'s AVX-512 MAC nest, and the 16-lane `f32`
//! [`QuantVecF32x16`] of its `f32`-lane nest for fused float MACs.
//! (Operand *slices* under this tier run the AVX2 kernels of
//! [`crate::simd_avx2`].)
//!
//! Each replays the scalar kernel's operation sequence per lane, so
//! results are **bit-identical** to every other tier. What the wider
//! ISA changes is the cost, not the arithmetic:
//!
//! * compares produce k-masks, and the rounding increment, the
//!   saturation select and the SR sign flip are masked operations
//!   instead of and/blend pairs;
//! * SplitMix64's two 64-bit multiplies are one `vpmullq` each (AVX2
//!   assembles them from three `vpmuludq`); the `f32` quantizer
//!   compares its draw on 32-bit lanes, packed from two 8×`u64` hash
//!   vectors with one `vpermt2d`;
//! * the sign merge is one `vpternlogq`;
//! * the fast-regime test is one unsigned range compare on the
//!   exponent field (on the `f32` quantizer, on the magnitude bits).
//!
//! The hand-back contract is the AVX2 one: `quantize8` (`quantize16`)
//! returns a mask of lanes whose result is valid, and the caller
//! recomputes the others through the scalar `quantize` of the same
//! kernel.
//!
//! Everything here requires AVX-512 F + DQ
//! ([`crate::simd::avx512_supported`], which also asks for VL on the
//! caller's behalf); callers sit behind that runtime check.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::fast::{mode, LanePlanF32, LanePlanF64};
use crate::fixed_fast::FixedFastF64;
use crate::rounding::Rounding;
use crate::sr::hash;

/// Lane-wise SplitMix64 finalizer, bit-identical to [`hash::mix`] per
/// 64-bit lane.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mix8(z: __m512i) -> __m512i {
    let z = premix8(z);
    _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
}

/// [`mix8`] without its final `z ^ (z >> 31)`, which cannot change the
/// top 31 bits of a lane: those bits of `premix8(z)` and `mix8(z)` are
/// equal.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn premix8(z: __m512i) -> __m512i {
    let z = _mm512_add_epi64(z, _mm512_set1_epi64(hash::MIX_ADD as i64));
    let z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)),
        _mm512_set1_epi64(hash::MIX_MUL_1 as i64),
    );
    _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)),
        _mm512_set1_epi64(hash::MIX_MUL_2 as i64),
    )
}

/// Broadcast [`LanePlanF64`] constants for the 8-lane `f64` AVX-512
/// quantizer, built once per kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct QuantVecF64x8 {
    abs_mask: __m512i,
    rem_mask: __m512i,
    half: __m512i,
    ts_bit: __m512i,
    /// Smallest exponent field inside the fast regime.
    lo: __m512i,
    /// `exp_mask_field - lo`: the fast regime is `lo <= field <
    /// exp_mask_field`, one unsigned compare after subtracting `lo`.
    span: __m512i,
    max_abs: __m512i,
    sat: __m512i,
    /// All lanes when the kept significand is always odd, else none.
    odd_force: __mmask8,
    or_bit: __m512i,
    sl_cnt: __m128i,
    sr_cnt: __m128i,
    rnd_cnt: __m128i,
}

impl QuantVecF64x8 {
    /// Broadcasts the plan constants into vector registers.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn new(plan: &LanePlanF64) -> Self {
        let ts_bit = _mm512_set1_epi64(plan.ts_bit as i64);
        QuantVecF64x8 {
            abs_mask: _mm512_set1_epi64(i64::MAX),
            rem_mask: _mm512_set1_epi64(plan.rem_mask as i64),
            half: _mm512_set1_epi64(plan.half as i64),
            ts_bit,
            lo: _mm512_set1_epi64(plan.lo_exp_field as i64),
            span: _mm512_set1_epi64((plan.exp_mask_field - plan.lo_exp_field) as i64),
            max_abs: _mm512_set1_epi64(plan.max_abs_bits as i64),
            sat: _mm512_set1_epi64(plan.sat_bits as i64),
            odd_force: if plan.implicit_odd { 0xFF } else { 0 },
            or_bit: if plan.implicit_odd {
                _mm512_setzero_si512()
            } else {
                ts_bit
            },
            sl_cnt: _mm_cvtsi32_si128(plan.rb.saturating_sub(plan.ts) as i32),
            sr_cnt: _mm_cvtsi32_si128(plan.ts.saturating_sub(plan.rb) as i32),
            rnd_cnt: _mm_cvtsi32_si128(64 - plan.rb as i32),
        }
    }

    /// Quantizes 8 `f64` lanes; returns the results and the mask of
    /// lanes that were *inside* the fast regime (bit `i` set ⇒ lane
    /// `i`'s result is valid; clear ⇒ the caller must recompute that
    /// lane through the scalar path).
    ///
    /// `hash_input` carries `seed ^ event_index·INDEX_MUL` per lane
    /// (only read under SR). Bit-identical to
    /// [`crate::FloatFastF64::quantize`] on fast-regime lanes.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn quantize8<const MODE: u8>(
        &self,
        x: __m512d,
        hash_input: __m512i,
    ) -> (__m512d, __mmask8) {
        let bits = _mm512_castpd_si512(x);
        let abs = _mm512_and_si512(bits, self.abs_mask);
        // Zero, carrier subnormals and target-subnormal-range values
        // wrap below `lo`; inf/NaN sit at `lo + span`.
        let ef = _mm512_srli_epi64::<52>(abs);
        let fast = _mm512_cmplt_epu64_mask(_mm512_sub_epi64(ef, self.lo), self.span);
        let rem = _mm512_and_si512(abs, self.rem_mask);
        let q = _mm512_andnot_si512(self.rem_mask, abs);
        let y = match MODE {
            mode::RZ => q,
            mode::RN => {
                let gt = _mm512_cmpgt_epu64_mask(rem, self.half);
                let eq = _mm512_cmpeq_epu64_mask(rem, self.half);
                let odd = _mm512_test_epi64_mask(abs, self.ts_bit) | self.odd_force;
                _mm512_mask_add_epi64(q, gt | (eq & odd), q, self.ts_bit)
            }
            mode::RO => {
                let inexact = _mm512_test_epi64_mask(rem, rem);
                _mm512_mask_or_epi64(q, inexact, q, self.or_bit)
            }
            mode::SR => {
                // Discarded fraction of the *signed* value: `rem` for
                // positive lanes, `2^ts - rem` for negative ones (see
                // `simd_avx2::sr_up4`); `vpsrlq` yields 0 for counts
                // ≥ 64, which is the scalar `rb == 0 → 0 bits` branch.
                let neg = _mm512_movepi64_mask(bits);
                let r = _mm512_mask_sub_epi64(rem, neg, self.ts_bit, rem);
                let frac = _mm512_srl_epi64(_mm512_sll_epi64(r, self.sl_cnt), self.sr_cnt);
                let rnd = _mm512_srl_epi64(mix8(hash_input), self.rnd_cnt);
                let toward_pos_inf = _mm512_cmpgt_epu64_mask(frac, rnd);
                _mm512_mask_add_epi64(q, toward_pos_inf ^ neg, q, self.ts_bit)
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let over = _mm512_cmpgt_epu64_mask(y, self.max_abs);
        let out = _mm512_mask_mov_epi64(y, over, self.sat);
        // Magnitude bits from `out`, sign bit from the input:
        // `abs_mask ? out : bits`.
        let res = _mm512_ternarylogic_epi64::<0xE2>(out, self.abs_mask, bits);
        (_mm512_castsi512_pd(res), fast)
    }
}

/// Broadcast [`LanePlanF32`] constants for the 16-lane `f32` AVX-512
/// quantizer, built once per kernel invocation — the quantizer of
/// `mpt-arith`'s fused-float `f32` MAC nest, with the
/// [`quantize8`](QuantVecF64x8::quantize8) contract on twice the
/// lanes.
///
/// On `f32` inputs it equals [`crate::FloatFastF64::quantize`] (and
/// [`crate::FloatFastF32::quantize`]) lane for lane: in the fast
/// regime both carriers hold the value exactly and round it to the
/// same format point, and the SR draw is the same top `rb` bits of
/// the same SplitMix64 word. The draw is compared on 32-bit lanes,
/// which is why stochastic plans are limited to
/// [`MAX_RANDOM_BITS`](Self::MAX_RANDOM_BITS).
#[derive(Debug, Clone, Copy)]
pub struct QuantVecF32x16 {
    rem_mask: __m512i,
    half: __m512i,
    ts_bit: __m512i,
    /// `lo_exp_field << 23`: the smallest fast-regime magnitude bits.
    lo: __m512i,
    /// `(exp_mask_field - lo_exp_field) << 23`: the fast regime is
    /// `lo <= abs < lo + span`, one unsigned compare after subtracting
    /// `lo`, with no exponent shift.
    span: __m512i,
    max_abs: __m512i,
    sat: __m512i,
    /// All lanes when the kept significand is always odd, else none.
    odd_force: __mmask16,
    or_bit: __m512i,
    /// `31 - ts`: aligns the discarded fraction to bit 31.
    frac_cnt: __m128i,
    /// `!0 << (31 - rb)`: the fraction's top `rb` bits.
    rb_mask: __m512i,
}

impl QuantVecF32x16 {
    /// The most SR random bits the 32-bit draw compare can hold.
    pub const MAX_RANDOM_BITS: u32 = 31;

    /// Broadcasts the plan constants into vector registers.
    ///
    /// # Panics
    ///
    /// Panics if `plan.rb` exceeds
    /// [`MAX_RANDOM_BITS`](Self::MAX_RANDOM_BITS).
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn new(plan: &LanePlanF32) -> Self {
        assert!(
            plan.rb <= Self::MAX_RANDOM_BITS,
            "{} random bits do not fit the 32-bit SR compare",
            plan.rb
        );
        let ts_bit = _mm512_set1_epi32(plan.ts_bit as i32);
        QuantVecF32x16 {
            rem_mask: _mm512_set1_epi32(plan.rem_mask as i32),
            half: _mm512_set1_epi32(plan.half as i32),
            ts_bit,
            lo: _mm512_set1_epi32((plan.lo_exp_field << 23) as i32),
            span: _mm512_set1_epi32(((plan.exp_mask_field - plan.lo_exp_field) << 23) as i32),
            max_abs: _mm512_set1_epi32(plan.max_abs_bits as i32),
            sat: _mm512_set1_epi32(plan.sat_bits as i32),
            odd_force: if plan.implicit_odd { 0xFFFF } else { 0 },
            or_bit: if plan.implicit_odd {
                _mm512_setzero_si512()
            } else {
                ts_bit
            },
            frac_cnt: _mm_cvtsi32_si128(31 - plan.ts as i32),
            rb_mask: _mm512_set1_epi32((!0u32 << (31 - plan.rb)) as i32),
        }
    }

    /// Quantizes 16 `f32` lanes; returns the results and the mask of
    /// lanes that were *inside* the fast regime or zero (bit `i` set ⇒
    /// lane `i`'s result is valid; clear ⇒ the caller must recompute
    /// that lane through the scalar path).
    ///
    /// `hash_lo` and `hash_hi` carry `seed ^ event_index·INDEX_MUL`
    /// for lanes 0–7 and 8–15 (only read under SR). Bit-identical to
    /// [`crate::FloatFastF64::quantize`] of the widened lane on valid
    /// lanes.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn quantize16<const MODE: u8>(
        &self,
        x: __m512,
        hash_lo: __m512i,
        hash_hi: __m512i,
    ) -> (__m512, __mmask16) {
        let bits = _mm512_castps_si512(x);
        let abs_mask = _mm512_set1_epi32(i32::MAX);
        let abs = _mm512_and_si512(bits, abs_mask);
        // Subnormals and target-subnormal-range values wrap below
        // `lo`; inf/NaN sit at `lo + span` and above. ±0 rounds to
        // itself in every mode, and that is what the lane arithmetic
        // below yields for it (`rem == 0`; see `simd_avx2`), so zeros
        // — sums that cancel — are valid too.
        let fast = _mm512_cmplt_epu32_mask(_mm512_sub_epi32(abs, self.lo), self.span)
            | _mm512_testn_epi32_mask(abs, abs);
        let rem = _mm512_and_si512(abs, self.rem_mask);
        let q = _mm512_andnot_si512(self.rem_mask, abs);
        let y = match MODE {
            mode::RZ => q,
            mode::RN => {
                let gt = _mm512_cmpgt_epu32_mask(rem, self.half);
                let eq = _mm512_cmpeq_epu32_mask(rem, self.half);
                let odd = _mm512_test_epi32_mask(abs, self.ts_bit) | self.odd_force;
                _mm512_mask_add_epi32(q, gt | (eq & odd), q, self.ts_bit)
            }
            mode::RO => {
                let inexact = _mm512_test_epi32_mask(rem, rem);
                _mm512_mask_or_epi32(q, inexact, q, self.or_bit)
            }
            mode::SR => {
                // Discarded fraction of the *signed* value (`rem`, or
                // `2^ts - rem` for negative lanes), top-aligned to bit
                // 31 and cut to `rb` bits: `frac_bits << (31 - rb)`.
                let neg = _mm512_movepi32_mask(bits);
                let r = _mm512_mask_sub_epi32(rem, neg, self.ts_bit, rem);
                let frac = _mm512_and_si512(_mm512_sll_epi32(r, self.frac_cnt), self.rb_mask);
                // The draw `mix >> (64 - rb)`, top-aligned the same
                // way, is bits 63..33 of the mixed word, which equal
                // those of the pre-final-shift word: gather each
                // lane's high dword and drop its low bit. `frac` is a
                // multiple of `2^(31 - rb)`, so `frac > z >> 33`
                // exactly when `frac_bits > draw`.
                let high_dwords =
                    _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1);
                let z = _mm512_permutex2var_epi32(premix8(hash_lo), high_dwords, premix8(hash_hi));
                let toward_pos_inf = _mm512_cmpgt_epu32_mask(frac, _mm512_srli_epi32::<1>(z));
                _mm512_mask_add_epi32(q, toward_pos_inf ^ neg, q, self.ts_bit)
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let over = _mm512_cmpgt_epu32_mask(y, self.max_abs);
        let out = _mm512_mask_mov_epi32(y, over, self.sat);
        // Magnitude bits from `out`, sign bit from the input.
        let res = _mm512_ternarylogic_epi32::<0xE2>(out, abs_mask, bits);
        (_mm512_castsi512_ps(res), fast)
    }
}

/// [`QuantVecF32x16::quantize16`] over arrays, behind the runtime
/// feature check: lane `l` of `xs` rounds with SR hash input
/// `hash_input[l]` ([`crate::SrRng::hash_input`] of its event index).
/// Returns the results and the valid-lane mask, or `None` when the
/// host lacks AVX-512 F + DQ, the rounding is `NR` or the plan draws
/// more than [`QuantVecF32x16::MAX_RANDOM_BITS`]. For differential
/// tests; the MAC nest calls the vector form.
pub fn quantize16_f32(
    plan: &LanePlanF32,
    rounding: Rounding,
    xs: &[f32; 16],
    hash_input: &[u64; 16],
) -> Option<([f32; 16], u16)> {
    if !crate::simd::avx512_supported() || plan.rb > QuantVecF32x16::MAX_RANDOM_BITS {
        return None;
    }
    // SAFETY: AVX-512 F + DQ availability checked just above; the
    // loads and stores cover exactly the 16-element arrays.
    unsafe {
        let qv = QuantVecF32x16::new(plan);
        let x = _mm512_loadu_ps(xs.as_ptr());
        let h_lo = _mm512_loadu_si512(hash_input.as_ptr().cast());
        let h_hi = _mm512_loadu_si512(hash_input[8..].as_ptr().cast());
        let (res, ok) = crate::with_mode!(
            rounding,
            M => qv.quantize16::<M>(x, h_lo, h_hi),
            return None
        );
        let mut out = [0f32; 16];
        _mm512_storeu_ps(out.as_mut_ptr(), res);
        Some((out, ok))
    }
}

/// Broadcast [`FixedFastF64`] constants for the 8-lane fixed-point
/// AVX-512 quantizer — the fixed-point sibling of [`QuantVecF64x8`],
/// with the same `quantize8` contract. The lane body is the oracle's
/// own float sequence on vectors: scale, clamp, round to integer
/// (`vrndscalepd`), scale back.
#[derive(Debug, Clone, Copy)]
pub struct FixedVecF64x8 {
    scale: __m512d,
    inv: __m512d,
    code_min: __m512d,
    code_max: __m512d,
    sr_scale: __m512d,
    rnd_cnt: __m128i,
}

impl FixedVecF64x8 {
    /// Broadcasts the quantizer constants into vector registers.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn new(fast: &FixedFastF64) -> Self {
        FixedVecF64x8 {
            scale: _mm512_set1_pd(fast.scale),
            inv: _mm512_set1_pd(fast.inv),
            code_min: _mm512_set1_pd(fast.code_min),
            code_max: _mm512_set1_pd(fast.code_max),
            sr_scale: _mm512_set1_pd(fast.sr_scale),
            rnd_cnt: _mm_cvtsi32_si128(64 - fast.rb as i32),
        }
    }

    /// Quantizes 8 `f64` lanes; returns the results and the mask of
    /// lanes whose result is valid (finite inputs) — the caller
    /// recomputes the others through [`FixedFastF64::quantize`].
    /// `hash_input` carries `seed ^ event_index·INDEX_MUL` per lane
    /// (only read under SR). Bit-identical to the scalar kernel on
    /// valid lanes.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn quantize8<const MODE: u8>(
        &self,
        x: __m512d,
        hash_input: __m512i,
    ) -> (__m512d, __mmask8) {
        const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
        let one = _mm512_set1_pd(1.0);
        let y = _mm512_mul_pd(x, self.scale);
        let y = _mm512_min_pd(_mm512_max_pd(y, self.code_min), self.code_max);
        let code = match MODE {
            mode::RN => {
                // `vrndscalepd` keeps the sign of zero on [-0.5, 0);
                // the oracle returns +0.0 at exactly -0.5 (see
                // `fixed_fast`).
                let r = _mm512_roundscale_pd::<NEAREST>(y);
                let quirk = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(y, _mm512_set1_pd(-0.5));
                _mm512_maskz_mov_pd(!quirk, r)
            }
            mode::RZ => _mm512_roundscale_pd::<TRUNC>(y),
            mode::RO => {
                let t = _mm512_roundscale_pd::<TRUNC>(y);
                let h = _mm512_mul_pd(t, _mm512_set1_pd(0.5));
                let even = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(_mm512_roundscale_pd::<TRUNC>(h), h);
                let inexact = _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(t, y);
                // ±1.0 carrying y's sign: one step away from zero.
                let sign = _mm512_and_pd(y, _mm512_set1_pd(-0.0));
                _mm512_mask_add_pd(t, inexact & even, t, _mm512_or_pd(one, sign))
            }
            mode::SR => {
                let t = _mm512_roundscale_pd::<FLOOR>(y);
                let frac = _mm512_mul_pd(_mm512_sub_pd(y, t), self.sr_scale);
                let frac_bits = _mm512_roundscale_pd::<FLOOR>(frac);
                // At most 53 random bits: the `u64 → f64` conversion is
                // exact, and so is the compare against `frac_bits`.
                let rnd = _mm512_srl_epi64(mix8(hash_input), self.rnd_cnt);
                let up = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(frac_bits, _mm512_cvtepu64_pd(rnd));
                _mm512_mask_add_pd(t, up, t, one)
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let finite =
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(x), _mm512_set1_pd(f64::INFINITY));
        (_mm512_mul_pd(code, self.inv), finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::FloatFastF64;
    use crate::fixed::FixedFormat;
    use crate::float::FloatFormat;
    use crate::rounding::Rounding;
    use crate::simd::avx512_supported;
    use crate::sr::SrRng;
    use crate::with_mode;

    fn modes(random_bits: u32) -> [Rounding; 4] {
        [
            Rounding::Nearest,
            Rounding::TowardZero,
            Rounding::Stochastic { random_bits },
            Rounding::ToOdd,
        ]
    }

    /// Sums an accumulator would see, with every hand-back class —
    /// zero, carrier subnormal, target subnormal, ±inf, NaN — walking
    /// through every lane position as `block` advances.
    fn sample(block: u64, lane: usize) -> f64 {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            1.0e-12,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.5 / 16.0,
            1.0e9,
        ];
        if (block as usize + lane).is_multiple_of(3) {
            specials[(block as usize / 3 + lane) % specials.len()]
        } else {
            ((block as f64) - 150.0) * 0.731 + (lane as f64) * 0.0913
        }
    }

    /// `quantize8` of `xs` at `indices`, as `(results, valid mask)`.
    unsafe fn run8<F>(xs: [f64; 8], hash: [u64; 8], f: F) -> ([f64; 8], u8)
    where
        F: FnOnce(__m512d, __m512i) -> (__m512d, __mmask8),
    {
        let (res, ok) = f(
            _mm512_loadu_pd(xs.as_ptr()),
            _mm512_loadu_si512(hash.as_ptr().cast()),
        );
        let mut out = [0f64; 8];
        _mm512_storeu_pd(out.as_mut_ptr(), res);
        (out, ok)
    }

    #[test]
    fn float_quantize8_matches_scalar_and_hands_back_the_slow_regime() {
        if !avx512_supported() {
            return;
        }
        for (fmt, rb) in [
            (FloatFormat::e6m5(), 10),
            (FloatFormat::e5m10().with_infinities(), 53),
            (FloatFormat::new(5, 0).unwrap(), 0),
            (FloatFormat::new(8, 30).unwrap().without_subnormals(), 7),
        ] {
            for rounding in modes(rb) {
                let rng = SrRng::new(0x5eed_0000_0007);
                let fast = FloatFastF64::new(fmt, rounding, rng).unwrap();
                let plan = fast.lane_plan().unwrap();
                for block in 0..300u64 {
                    let xs: [f64; 8] = core::array::from_fn(|l| sample(block, l));
                    // Structured like `sr_event_index`: far from
                    // consecutive.
                    let idxs: [u64; 8] =
                        core::array::from_fn(|l| (block << 42) | ((l as u64) << 22) | 1);
                    let hash = idxs.map(|i| rng.hash_input(i));
                    // SAFETY: AVX-512 support checked above.
                    let (out, ok) = unsafe {
                        let qv = QuantVecF64x8::new(&plan);
                        with_mode!(
                            rounding,
                            M => run8(xs, hash, |x, h| qv.quantize8::<M>(x, h)),
                            unreachable!()
                        )
                    };
                    for l in 0..8 {
                        let x = xs[l];
                        let slow = x == 0.0 || !x.is_normal() || x.abs() < fmt.min_normal();
                        assert_eq!(ok & (1 << l) == 0, slow, "{fmt}-{rounding} x {x:e}");
                        if !slow {
                            let want = fast.quantize_dyn(x, idxs[l]);
                            assert_eq!(
                                out[l].to_bits(),
                                want.to_bits(),
                                "{fmt}-{rounding} block {block} lane {l} x {x:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_quantize8_matches_scalar_and_hands_back_non_finite_lanes() {
        if !avx512_supported() {
            return;
        }
        for (fmt, rb) in [
            (FixedFormat::fxp4_4(), 10),
            (FixedFormat::fxp8_8(), 53),
            (FixedFormat::new(20, 32).unwrap(), 0),
        ] {
            for rounding in modes(rb) {
                let rng = SrRng::new(u64::MAX - 3);
                let fast = FixedFastF64::new(fmt, rounding, rng).unwrap();
                for block in 0..300u64 {
                    let xs: [f64; 8] = core::array::from_fn(|l| sample(block, l));
                    let idxs: [u64; 8] =
                        core::array::from_fn(|l| (block << 42) | ((l as u64) << 22));
                    let hash = idxs.map(|i| rng.hash_input(i));
                    // SAFETY: AVX-512 support checked above.
                    let (out, ok) = unsafe {
                        let qv = FixedVecF64x8::new(&fast);
                        with_mode!(
                            rounding,
                            M => run8(xs, hash, |x, h| qv.quantize8::<M>(x, h)),
                            unreachable!()
                        )
                    };
                    for l in 0..8 {
                        assert_eq!(ok & (1 << l) != 0, xs[l].is_finite());
                        if xs[l].is_finite() {
                            let want = fast.quantize_dyn(xs[l], idxs[l]);
                            assert_eq!(
                                out[l].to_bits(),
                                want.to_bits(),
                                "{fmt}-{rounding} block {block} lane {l} x {:e}",
                                xs[l]
                            );
                        }
                    }
                }
            }
        }
    }
}
