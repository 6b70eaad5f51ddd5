//! AVX-512 lane quantizers (the `SimdTier::Avx512` tier): 16 `f32`
//! lanes per vector, one quantizer per format family —
//! [`QuantVecF32x16`] for floats and [`FixedVecF32x16`] for fixed
//! point — used by `mpt-arith`'s MAC nest at its 16-lane width. They
//! are the 16-lane twins of [`crate::simd_avx2`]'s `QuantVecF32x8` and
//! `FixedVecF32x8`, which the same nest runs at 8 lanes. (Operand
//! *slices* under this tier run the AVX2 kernels.)
//!
//! Each replays the scalar kernel's operation sequence per lane, so
//! results are **bit-identical** to every other tier on `f32` inputs.
//! What the wider ISA changes is the cost, not the arithmetic:
//!
//! * compares produce k-masks, and the rounding increment, the
//!   saturation select and the SR sign flip are masked operations
//!   instead of and/blend pairs;
//! * SplitMix64's two 64-bit multiplies are one `vpmullq` each (AVX2
//!   assembles them from three `vpmuludq`), and the draws are compared
//!   on 32-bit lanes, packed from two 8×`u64` hash vectors with one
//!   `vpermt2d` — which is why stochastic rounding is limited to
//!   [`MAX_RANDOM_BITS`] (on both widths);
//! * the sign merge is one `vpternlogd`;
//! * the float fast-regime test is one unsigned range compare on the
//!   magnitude bits.
//!
//! The hand-back contract is the one of both widths: `quantize16`
//! returns a mask of lanes whose result is valid, and the caller
//! recomputes the others through the scalar `quantize` of the same
//! kernel.
//!
//! Everything here requires AVX-512 F + DQ
//! ([`crate::simd::avx512_supported`], which also asks for VL on the
//! caller's behalf); callers sit behind that runtime check.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::fast::{mode, LanePlanF32};
use crate::fixed_fast::FixedFastF64;
use crate::rounding::Rounding;
use crate::simd::MAX_RANDOM_BITS;
use crate::sr::hash;

/// Bits 63..32 of each lane's SplitMix64 word, before its final
/// `z ^ (z >> 31)` — lanes 0–7 from the hash inputs `lo`, 8–15 from
/// `hi`. The final xor-shift reaches down from bit 63 to bit 32 only,
/// so bits 63..33 of the result are those of the finished word: every
/// draw of at most [`MAX_RANDOM_BITS`] bits, top-aligned.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn draws16(lo: __m512i, hi: __m512i) -> __m512i {
    let premix = |z: __m512i| {
        let z = _mm512_add_epi64(z, _mm512_set1_epi64(hash::MIX_ADD as i64));
        let z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)),
            _mm512_set1_epi64(hash::MIX_MUL_1 as i64),
        );
        _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)),
            _mm512_set1_epi64(hash::MIX_MUL_2 as i64),
        )
    };
    let high_dwords = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1);
    _mm512_permutex2var_epi32(premix(lo), high_dwords, premix(hi))
}

/// Broadcast [`LanePlanF32`] constants for the 16-lane `f32` AVX-512
/// quantizer, built once per kernel invocation — the float quantizer
/// of `mpt-arith`'s AVX-512 MAC nest.
///
/// On `f32` inputs it equals [`crate::FloatFastF64::quantize`] (and
/// [`crate::FloatFastF32::quantize`]) lane for lane: in the fast
/// regime both carriers hold the value exactly and round it to the
/// same format point, and the SR draw is the same top `rb` bits of
/// the same SplitMix64 word. The draw is compared on 32-bit lanes,
/// which is why stochastic plans are limited to [`MAX_RANDOM_BITS`].
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
    /// Broadcasts the plan constants into vector registers.
    ///
    /// # Panics
    ///
    /// Panics if `plan.rb` exceeds [`MAX_RANDOM_BITS`].
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn new(plan: &LanePlanF32) -> Self {
        assert!(
            plan.rb <= MAX_RANDOM_BITS,
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
                // way, is bits 63..33 of the mixed word. `frac` is a
                // multiple of `2^(31 - rb)`, so `frac > draws >> 1`
                // exactly when `frac_bits > draw`.
                let draws = draws16(hash_lo, hash_hi);
                let toward_pos_inf = _mm512_cmpgt_epu32_mask(frac, _mm512_srli_epi32::<1>(draws));
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
/// more than [`MAX_RANDOM_BITS`]. For differential tests; the MAC nest
/// calls the vector form.
pub fn quantize16_f32(
    plan: &LanePlanF32,
    rounding: Rounding,
    xs: &[f32; 16],
    hash_input: &[u64; 16],
) -> Option<([f32; 16], u16)> {
    if !crate::simd::avx512_supported() || plan.rb > MAX_RANDOM_BITS {
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

/// Broadcast [`FixedFastF64`] constants for the 16-lane `f32`
/// fixed-point quantizer — the fixed-point quantizer of `mpt-arith`'s
/// AVX-512 MAC nest, with the [`QuantVecF32x16::quantize16`] contract.
/// The lane body is the oracle's own float sequence on vectors: scale
/// by `2^f`, clamp, round to integer (`vrndscaleps`), scale back.
///
/// On `f32` inputs it equals [`FixedFastF64::quantize`] lane for lane
/// wherever [`FixedFastF64::f32_lanes`] holds: scaling by `2^f` is
/// exact (or overflows to ±inf, which the clamp takes to the same
/// code as the finite `f64` value), and the clamp bounds, every code
/// of at most 24 bits and every integer step between codes are `f32`
/// values. The one step `f32` cannot always hold is SR's discarded
/// fraction `y − floor(y)`: for `y` in `(-1, 0)` it is `1 − |y|`, which
/// needs more than 24 bits when `|y|` is finer than `2^-24`, and the
/// scalar body rounds it to 53. So the fraction is taken in `f64`, as
/// there, and its `rb`-bit truncation compared with the draw on
/// integer lanes — no random bit passes through an inexact
/// `u32 → f32` conversion.
#[derive(Debug, Clone, Copy)]
pub struct FixedVecF32x16 {
    scale: __m512,
    inv: __m512,
    code_min: __m512,
    code_max: __m512,
    sr_scale: __m512d,
    /// `32 - rb`: shifts a top-aligned draw down to its `rb` bits.
    rnd_cnt: __m128i,
}

impl FixedVecF32x16 {
    /// Broadcasts the quantizer constants into vector registers.
    ///
    /// # Panics
    ///
    /// Panics unless [`FixedFastF64::f32_lanes`] holds for `fast`.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub unsafe fn new(fast: &FixedFastF64) -> Self {
        assert!(
            fast.f32_lanes(),
            "{} with {} random bits does not fit the f32 lanes",
            fast.format(),
            fast.rb
        );
        FixedVecF32x16 {
            scale: _mm512_set1_ps(fast.scale as f32),
            inv: _mm512_set1_ps(fast.inv as f32),
            code_min: _mm512_set1_ps(fast.code_min as f32),
            code_max: _mm512_set1_ps(fast.code_max as f32),
            sr_scale: _mm512_set1_pd(fast.sr_scale),
            rnd_cnt: _mm_cvtsi32_si128(32 - fast.rb as i32),
        }
    }

    /// Quantizes 16 `f32` lanes; returns the results and the mask of
    /// lanes whose result is valid (finite inputs) — the caller
    /// recomputes the others through [`FixedFastF64::quantize`].
    /// `hash_lo` and `hash_hi` carry `seed ^ event_index·INDEX_MUL`
    /// for lanes 0–7 and 8–15 (only read under SR).
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
        const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
        let one = _mm512_set1_ps(1.0);
        let y = _mm512_mul_ps(x, self.scale);
        let y = _mm512_min_ps(_mm512_max_ps(y, self.code_min), self.code_max);
        let code = match MODE {
            mode::RN => {
                // `vrndscaleps` keeps the sign of zero on [-0.5, 0);
                // the oracle returns +0.0 at exactly -0.5 (see
                // `fixed_fast`).
                let r = _mm512_roundscale_ps::<NEAREST>(y);
                let quirk = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(y, _mm512_set1_ps(-0.5));
                _mm512_maskz_mov_ps(!quirk, r)
            }
            mode::RZ => _mm512_roundscale_ps::<TRUNC>(y),
            mode::RO => {
                let t = _mm512_roundscale_ps::<TRUNC>(y);
                let h = _mm512_mul_ps(t, _mm512_set1_ps(0.5));
                let even = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(_mm512_roundscale_ps::<TRUNC>(h), h);
                let inexact = _mm512_cmp_ps_mask::<_CMP_NEQ_OQ>(t, y);
                // ±1.0 carrying y's sign: one step away from zero.
                let sign = _mm512_and_ps(y, _mm512_set1_ps(-0.0));
                _mm512_mask_add_ps(t, inexact & even, t, _mm512_or_ps(one, sign))
            }
            mode::SR => {
                let t = _mm512_roundscale_ps::<FLOOR>(y);
                // `(y - t) · 2^rb` in `f64` for 8 lanes; it is below
                // `2^rb ≤ 2^31`, so its truncation converts exactly.
                let frac_bits8 = |y: __m256, t: __m256| {
                    let frac = _mm512_sub_pd(_mm512_cvtps_pd(y), _mm512_cvtps_pd(t));
                    _mm512_cvttpd_epu32(_mm512_mul_pd(frac, self.sr_scale))
                };
                let lo = frac_bits8(_mm512_castps512_ps256(y), _mm512_castps512_ps256(t));
                let hi = frac_bits8(
                    _mm512_extractf32x8_ps::<1>(y),
                    _mm512_extractf32x8_ps::<1>(t),
                );
                let frac_bits = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi);
                let rnd = _mm512_srl_epi32(draws16(hash_lo, hash_hi), self.rnd_cnt);
                let up = _mm512_cmpgt_epu32_mask(frac_bits, rnd);
                _mm512_mask_add_ps(t, up, t, one)
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let finite =
            _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(x), _mm512_set1_ps(f32::INFINITY));
        (_mm512_mul_ps(code, self.inv), finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedFormat;
    use crate::simd::avx512_supported;
    use crate::sr::SrRng;
    use crate::with_mode;

    /// Values an accumulator would see, with the non-finite hand-back
    /// classes, zeros, the RN `-0.5` tie, saturating magnitudes and
    /// negative values within one code of zero whose SR fraction
    /// needs more than `f32`'s bits (the last one rounds to a 31-bit
    /// boundary in `f64`) walking through every lane position as
    /// `block` advances.
    fn sample(fmt: FixedFormat, block: u64, lane: usize) -> f32 {
        let res = fmt.resolution() as f32;
        let specials = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            -(1.0 + f32::EPSILON) * 2.0f32.powi(-31) * res,
            -0.5 * res,
            -0.25 * res,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0e9,
            -1.0e30,
        ];
        if (block as usize + lane).is_multiple_of(3) {
            specials[(block as usize / 3 + lane) % specials.len()]
        } else {
            ((block as f32) - 150.0) * 0.731 + (lane as f32) * 0.0913
        }
    }

    #[test]
    fn fixed_quantize16_matches_scalar_and_hands_back_non_finite_lanes() {
        if !avx512_supported() {
            return;
        }
        for (fmt, rb) in [
            (FixedFormat::fxp4_4(), 10),
            (FixedFormat::fxp8_8(), MAX_RANDOM_BITS),
            (FixedFormat::new(8, 16).unwrap(), 0),
        ] {
            for rounding in [
                Rounding::Nearest,
                Rounding::TowardZero,
                Rounding::Stochastic { random_bits: rb },
                Rounding::ToOdd,
            ] {
                let rng = SrRng::new(u64::MAX - 3);
                let fast = FixedFastF64::new(fmt, rounding, rng).unwrap();
                for block in 0..300u64 {
                    let xs: [f32; 16] = core::array::from_fn(|l| sample(fmt, block, l));
                    let idxs: [u64; 16] =
                        core::array::from_fn(|l| (block << 42) | ((l as u64) << 22));
                    let hash = idxs.map(|i| rng.hash_input(i));
                    let mut out = [0f32; 16];
                    // SAFETY: AVX-512 support checked above; loads and
                    // stores stay inside the 16-element arrays.
                    let ok = unsafe {
                        let qv = FixedVecF32x16::new(&fast);
                        let (x, lo, hi) = (
                            _mm512_loadu_ps(xs.as_ptr()),
                            _mm512_loadu_si512(hash.as_ptr().cast()),
                            _mm512_loadu_si512(hash[8..].as_ptr().cast()),
                        );
                        let (r, ok) = with_mode!(
                            rounding,
                            M => qv.quantize16::<M>(x, lo, hi),
                            unreachable!()
                        );
                        _mm512_storeu_ps(out.as_mut_ptr(), r);
                        ok
                    };
                    for l in 0..16 {
                        assert_eq!(ok & (1 << l) != 0, xs[l].is_finite());
                        if xs[l].is_finite() {
                            let want = fast.quantize_dyn(xs[l] as f64, idxs[l]);
                            assert_eq!(
                                (out[l] as f64).to_bits(),
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
