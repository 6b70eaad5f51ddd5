//! The `SimdTier::Avx512` width: 16 `f32` lanes, k-masks, AVX-512 F +
//! DQ + VL ([`crate::simd::avx512_supported`]). The lane kernels are
//! written once in [`crate::lanes`] and `mpt-arith`; what the wider ISA
//! changes is the cost, not the arithmetic:
//!
//! * compares produce k-masks, and the rounding increment, the
//!   saturation select and the SR sign flip are masked operations;
//! * SplitMix64's two 64-bit multiplies are one `vpmullq` each, and the
//!   draws of two 8×`u64` hash vectors are packed with one `vpermt2d`;
//! * the sign merge is one `vpternlogd`, and the float fast-regime
//!   test one unsigned range compare on the magnitude bits.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::simd::{width_impl, Width};
use crate::sr::hash;

/// The `avx512` tier's width: 16 lanes, k-masks.
#[derive(Debug, Clone, Copy)]
pub struct Avx512;

/// Bits 63..32 of each lane's SplitMix64 word before its final
/// `z ^ (z >> 31)`, lanes 0–7 from `lo` and 8–15 from `hi`.
#[inline(always)]
unsafe fn premix_high(lo: __m512i, hi: __m512i) -> __m512i {
    let high_dwords = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1);
    _mm512_permutex2var_epi32(premix(lo), high_dwords, premix(hi))
}

/// SplitMix64 up to its final xor-shift, per 64-bit lane.
#[inline(always)]
unsafe fn premix(z: __m512i) -> __m512i {
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

/// `(y − t) · scale` in `f64` for 8 lanes, truncated.
#[inline(always)]
unsafe fn fraction8(y: __m256, t: __m256, scale: __m512d) -> __m256i {
    let frac = _mm512_sub_pd(_mm512_cvtps_pd(y), _mm512_cvtps_pd(t));
    _mm512_cvttpd_epu32(_mm512_mul_pd(frac, scale))
}

impl Width for Avx512 {
    const N: usize = 16;
    type V = __m512;
    type I = __m512i;
    type K = __mmask16;
    type H = __m512i;

    fn supported() -> bool {
        crate::simd::avx512_supported()
    }

    width_impl! {
        features = "avx512f,avx512dq,avx512vl";
        fn prefix(n: usize) -> __mmask16 = ((1u32 << n) - 1) as __mmask16;
        fn none(k: __mmask16) -> bool = k == 0;
        fn bits(k: __mmask16) -> u32 = k as u32;
        fn and(a: __mmask16, b: __mmask16) -> __mmask16 = a & b;
        fn andn(a: __mmask16, b: __mmask16) -> __mmask16 = !a & b;
        fn or(a: __mmask16, b: __mmask16) -> __mmask16 = a | b;
        fn xor(a: __mmask16, b: __mmask16) -> __mmask16 = a ^ b;

        fn splat(x: f32) -> __m512 = _mm512_set1_ps(x);
        fn load(k: __mmask16, p: *const f32) -> __m512 = _mm512_maskz_loadu_ps(k, p);
        fn store(k: __mmask16, p: *mut f32, v: __m512) -> () = _mm512_mask_storeu_ps(p, k, v);
        fn loadu(p: *const f32) -> __m512 = _mm512_loadu_ps(p);
        fn storeu(p: *mut f32, v: __m512) -> () = _mm512_storeu_ps(p, v);
        fn mul(a: __m512, b: __m512) -> __m512 = _mm512_mul_ps(a, b);
        fn add(a: __m512, b: __m512) -> __m512 = _mm512_add_ps(a, b);
        fn sub(a: __m512, b: __m512) -> __m512 = _mm512_sub_ps(a, b);
        fn fmsub(a: __m512, b: __m512, c: __m512) -> __m512 = _mm512_fmsub_ps(a, b, c);
        fn abs(a: __m512) -> __m512 = _mm512_abs_ps(a);
        fn min(a: __m512, b: __m512) -> __m512 = _mm512_min_ps(a, b);
        fn max(a: __m512, b: __m512) -> __m512 = _mm512_max_ps(a, b);
        fn round<const R: i32>(a: __m512) -> __m512 = _mm512_roundscale_ps::<R>(a);
        fn cmp<const P: i32>(k: __mmask16, a: __m512, b: __m512) -> __mmask16
            = _mm512_mask_cmp_ps_mask::<P>(k, a, b);
        fn select(a: __m512, k: __mmask16, b: __m512) -> __m512 = _mm512_mask_mov_ps(a, k, b);
        fn mask_add(a: __m512, k: __mmask16, b: __m512) -> __m512 = _mm512_mask_add_ps(a, k, a, b);
        fn clear(k: __mmask16, a: __m512) -> __m512 = _mm512_maskz_mov_ps(!k, a);

        fn to_bits(a: __m512) -> __m512i = _mm512_castps_si512(a);
        fn from_bits(a: __m512i) -> __m512 = _mm512_castsi512_ps(a);
        fn splat_i(x: u32) -> __m512i = _mm512_set1_epi32(x as i32);
        fn and_i(a: __m512i, b: __m512i) -> __m512i = _mm512_and_si512(a, b);
        fn andn_i(a: __m512i, b: __m512i) -> __m512i = _mm512_andnot_si512(a, b);
        fn add_i(a: __m512i, b: __m512i) -> __m512i = _mm512_add_epi32(a, b);
        fn sub_i(a: __m512i, b: __m512i) -> __m512i = _mm512_sub_epi32(a, b);
        fn sll_i(a: __m512i, count: __m128i) -> __m512i = _mm512_sll_epi32(a, count);
        fn srl_i(a: __m512i, count: __m128i) -> __m512i = _mm512_srl_epi32(a, count);
        fn eq_i(a: __m512i, b: __m512i) -> __mmask16 = _mm512_cmpeq_epi32_mask(a, b);
        fn gt_i(a: __m512i, b: __m512i) -> __mmask16 = _mm512_cmpgt_epi32_mask(a, b);
        fn lt_u(a: __m512i, b: __m512i) -> __mmask16 = _mm512_cmplt_epu32_mask(a, b);
        fn test_i(a: __m512i, b: __m512i) -> __mmask16 = _mm512_test_epi32_mask(a, b);
        fn select_i(a: __m512i, k: __mmask16, b: __m512i) -> __m512i
            = _mm512_mask_mov_epi32(a, k, b);
        fn mask_add_i(a: __m512i, k: __mmask16, b: __m512i) -> __m512i
            = _mm512_mask_add_epi32(a, k, a, b);
        fn mask_or_i(a: __m512i, k: __mmask16, b: __m512i) -> __m512i
            = _mm512_mask_or_epi32(a, k, a, b);
        fn merge_sign(magnitude: __m512i, sign: __m512i) -> __m512i
            = _mm512_ternarylogic_epi32::<0xE2>(magnitude, _mm512_set1_epi32(i32::MAX), sign);
        fn draws(lo: __m512i, hi: __m512i) -> __m512i
            = _mm512_srli_epi32::<1>(premix_high(lo, hi));
        fn sr_fraction(y: __m512, t: __m512, scale: f64) -> __m512i = {
            let scale = _mm512_set1_pd(scale);
            let lo = fraction8(_mm512_castps512_ps256(y), _mm512_castps512_ps256(t), scale);
            let hi = fraction8(
                _mm512_extractf32x8_ps::<1>(y),
                _mm512_extractf32x8_ps::<1>(t),
                scale,
            );
            _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi)
        };

        fn load64(p: *const u64) -> __m512i = _mm512_loadu_si512(p.cast());
        fn splat64(x: u64) -> __m512i = _mm512_set1_epi64(x as i64);
        fn hash(part: __m512i, step: __m512i, seed: __m512i) -> __m512i
            = _mm512_xor_si512(_mm512_add_epi64(part, step), seed);
    }
}

#[cfg(test)]
mod tests {
    use super::Avx512;
    use crate::lanes::tests::{
        fixed_lanes_match_scalar, float_lanes_match_scalar, slice_matches_scalar,
    };
    use crate::simd::SimdTier;

    #[test]
    fn f32_slice_matches_scalar_all_modes() {
        slice_matches_scalar::<Avx512>(SimdTier::Avx512);
    }

    #[test]
    fn quantize16_matches_scalar_at_any_event_index() {
        float_lanes_match_scalar::<Avx512>();
    }

    #[test]
    fn fixed_quantize16_matches_scalar_and_hands_back_non_finite_lanes() {
        fixed_lanes_match_scalar::<Avx512>();
    }
}
