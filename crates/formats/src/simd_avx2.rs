//! The `SimdTier::Avx2` width: 8 `f32` lanes, blend-vector masks, AVX2
//! and FMA ([`crate::simd::avx2_supported`]). The lane kernels are
//! written once in [`crate::lanes`] and `mpt-arith`; this module spells
//! out what AVX-512 does in one instruction:
//!
//! * a mask is a vector whose lanes are all ones or all zeros, and a
//!   masked add or or is an `and` of the mask into the addend;
//! * unsigned compares flip both sign bits and compare signed;
//! * SplitMix64's 64-bit multiplies are assembled from `vpmuludq`, and
//!   the high halves of the words are packed with two shuffles and an
//!   insert.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::simd::{width_impl, Width};
use crate::sr::hash;

/// The `avx2` tier's width: 8 lanes, blend-vector masks.
#[derive(Debug, Clone, Copy)]
pub struct Avx2;

/// Full 64-bit low-half multiply per lane (AVX2 has no `vpmullq`):
/// `lo64(a·b) = lo32(a)·lo32(b) + ((lo32(a)·hi32(b) + hi32(a)·lo32(b)) << 32)`.
#[inline(always)]
unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    let lolo = _mm256_mul_epu32(a, b);
    let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
    _mm256_add_epi64(lolo, _mm256_slli_epi64::<32>(cross))
}

/// SplitMix64 up to its final xor-shift, per 64-bit lane.
#[inline(always)]
unsafe fn premix4(z: __m256i) -> __m256i {
    let z = _mm256_add_epi64(z, _mm256_set1_epi64x(hash::MIX_ADD as i64));
    let z = mullo64(
        _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)),
        _mm256_set1_epi64x(hash::MIX_MUL_1 as i64),
    );
    mullo64(
        _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)),
        _mm256_set1_epi64x(hash::MIX_MUL_2 as i64),
    )
}

/// The high 32 bits of each 64-bit lane of two vectors (lanes 0..3 in
/// `lo`, 4..7 in `hi`) as one 8×32 vector in lane order.
#[inline(always)]
unsafe fn high_halves(lo: __m256i, hi: __m256i) -> __m256i {
    let lo = _mm256_permute4x64_epi64::<0x08>(_mm256_shuffle_epi32::<0xDD>(lo));
    let hi = _mm256_permute4x64_epi64::<0x08>(_mm256_shuffle_epi32::<0xDD>(hi));
    _mm256_inserti128_si256::<1>(lo, _mm256_castsi256_si128(hi))
}

/// `(y − t) · scale` in `f64` for 4 lanes, truncated. A result of
/// `2^31` or more converts to the integer indefinite `0x8000_0000`,
/// which reads unsigned as `2^31`: exact up to there.
#[inline(always)]
unsafe fn fraction4(y: __m128, t: __m128, scale: __m256d) -> __m128i {
    let frac = _mm256_sub_pd(_mm256_cvtps_pd(y), _mm256_cvtps_pd(t));
    _mm256_cvttpd_epi32(_mm256_mul_pd(frac, scale))
}

/// `a ^ 0x8000_0000`: unsigned order becomes signed order.
#[inline(always)]
unsafe fn flip(a: __m256i) -> __m256i {
    _mm256_xor_si256(a, _mm256_set1_epi32(i32::MIN))
}

/// The mask `k` as an integer vector.
#[inline(always)]
unsafe fn int(k: __m256) -> __m256i {
    _mm256_castps_si256(k)
}

/// The integer mask `k` as a mask.
#[inline(always)]
unsafe fn mask(k: __m256i) -> __m256 {
    _mm256_castsi256_ps(k)
}

impl Width for Avx2 {
    const N: usize = 8;
    type V = __m256;
    type I = __m256i;
    type K = __m256;
    type H = __m256i;

    fn supported() -> bool {
        crate::simd::avx2_supported()
    }

    width_impl! {
        features = "avx2,fma";
        fn prefix(n: usize) -> __m256 = mask(_mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        ));
        fn none(k: __m256) -> bool = _mm256_testz_ps(k, k) != 0;
        fn bits(k: __m256) -> u32 = _mm256_movemask_ps(k) as u32;
        fn and(a: __m256, b: __m256) -> __m256 = _mm256_and_ps(a, b);
        fn andn(a: __m256, b: __m256) -> __m256 = _mm256_andnot_ps(a, b);
        fn or(a: __m256, b: __m256) -> __m256 = _mm256_or_ps(a, b);
        fn xor(a: __m256, b: __m256) -> __m256 = _mm256_xor_ps(a, b);

        fn splat(x: f32) -> __m256 = _mm256_set1_ps(x);
        fn load(k: __m256, p: *const f32) -> __m256 = _mm256_maskload_ps(p, int(k));
        fn store(k: __m256, p: *mut f32, v: __m256) -> () = _mm256_maskstore_ps(p, int(k), v);
        fn loadu(p: *const f32) -> __m256 = _mm256_loadu_ps(p);
        fn storeu(p: *mut f32, v: __m256) -> () = _mm256_storeu_ps(p, v);
        fn mul(a: __m256, b: __m256) -> __m256 = _mm256_mul_ps(a, b);
        fn add(a: __m256, b: __m256) -> __m256 = _mm256_add_ps(a, b);
        fn sub(a: __m256, b: __m256) -> __m256 = _mm256_sub_ps(a, b);
        fn fmsub(a: __m256, b: __m256, c: __m256) -> __m256 = _mm256_fmsub_ps(a, b, c);
        fn abs(a: __m256) -> __m256 = _mm256_andnot_ps(_mm256_set1_ps(-0.0), a);
        fn min(a: __m256, b: __m256) -> __m256 = _mm256_min_ps(a, b);
        fn max(a: __m256, b: __m256) -> __m256 = _mm256_max_ps(a, b);
        fn round<const R: i32>(a: __m256) -> __m256 = _mm256_round_ps::<R>(a);
        fn cmp<const P: i32>(k: __m256, a: __m256, b: __m256) -> __m256
            = _mm256_and_ps(k, _mm256_cmp_ps::<P>(a, b));
        fn select(a: __m256, k: __m256, b: __m256) -> __m256 = _mm256_blendv_ps(a, b, k);
        fn mask_add(a: __m256, k: __m256, b: __m256) -> __m256
            = _mm256_blendv_ps(a, _mm256_add_ps(a, b), k);
        fn clear(k: __m256, a: __m256) -> __m256 = _mm256_andnot_ps(k, a);

        fn to_bits(a: __m256) -> __m256i = _mm256_castps_si256(a);
        fn from_bits(a: __m256i) -> __m256 = _mm256_castsi256_ps(a);
        fn splat_i(x: u32) -> __m256i = _mm256_set1_epi32(x as i32);
        fn and_i(a: __m256i, b: __m256i) -> __m256i = _mm256_and_si256(a, b);
        fn andn_i(a: __m256i, b: __m256i) -> __m256i = _mm256_andnot_si256(a, b);
        fn add_i(a: __m256i, b: __m256i) -> __m256i = _mm256_add_epi32(a, b);
        fn sub_i(a: __m256i, b: __m256i) -> __m256i = _mm256_sub_epi32(a, b);
        fn sll_i(a: __m256i, count: __m128i) -> __m256i = _mm256_sll_epi32(a, count);
        fn srl_i(a: __m256i, count: __m128i) -> __m256i = _mm256_srl_epi32(a, count);
        fn eq_i(a: __m256i, b: __m256i) -> __m256 = mask(_mm256_cmpeq_epi32(a, b));
        fn gt_i(a: __m256i, b: __m256i) -> __m256 = mask(_mm256_cmpgt_epi32(a, b));
        fn lt_u(a: __m256i, b: __m256i) -> __m256 = mask(_mm256_cmpgt_epi32(flip(b), flip(a)));
        fn test_i(a: __m256i, b: __m256i) -> __m256
            = mask(_mm256_cmpgt_epi32(_mm256_and_si256(a, b), _mm256_setzero_si256()));
        fn select_i(a: __m256i, k: __m256, b: __m256i) -> __m256i
            = _mm256_blendv_epi8(a, b, int(k));
        fn mask_add_i(a: __m256i, k: __m256, b: __m256i) -> __m256i
            = _mm256_add_epi32(a, _mm256_and_si256(int(k), b));
        fn mask_or_i(a: __m256i, k: __m256, b: __m256i) -> __m256i
            = _mm256_or_si256(a, _mm256_and_si256(int(k), b));
        fn merge_sign(magnitude: __m256i, sign: __m256i) -> __m256i
            = _mm256_or_si256(magnitude, _mm256_and_si256(sign, _mm256_set1_epi32(i32::MIN)));
        fn draws(lo: __m256i, hi: __m256i) -> __m256i
            = _mm256_srli_epi32::<1>(high_halves(premix4(lo), premix4(hi)));
        fn sr_fraction(y: __m256, t: __m256, scale: f64) -> __m256i = {
            let scale = _mm256_set1_pd(scale);
            let lo = fraction4(_mm256_castps256_ps128(y), _mm256_castps256_ps128(t), scale);
            let hi = fraction4(
                _mm256_extractf128_ps::<1>(y),
                _mm256_extractf128_ps::<1>(t),
                scale,
            );
            _mm256_set_m128i(hi, lo)
        };

        fn load64(p: *const u64) -> __m256i = _mm256_loadu_si256(p.cast());
        fn splat64(x: u64) -> __m256i = _mm256_set1_epi64x(x as i64);
        fn hash(part: __m256i, step: __m256i, seed: __m256i) -> __m256i
            = _mm256_xor_si256(_mm256_add_epi64(part, step), seed);
    }
}

#[cfg(test)]
mod tests {
    use super::Avx2;
    use crate::lanes::tests::{
        fixed_lanes_match_scalar, float_lanes_match_scalar, slice_matches_scalar,
    };
    use crate::simd::SimdTier;

    #[test]
    fn f32_slice_matches_scalar_all_modes() {
        slice_matches_scalar::<Avx2>(SimdTier::Avx2);
    }

    #[test]
    fn quantize8_matches_scalar_at_any_event_index() {
        float_lanes_match_scalar::<Avx2>();
    }

    #[test]
    fn fixed_quantize8_matches_scalar_and_hands_back_non_finite_lanes() {
        fixed_lanes_match_scalar::<Avx2>();
    }
}
