//! Explicit AVX2 lane kernels (the `SimdTier::Avx2` tier): 8 `f32`
//! lanes per vector, one quantizer per format family.
//!
//! * [`QuantVecF32x8`] (floats) and [`FixedVecF32x8`] (fixed point) —
//!   the 8-lane twins of `simd_avx512`'s `QuantVecF32x16` and
//!   `FixedVecF32x16`, with their hand-back contract: `quantize8`
//!   returns the rounded lanes and a mask of the lanes whose result is
//!   valid (all-ones lanes of a blend vector, where AVX-512 has a
//!   k-mask), and the caller recomputes the others through the scalar
//!   `quantize` of the same kernel. `mpt-arith`'s MAC nest runs them at
//!   its 8-lane width; the slice loop below runs them on operands.
//! * [`quantize_slice_f32`] / [`quantize_slice_fixed_f32`] — operand
//!   quantization (`Quantizer::quantize_slice_f32`), one loop over
//!   either quantizer. SR event indices are consecutive (`base + i`),
//!   so the per-lane hash inputs `seed ^ index·INDEX_MUL` advance by
//!   wrapping *adds* of `8·INDEX_MUL` per block (multiplication
//!   distributes over addition modulo 2⁶⁴) — no per-lane 64-bit
//!   multiply for the index. A fixed-point format `f32` lanes do not
//!   carry (wider than 24 bits, or SR with more than 31 bits) takes the
//!   scalar loop.
//!
//! Each replays the scalar kernel's operation sequence per lane — same
//! integer truncation, same branch-free rounding selects, same
//! SplitMix64 stochastic-rounding pipeline (its 64-bit multiplies
//! assembled from `vpmuludq`) — so results are **bit-identical** to
//! the scalar tier (pinned by the differential tests in
//! `tests/fast_equivalence.rs` and `tests/fixed_oracle.rs`). Lanes
//! outside the provable fast regime (floats: subnormal, non-finite,
//! below `min_exp`; fixed point: non-finite) are handed back.
//!
//! The float rounding selects are branch-free, and `rem == 0` (an
//! exactly representable lane) needs no special case in three of the
//! four modes: RZ yields `q == abs`; RN's `up` is false (`0 < half`);
//! SR reduces to `abs` for both signs (positive: `frac == 0` never
//! exceeds the random draw; negative: `r == 2^ts` makes `frac ==
//! 2^rb`, which always exceeds it, and the XOR with the sign cancels
//! the increment). Only RO must mask, since `q | ts_bit` would perturb
//! exact values.
//!
//! Everything here requires AVX2 ([`crate::simd::avx2_supported`]);
//! the safe wrappers re-check defensively and fall back to the scalar
//! loops.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::fast::{mode, FloatFastF32, LanePlanF32};
use crate::fixed_fast::{FixedFastF32, FixedFastF64};
use crate::sr::hash;

/// Full 64-bit low-half multiply per lane (AVX2 has no `vpmullq`):
/// `lo64(a·b) = lo32(a)·lo32(b) + ((lo32(a)·hi32(b) + hi32(a)·lo32(b)) << 32)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    let lolo = _mm256_mul_epu32(a, b);
    let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
    _mm256_add_epi64(lolo, _mm256_slli_epi64::<32>(cross))
}

/// Lane-wise SplitMix64 finalizer, bit-identical to
/// [`hash::mix`] per 64-bit lane.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mix4(z: __m256i) -> __m256i {
    let z = _mm256_add_epi64(z, _mm256_set1_epi64x(hash::MIX_ADD as i64));
    let z = mullo64(
        _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)),
        _mm256_set1_epi64x(hash::MIX_MUL_1 as i64),
    );
    let z = mullo64(
        _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)),
        _mm256_set1_epi64x(hash::MIX_MUL_2 as i64),
    );
    _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
}

/// The stochastic-rounding "round up?" decision for 4 lanes of
/// 64-bit state. `rnd_cnt` holds `64 - rb`; `vpsrlq` yields 0 for
/// counts ≥ 64, which reproduces the scalar `rb == 0 → 0 bits`
/// branch exactly.
#[inline]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn sr_up4(
    rem64: __m256i,
    neg64: __m256i,
    hash_input: __m256i,
    ts_bit64: __m256i,
    sl_cnt: __m128i,
    sr_cnt: __m128i,
    rnd_cnt: __m128i,
) -> __m256i {
    // Discarded fraction of the *signed* scaled value: `rem` for
    // positive lanes, `2^ts - rem` for negative ones (matches the
    // scalar kernel's floor semantics; `rem == 0` self-corrects, see
    // the module docs).
    let r = _mm256_blendv_epi8(rem64, _mm256_sub_epi64(ts_bit64, rem64), neg64);
    let frac = _mm256_srl_epi64(_mm256_sll_epi64(r, sl_cnt), sr_cnt);
    let rnd = _mm256_srl_epi64(mix4(hash_input), rnd_cnt);
    // Both operands are < 2^53, so the signed compare is exact.
    let toward_pos_inf = _mm256_cmpgt_epi64(frac, rnd);
    _mm256_xor_si256(toward_pos_inf, neg64)
}

/// Collapses the low 32 bits of each 64-bit lane of two vectors
/// (lanes 0..3 in `lo`, 4..7 in `hi`) into one 8×32 vector in lane
/// order.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn narrow64x2_to_32(lo: __m256i, hi: __m256i) -> __m256i {
    let lo_p = _mm256_permute4x64_epi64::<0x08>(_mm256_shuffle_epi32::<0x88>(lo));
    let hi_p = _mm256_permute4x64_epi64::<0x08>(_mm256_shuffle_epi32::<0x88>(hi));
    _mm256_inserti128_si256::<1>(lo_p, _mm256_castsi256_si128(hi_p))
}

/// The un-seeded SR hash inputs `(base + lane)·K` of an 8-lane slice
/// block — lanes 0..3, lanes 4..7 — and the per-block step `8K`. The
/// `·K` product is maintained incrementally (wrapping adds, exact by
/// distributivity mod 2^64); the seed XOR must happen per block,
/// *after* the additive advance: `seed ^ (h + step)` is not
/// `(seed ^ h) + step`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn slice_hash_lanes(base_index: u64) -> (__m256i, __m256i, __m256i) {
    let k = hash::INDEX_MUL;
    let h0 = base_index.wrapping_mul(k);
    let h_lo = _mm256_set_epi64x(
        h0.wrapping_add(k.wrapping_mul(3)) as i64,
        h0.wrapping_add(k.wrapping_mul(2)) as i64,
        h0.wrapping_add(k) as i64,
        h0 as i64,
    );
    let h_hi = _mm256_add_epi64(h_lo, _mm256_set1_epi64x(k.wrapping_mul(4) as i64));
    (h_lo, h_hi, _mm256_set1_epi64x(k.wrapping_mul(8) as i64))
}

/// Broadcast [`LanePlanF32`] constants for the 8-lane `f32` float
/// quantizer, built once per slice or GEMM.
///
/// On `f32` inputs it equals [`FloatFastF32::quantize`] (and, where
/// `FloatFastF64::f32_plan` gives the plan, `FloatFastF64::quantize`)
/// lane for lane. The SR state is 64-bit per lane, so it takes any
/// number of random bits the scalar kernel does.
#[derive(Debug, Clone, Copy)]
pub struct QuantVecF32x8 {
    rem_mask: __m256i,
    half: __m256i,
    ts_bit: __m256i,
    exp_mask_f: __m256i,
    lo_m1: __m256i,
    max_abs: __m256i,
    sat: __m256i,
    odd_force: __m256i,
    or_bit: __m256i,
    ts_cnt: __m128i,
    sl_cnt: __m128i,
    sr_cnt: __m128i,
    rnd_cnt: __m128i,
    ts_bit64: __m256i,
}

impl QuantVecF32x8 {
    /// Broadcasts the plan constants into vector registers.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn new(plan: &LanePlanF32) -> Self {
        let zero = _mm256_setzero_si256();
        let ts_bit = _mm256_set1_epi32(plan.ts_bit as i32);
        QuantVecF32x8 {
            rem_mask: _mm256_set1_epi32(plan.rem_mask as i32),
            half: _mm256_set1_epi32(plan.half as i32),
            ts_bit,
            exp_mask_f: _mm256_set1_epi32(plan.exp_mask_field as i32),
            lo_m1: _mm256_set1_epi32(plan.lo_exp_field as i32 - 1),
            max_abs: _mm256_set1_epi32(plan.max_abs_bits as i32),
            sat: _mm256_set1_epi32(plan.sat_bits as i32),
            odd_force: if plan.implicit_odd {
                _mm256_set1_epi32(-1)
            } else {
                zero
            },
            or_bit: if plan.implicit_odd { zero } else { ts_bit },
            ts_cnt: _mm_cvtsi32_si128(plan.ts as i32),
            sl_cnt: _mm_cvtsi32_si128(plan.rb.saturating_sub(plan.ts) as i32),
            sr_cnt: _mm_cvtsi32_si128(plan.ts.saturating_sub(plan.rb) as i32),
            rnd_cnt: _mm_cvtsi32_si128(64 - plan.rb as i32),
            ts_bit64: _mm256_set1_epi64x(plan.ts_bit as i64),
        }
    }

    /// Quantizes 8 `f32` lanes; returns the results and the mask of
    /// lanes that were inside the fast regime or zero (all-ones ⇒ the
    /// lane's result is valid; zero ⇒ the caller must recompute it
    /// through the scalar path). `hash_lo` and `hash_hi` carry `seed ^
    /// event_index·INDEX_MUL` for lanes 0–3 and 4–7 (only read under
    /// SR).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize8<const MODE: u8>(
        &self,
        x: __m256,
        hash_lo: __m256i,
        hash_hi: __m256i,
    ) -> (__m256, __m256) {
        let zero = _mm256_setzero_si256();
        let one = _mm256_set1_epi32(1);
        let abs_mask = _mm256_set1_epi32(i32::MAX);
        let v = _mm256_castps_si256(x);
        let abs = _mm256_and_si256(v, abs_mask);
        let sign = _mm256_andnot_si256(abs_mask, v);
        let ef = _mm256_srli_epi32::<23>(abs);
        // Fast regime: 0 < exp field < all-ones, and at least the
        // format's minimum. ±0 rounds to itself in every mode, and that
        // is what the lane arithmetic below yields for it (`rem == 0`,
        // see the module docs), so zeros — most of a ReLU-sparse
        // operand, and sums that cancel — are valid too.
        let nz = _mm256_cmpgt_epi32(ef, zero);
        let special = _mm256_cmpeq_epi32(ef, self.exp_mask_f);
        let ge = _mm256_cmpgt_epi32(ef, self.lo_m1);
        let fastm = _mm256_andnot_si256(special, _mm256_and_si256(nz, ge));
        let fastm = _mm256_or_si256(fastm, _mm256_cmpeq_epi32(abs, zero));
        let rem = _mm256_and_si256(abs, self.rem_mask);
        let q = _mm256_sub_epi32(abs, rem);
        let y = match MODE {
            mode::RZ => q,
            mode::RN => {
                let gt = _mm256_cmpgt_epi32(rem, self.half);
                let eq = _mm256_cmpeq_epi32(rem, self.half);
                let lsb = _mm256_and_si256(_mm256_srl_epi32(abs, self.ts_cnt), one);
                let odd = _mm256_or_si256(_mm256_cmpeq_epi32(lsb, one), self.odd_force);
                let up = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
                _mm256_add_epi32(q, _mm256_and_si256(up, self.ts_bit))
            }
            mode::RO => {
                let zrem = _mm256_cmpeq_epi32(rem, zero);
                _mm256_or_si256(q, _mm256_andnot_si256(zrem, self.or_bit))
            }
            mode::SR => {
                // The SR state is 64-bit per lane: widen 8×32 → 2×4×64,
                // decide, and narrow the up masks back.
                let rem_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(rem));
                let rem_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(rem));
                let neg32 = _mm256_srai_epi32::<31>(v);
                let neg_lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(neg32));
                let neg_hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(neg32));
                let (t, sl, sr, rnd) = (self.ts_bit64, self.sl_cnt, self.sr_cnt, self.rnd_cnt);
                let up_lo = sr_up4(rem_lo, neg_lo, hash_lo, t, sl, sr, rnd);
                let up_hi = sr_up4(rem_hi, neg_hi, hash_hi, t, sl, sr, rnd);
                let up = narrow64x2_to_32(up_lo, up_hi);
                _mm256_add_epi32(q, _mm256_and_si256(up, self.ts_bit))
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        // Both y and max_abs stay below 2^31, so signed compare is
        // exact; saturation/infinity select, then the sign bit.
        let over = _mm256_cmpgt_epi32(y, self.max_abs);
        let out = _mm256_blendv_epi8(y, self.sat, over);
        let res = _mm256_or_si256(out, sign);
        (_mm256_castsi256_ps(res), _mm256_castsi256_ps(fastm))
    }
}

/// Broadcast [`FixedFastF64`] constants for the 8-lane `f32`
/// fixed-point quantizer, with the [`QuantVecF32x8::quantize8`]
/// contract: `simd_avx512::FixedVecF32x16`'s sequence (scale by `2^f`,
/// clamp, round to integer, scale back) with `vroundps` where that one
/// uses `vrndscaleps` and blend vectors where it uses k-masks. Its
/// equivalence argument holds unchanged wherever
/// [`FixedFastF64::f32_lanes`] does: SR takes its discarded fraction in
/// `f64` and compares the fraction's `rb`-bit truncation with the draw
/// on integer lanes.
#[derive(Debug, Clone, Copy)]
pub struct FixedVecF32x8 {
    scale: __m256,
    inv: __m256,
    code_min: __m256,
    code_max: __m256,
    sr_scale: __m256d,
    /// `64 - rb`: shifts a SplitMix64 word down to its top `rb` bits.
    rnd_cnt: __m128i,
}

impl FixedVecF32x8 {
    /// Broadcasts the quantizer constants into vector registers.
    ///
    /// # Panics
    ///
    /// Panics unless [`FixedFastF64::f32_lanes`] holds for `fast`.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn new(fast: &FixedFastF64) -> Self {
        assert!(
            fast.f32_lanes(),
            "{} with {} random bits does not fit the f32 lanes",
            fast.format(),
            fast.rb
        );
        FixedVecF32x8 {
            scale: _mm256_set1_ps(fast.scale as f32),
            inv: _mm256_set1_ps(fast.inv as f32),
            code_min: _mm256_set1_ps(fast.code_min as f32),
            code_max: _mm256_set1_ps(fast.code_max as f32),
            sr_scale: _mm256_set1_pd(fast.sr_scale),
            rnd_cnt: _mm_cvtsi32_si128(64 - fast.rb as i32),
        }
    }

    /// Quantizes 8 `f32` lanes; returns the results and the mask of
    /// lanes whose result is valid (finite inputs) — the caller
    /// recomputes the others through [`FixedFastF64::quantize`].
    /// `hash_lo` and `hash_hi` carry `seed ^ event_index·INDEX_MUL` for
    /// lanes 0–3 and 4–7 (only read under SR).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize8<const MODE: u8>(
        &self,
        x: __m256,
        hash_lo: __m256i,
        hash_hi: __m256i,
    ) -> (__m256, __m256) {
        const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
        let one = _mm256_set1_ps(1.0);
        let y = _mm256_mul_ps(x, self.scale);
        let y = _mm256_min_ps(_mm256_max_ps(y, self.code_min), self.code_max);
        let code = match MODE {
            mode::RN => {
                // `vroundps` keeps the sign of zero on [-0.5, 0); the
                // oracle returns +0.0 at exactly -0.5 (see
                // `fixed_fast`).
                let r = _mm256_round_ps::<NEAREST>(y);
                let quirk = _mm256_cmp_ps::<_CMP_EQ_OQ>(y, _mm256_set1_ps(-0.5));
                _mm256_andnot_ps(quirk, r)
            }
            mode::RZ => _mm256_round_ps::<TRUNC>(y),
            mode::RO => {
                let t = _mm256_round_ps::<TRUNC>(y);
                let h = _mm256_mul_ps(t, _mm256_set1_ps(0.5));
                let even = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_round_ps::<TRUNC>(h), h);
                let inexact = _mm256_cmp_ps::<_CMP_NEQ_OQ>(t, y);
                // ±1.0 carrying y's sign: one step away from zero.
                let sign = _mm256_and_ps(y, _mm256_set1_ps(-0.0));
                let away = _mm256_add_ps(t, _mm256_or_ps(one, sign));
                _mm256_blendv_ps(t, away, _mm256_and_ps(inexact, even))
            }
            mode::SR => {
                let t = _mm256_round_ps::<FLOOR>(y);
                // `(y - t) · 2^rb` in `f64` for 4 lanes. It is at most
                // `2^rb ≤ 2^31`, reached where `1 - |y|` rounds to 1, and
                // its truncation converts exactly read unsigned: `2^31`
                // becomes the integer indefinite `0x8000_0000`.
                let frac_bits4 = |y: __m128, t: __m128| {
                    let frac = _mm256_sub_pd(_mm256_cvtps_pd(y), _mm256_cvtps_pd(t));
                    _mm256_cvttpd_epi32(_mm256_mul_pd(frac, self.sr_scale))
                };
                let lo = frac_bits4(_mm256_castps256_ps128(y), _mm256_castps256_ps128(t));
                let hi = frac_bits4(_mm256_extractf128_ps::<1>(y), _mm256_extractf128_ps::<1>(t));
                let frac_bits = _mm256_set_m128i(hi, lo);
                let draw = |h: __m256i| _mm256_srl_epi64(mix4(h), self.rnd_cnt);
                let rnd = narrow64x2_to_32(draw(hash_lo), draw(hash_hi));
                // An unsigned compare: flip both sign bits.
                let flip = _mm256_set1_epi32(i32::MIN);
                let up = _mm256_cmpgt_epi32(
                    _mm256_xor_si256(frac_bits, flip),
                    _mm256_xor_si256(rnd, flip),
                );
                _mm256_blendv_ps(t, _mm256_add_ps(t, one), _mm256_castsi256_ps(up))
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), x);
        let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(abs, _mm256_set1_ps(f32::INFINITY));
        (_mm256_mul_ps(code, self.inv), finite)
    }
}

/// The slice loop of both families: lane `i` of the block at offset
/// `o` rounds at event `base_index + o + i` through `lanes` (given the
/// seeded hash inputs of lanes 0–3 and 4–7); handed-back lanes and the
/// tail go through `scalar`.
#[inline(always)]
unsafe fn quantize_slice_lanes(
    values: &mut [f32],
    base_index: u64,
    seed: u64,
    lanes: impl Fn(__m256, __m256i, __m256i) -> (__m256, __m256),
    scalar: impl Fn(f32, u64) -> f32,
) {
    let seed_v = _mm256_set1_epi64x(seed as i64);
    let (mut h_lo, mut h_hi, h_step) = slice_hash_lanes(base_index);
    let mut idx = base_index;
    let mut chunks = values.chunks_exact_mut(8);
    for chunk in chunks.by_ref() {
        let x = _mm256_loadu_ps(chunk.as_ptr());
        let (q, ok) = lanes(
            x,
            _mm256_xor_si256(h_lo, seed_v),
            _mm256_xor_si256(h_hi, seed_v),
        );
        _mm256_storeu_ps(chunk.as_mut_ptr(), q);
        let ok = _mm256_movemask_ps(ok) as u32;
        if ok != 0xFF {
            let mut xs = [0f32; 8];
            _mm256_storeu_ps(xs.as_mut_ptr(), x);
            for (i, &x) in xs.iter().enumerate() {
                if ok & (1 << i) == 0 {
                    chunk[i] = scalar(x, idx.wrapping_add(i as u64));
                }
            }
        }
        idx = idx.wrapping_add(8);
        h_lo = _mm256_add_epi64(h_lo, h_step);
        h_hi = _mm256_add_epi64(h_hi, h_step);
    }
    for v in chunks.into_remainder() {
        *v = scalar(*v, idx);
        idx = idx.wrapping_add(1);
    }
}

/// AVX2 slice quantizer for float formats on `f32` carriers: lane `i`
/// of a block at offset `o` uses rounding event `base_index + o + i`.
/// Bit-identical to [`FloatFastF32::quantize_slice`], which it falls
/// back to if the host lacks AVX2 (defensive — the dispatcher already
/// checks).
pub fn quantize_slice_f32<const MODE: u8>(
    fast: &FloatFastF32,
    plan: &LanePlanF32,
    values: &mut [f32],
    base_index: u64,
) {
    if !crate::simd::avx2_supported() {
        return fast.quantize_slice::<MODE>(values, base_index);
    }
    // SAFETY: AVX2 availability checked at runtime just above.
    unsafe { quantize_slice_f32_avx2::<MODE>(fast, plan, values, base_index) }
}

#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_f32_avx2<const MODE: u8>(
    fast: &FloatFastF32,
    plan: &LanePlanF32,
    values: &mut [f32],
    base_index: u64,
) {
    let qv = QuantVecF32x8::new(plan);
    quantize_slice_lanes(
        values,
        base_index,
        plan.seed,
        |x, lo, hi| qv.quantize8::<MODE>(x, lo, hi),
        |x, index| fast.quantize::<MODE>(x, index),
    )
}

/// AVX2 slice quantizer for fixed-point formats on `f32` carriers,
/// through [`FixedVecF32x8`] where [`FixedFastF64::f32_lanes`] holds
/// and the scalar loop otherwise (or if the host lacks AVX2).
/// Bit-identical to the scalar slice loop.
pub fn quantize_slice_fixed_f32<const MODE: u8>(
    fast: &FixedFastF32,
    values: &mut [f32],
    base_index: u64,
) {
    if !crate::simd::avx2_supported() || !fast.wide().f32_lanes() {
        return fast.quantize_tail::<MODE>(values, base_index);
    }
    // SAFETY: AVX2 availability checked at runtime just above.
    unsafe { quantize_slice_fixed_f32_avx2::<MODE>(fast, values, base_index) }
}

#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_fixed_f32_avx2<const MODE: u8>(
    fast: &FixedFastF32,
    values: &mut [f32],
    base_index: u64,
) {
    let qv = FixedVecF32x8::new(fast.wide());
    quantize_slice_lanes(
        values,
        base_index,
        fast.wide().rng().seed(),
        |x, lo, hi| qv.quantize8::<MODE>(x, lo, hi),
        |x, index| fast.quantize::<MODE>(x, index),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::FloatFormat;
    use crate::rounding::Rounding;
    use crate::simd::avx2_supported;
    use crate::sr::SrRng;

    const MODES: [Rounding; 4] = [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::Stochastic { random_bits: 10 },
        Rounding::ToOdd,
    ];

    fn sample_f32(i: usize) -> f32 {
        match i % 9 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => 1.0e-42,
            _ => ((i as f32) - 300.0) * 0.137,
        }
    }

    #[test]
    fn f32_slice_matches_scalar_all_modes() {
        if !avx2_supported() {
            return;
        }
        for fmt in [
            FloatFormat::e5m2(),
            FloatFormat::e4m3(),
            FloatFormat::e6m5(),
            FloatFormat::new(5, 0).unwrap(),
        ] {
            for rounding in MODES {
                let rng = SrRng::new(99);
                let fast = FloatFastF32::new(fmt, rounding, rng).unwrap();
                let plan = fast.lane_plan().unwrap();
                // 611 exercises full blocks plus a 3-lane tail.
                let src: Vec<f32> = (0..611).map(sample_f32).collect();
                let mut scalar = src.clone();
                let mut simd = src.clone();
                fast.quantize_slice_dyn(&mut scalar, 12345);
                match rounding {
                    Rounding::Nearest => {
                        quantize_slice_f32::<{ mode::RN }>(&fast, &plan, &mut simd, 12345)
                    }
                    Rounding::TowardZero => {
                        quantize_slice_f32::<{ mode::RZ }>(&fast, &plan, &mut simd, 12345)
                    }
                    Rounding::Stochastic { .. } => {
                        quantize_slice_f32::<{ mode::SR }>(&fast, &plan, &mut simd, 12345)
                    }
                    Rounding::ToOdd => {
                        quantize_slice_f32::<{ mode::RO }>(&fast, &plan, &mut simd, 12345)
                    }
                    Rounding::NoRound => unreachable!(),
                }
                for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
                    assert_eq!(
                        s.to_bits(),
                        v.to_bits(),
                        "fmt {fmt} mode {rounding} lane {i}: scalar {s} avx2 {v}"
                    );
                }
            }
        }
    }

    /// The float quantizer at arbitrary (non-consecutive) event
    /// indices, as the MAC nest hands them over: every lane it reports
    /// valid equals the scalar kernel, and every lane it hands back is
    /// one the scalar kernel sends to the oracle.
    #[test]
    fn quantize8_matches_scalar_at_any_event_index() {
        if !avx2_supported() {
            return;
        }
        for rounding in MODES {
            let rng = SrRng::new(7);
            let fast = FloatFastF32::new(FloatFormat::e6m5(), rounding, rng).unwrap();
            let plan = fast.lane_plan().unwrap();
            for block in 0..200u64 {
                let xs: [f32; 8] = core::array::from_fn(|l| sample_f32(block as usize * 8 + l));
                let idxs: [u64; 8] = core::array::from_fn(|l| (block << 42) | ((l as u64) << 22));
                let hash = idxs.map(|i| rng.hash_input(i));
                let mut out = [0f32; 8];
                // SAFETY: avx2 checked above; loads and stores stay
                // inside the arrays.
                let ok = unsafe {
                    let qv = QuantVecF32x8::new(&plan);
                    let (x, lo, hi) = (
                        _mm256_loadu_ps(xs.as_ptr()),
                        _mm256_loadu_si256(hash.as_ptr().cast()),
                        _mm256_loadu_si256(hash[4..].as_ptr().cast()),
                    );
                    let (r, ok) = crate::with_mode!(
                        rounding,
                        M => qv.quantize8::<M>(x, lo, hi),
                        unreachable!()
                    );
                    _mm256_storeu_ps(out.as_mut_ptr(), r);
                    _mm256_movemask_ps(ok)
                };
                for l in 0..8 {
                    let x = xs[l];
                    let special = x.is_nan() || x.is_infinite() || (x != 0.0 && !x.is_normal());
                    assert_eq!(ok & (1 << l) == 0, special, "lane {l} x {x}");
                    if !special {
                        let want = fast.quantize_dyn(x, idxs[l]);
                        assert_eq!(
                            out[l].to_bits(),
                            want.to_bits(),
                            "mode {rounding} block {block} lane {l}"
                        );
                    }
                }
            }
        }
    }

    /// The fixed-point quantizer on accumulator-like values: the
    /// non-finite hand-back classes, zeros, the RN `-0.5` tie,
    /// saturating magnitudes, and negative values so close to zero that
    /// SR's `f64` fraction `1 - |y|` rounds to 1 — at every lane as
    /// `block` advances.
    #[test]
    fn fixed_quantize8_matches_scalar_and_hands_back_non_finite_lanes() {
        use crate::fixed::FixedFormat;
        if !avx2_supported() {
            return;
        }
        for (fmt, rb) in [
            (FixedFormat::fxp4_4(), 10),
            (FixedFormat::fxp8_8(), crate::simd::MAX_RANDOM_BITS),
            (FixedFormat::new(8, 16).unwrap(), 0),
        ] {
            let res = fmt.resolution() as f32;
            let specials = [
                0.0,
                -0.0,
                -f32::from_bits(1),
                -2.0f32.powi(-60),
                -(1.0 + f32::EPSILON) * 2.0f32.powi(-31) * res,
                -0.5 * res,
                f32::INFINITY,
                f32::NAN,
                1.0e9,
                -1.0e30,
            ];
            for rounding in [
                Rounding::Nearest,
                Rounding::TowardZero,
                Rounding::Stochastic { random_bits: rb },
                Rounding::ToOdd,
            ] {
                let rng = SrRng::new(u64::MAX - 3);
                let fast = FixedFastF64::new(fmt, rounding, rng).unwrap();
                for block in 0..100usize {
                    let xs: [f32; 8] = core::array::from_fn(|l| match (block + l) % 3 {
                        0 => specials[(block / 3 + l) % specials.len()],
                        _ => (block as f32 - 50.0) * 0.731 + l as f32 * 0.0913,
                    });
                    let idxs: [u64; 8] =
                        core::array::from_fn(|l| ((block as u64) << 42) | l as u64);
                    let hash = idxs.map(|i| rng.hash_input(i));
                    let mut out = [0f32; 8];
                    // SAFETY: avx2 checked above; loads and stores stay
                    // inside the arrays.
                    let ok = unsafe {
                        let qv = FixedVecF32x8::new(&fast);
                        let (x, lo, hi) = (
                            _mm256_loadu_ps(xs.as_ptr()),
                            _mm256_loadu_si256(hash.as_ptr().cast()),
                            _mm256_loadu_si256(hash[4..].as_ptr().cast()),
                        );
                        let (r, ok) = crate::with_mode!(
                            rounding,
                            M => qv.quantize8::<M>(x, lo, hi),
                            unreachable!()
                        );
                        _mm256_storeu_ps(out.as_mut_ptr(), r);
                        _mm256_movemask_ps(ok)
                    };
                    for l in 0..8 {
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
