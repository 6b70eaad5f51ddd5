//! Explicit AVX2 lane kernels (the `SimdTier::Avx2` tier).
//!
//! This module replays the exact operation sequence of the scalar
//! [`crate::FloatFastF32`]/[`crate::FloatFastF64`] kernels across
//! vector lanes — same integer truncation, same branch-free rounding
//! selects, same SplitMix64 stochastic-rounding pipeline — so results
//! are **bit-identical** to the scalar tier (pinned by the
//! differential tests in `tests/fast_equivalence.rs`).
//!
//! Entry points:
//!
//! * [`quantize_slice_f32`] — 8 `f32` lanes per iteration, for the
//!   operand-quantization path (`Quantizer::quantize_slice_f32`). SR
//!   event indices are consecutive (`base + i`), so the per-lane hash
//!   inputs `seed ^ index·INDEX_MUL` advance by wrapping *adds* of
//!   `8·INDEX_MUL` per block (multiplication distributes over addition
//!   modulo 2⁶⁴) — no per-lane 64-bit multiply for the index.
//! * [`QuantVecF64`] — a 4-lane `f64` quantizer used by `mpt-arith`'s
//!   fused-MAC AVX2 kernel, where the event indices are the structured
//!   [`sr_event_index`]-style words and the caller supplies the
//!   pre-multiplied hash inputs per lane.
//!
//! * [`FixedVecF64`] / [`quantize_slice_fixed_f32`] — the fixed-point
//!   siblings of the two above, over [`crate::FixedFastF64`]: the
//!   oracle's own scale / clamp / round-to-integer sequence on 4 `f64`
//!   lanes (`vroundpd`), with the `f32` slice path widening 8 carriers
//!   into two such halves.
//!
//! Lanes outside the provable fast regime (zero, subnormal,
//! non-finite, below `min_exp`) are reported in a lane mask and the
//! caller patches them through the scalar path from the preserved
//! original values.
//!
//! The rounding selects are branch-free, and `rem == 0` (an exactly
//! representable lane) needs no special case in three of the four
//! modes: RZ yields `q == abs`; RN's `up` is false (`0 < half`); SR
//! reduces to `abs` for both signs (positive: `frac == 0` never
//! exceeds the random draw; negative: `r == 2^ts` makes
//! `frac == 2^rb`, which always exceeds it, and the XOR with the sign
//! cancels the increment). Only RO must mask, since `q | ts_bit` would
//! perturb exact values.
//!
//! Everything here is gated on `is_x86_feature_detected!("avx2")` by
//! the dispatch layer ([`crate::simd::active_tier`]); the safe
//! wrappers re-check defensively and fall back to the scalar loops.
//!
//! [`sr_event_index`]: crate::sr::SrRng::bits
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::fast::{mode, FloatFastF32, LanePlanF32, LanePlanF64};
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

/// AVX2 slice quantizer for `f32` carriers: 8 lanes per iteration,
/// lane `i` of a block at offset `o` uses rounding event
/// `base_index + o + i`. Bit-identical to
/// [`FloatFastF32::quantize_slice`], which it falls back to if the
/// host lacks AVX2 (defensive — the dispatcher already checks).
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
    let zero = _mm256_setzero_si256();
    let one = _mm256_set1_epi32(1);
    let abs_mask = _mm256_set1_epi32(0x7FFF_FFFF);
    let rem_mask = _mm256_set1_epi32(plan.rem_mask as i32);
    let half = _mm256_set1_epi32(plan.half as i32);
    let ts_bit = _mm256_set1_epi32(plan.ts_bit as i32);
    let exp_mask_f = _mm256_set1_epi32(plan.exp_mask_field as i32);
    let lo_m1 = _mm256_set1_epi32(plan.lo_exp_field as i32 - 1);
    let max_abs = _mm256_set1_epi32(plan.max_abs_bits as i32);
    let sat = _mm256_set1_epi32(plan.sat_bits as i32);
    let odd_force = if plan.implicit_odd {
        _mm256_set1_epi32(-1)
    } else {
        zero
    };
    let or_bit = if plan.implicit_odd { zero } else { ts_bit };
    let ts_cnt = _mm_cvtsi32_si128(plan.ts as i32);
    let sl_cnt = _mm_cvtsi32_si128(plan.rb.saturating_sub(plan.ts) as i32);
    let sr_cnt = _mm_cvtsi32_si128(plan.ts.saturating_sub(plan.rb) as i32);
    let rnd_cnt = _mm_cvtsi32_si128(64 - plan.rb as i32);
    let ts_bit64 = _mm256_set1_epi64x(plan.ts_bit as i64);
    let seed_v = _mm256_set1_epi64x(plan.seed as i64);
    let (mut h_lo, mut h_hi, h_step) = slice_hash_lanes(base_index);

    let mut idx = base_index;
    let mut chunks = values.chunks_exact_mut(8);
    for chunk in chunks.by_ref() {
        let mut orig = [0f32; 8];
        orig.copy_from_slice(chunk);
        let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        let abs = _mm256_and_si256(v, abs_mask);
        let sign = _mm256_andnot_si256(abs_mask, v);
        let ef = _mm256_srli_epi32::<23>(abs);
        // Fast regime: 0 < exp field < all-ones, and at least the
        // format's minimum — everything else gets patched below.
        let nz = _mm256_cmpgt_epi32(ef, zero);
        let special = _mm256_cmpeq_epi32(ef, exp_mask_f);
        let ge = _mm256_cmpgt_epi32(ef, lo_m1);
        let fastm = _mm256_andnot_si256(special, _mm256_and_si256(nz, ge));
        // ±0 rounds to itself in every mode, and that is what the lane
        // arithmetic below yields for it (`rem == 0`, see the module
        // docs), so zeros — most of a ReLU-sparse operand — are not
        // patched.
        let fastm = _mm256_or_si256(fastm, _mm256_cmpeq_epi32(abs, zero));
        let rem = _mm256_and_si256(abs, rem_mask);
        let q = _mm256_sub_epi32(abs, rem);
        let y = match MODE {
            mode::RZ => q,
            mode::RN => {
                let gt = _mm256_cmpgt_epi32(rem, half);
                let eq = _mm256_cmpeq_epi32(rem, half);
                let lsb = _mm256_and_si256(_mm256_srl_epi32(abs, ts_cnt), one);
                let odd = _mm256_or_si256(_mm256_cmpeq_epi32(lsb, one), odd_force);
                let up = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
                _mm256_add_epi32(q, _mm256_and_si256(up, ts_bit))
            }
            mode::RO => {
                let zrem = _mm256_cmpeq_epi32(rem, zero);
                _mm256_or_si256(q, _mm256_andnot_si256(zrem, or_bit))
            }
            mode::SR => {
                // The SR state is 64-bit per lane: widen 8×32 → 2×4×64,
                // decide, and narrow the up masks back.
                let rem_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(rem));
                let rem_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(rem));
                let neg32 = _mm256_srai_epi32::<31>(v);
                let neg_lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(neg32));
                let neg_hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(neg32));
                let inp_lo = _mm256_xor_si256(h_lo, seed_v);
                let inp_hi = _mm256_xor_si256(h_hi, seed_v);
                let up_lo = sr_up4(rem_lo, neg_lo, inp_lo, ts_bit64, sl_cnt, sr_cnt, rnd_cnt);
                let up_hi = sr_up4(rem_hi, neg_hi, inp_hi, ts_bit64, sl_cnt, sr_cnt, rnd_cnt);
                let up = narrow64x2_to_32(up_lo, up_hi);
                _mm256_add_epi32(q, _mm256_and_si256(up, ts_bit))
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        // Both y and max_abs stay below 2^31, so signed compare is
        // exact; saturation/infinity select, then the sign bit.
        let over = _mm256_cmpgt_epi32(y, max_abs);
        let out = _mm256_blendv_epi8(y, sat, over);
        let res = _mm256_or_si256(out, sign);
        _mm256_storeu_si256(chunk.as_mut_ptr() as *mut __m256i, res);
        let lanes_ok = _mm256_movemask_ps(_mm256_castsi256_ps(fastm)) as u32;
        if lanes_ok != 0xFF {
            for (i, &x) in orig.iter().enumerate() {
                if lanes_ok & (1 << i) == 0 {
                    chunk[i] = fast.quantize::<MODE>(x, idx.wrapping_add(i as u64));
                }
            }
        }
        idx = idx.wrapping_add(8);
        h_lo = _mm256_add_epi64(h_lo, h_step);
        h_hi = _mm256_add_epi64(h_hi, h_step);
    }
    for v in chunks.into_remainder() {
        *v = fast.quantize::<MODE>(*v, idx);
        idx = idx.wrapping_add(1);
    }
}

/// Broadcast [`LanePlanF64`] constants for the 4-lane `f64` AVX2
/// quantizer, built once per kernel invocation.
///
/// `mpt-arith`'s fused-MAC AVX2 kernel quantizes each lane's running
/// sum with [`quantize4`](QuantVecF64::quantize4), supplying the
/// pre-multiplied SR hash input (`seed ^ event_index·INDEX_MUL`) per
/// lane; see [`crate::SrRng::hash_input`].
#[derive(Debug, Clone, Copy)]
pub struct QuantVecF64 {
    zero: __m256i,
    one: __m256i,
    abs_mask: __m256i,
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
}

impl QuantVecF64 {
    /// Broadcasts the plan constants into vector registers.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 (callers sit behind
    /// `is_x86_feature_detected!("avx2")` dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn new(plan: &LanePlanF64) -> Self {
        let zero = _mm256_setzero_si256();
        let ts_bit = _mm256_set1_epi64x(plan.ts_bit as i64);
        QuantVecF64 {
            zero,
            one: _mm256_set1_epi64x(1),
            abs_mask: _mm256_set1_epi64x(0x7FFF_FFFF_FFFF_FFFFu64 as i64),
            rem_mask: _mm256_set1_epi64x(plan.rem_mask as i64),
            half: _mm256_set1_epi64x(plan.half as i64),
            ts_bit,
            exp_mask_f: _mm256_set1_epi64x(plan.exp_mask_field as i64),
            lo_m1: _mm256_set1_epi64x(plan.lo_exp_field as i64 - 1),
            max_abs: _mm256_set1_epi64x(plan.max_abs_bits as i64),
            sat: _mm256_set1_epi64x(plan.sat_bits as i64),
            odd_force: if plan.implicit_odd {
                _mm256_set1_epi64x(-1)
            } else {
                zero
            },
            or_bit: if plan.implicit_odd { zero } else { ts_bit },
            ts_cnt: _mm_cvtsi32_si128(plan.ts as i32),
            sl_cnt: _mm_cvtsi32_si128(plan.rb.saturating_sub(plan.ts) as i32),
            sr_cnt: _mm_cvtsi32_si128(plan.ts.saturating_sub(plan.rb) as i32),
            rnd_cnt: _mm_cvtsi32_si128(64 - plan.rb as i32),
        }
    }

    /// Quantizes 4 `f64` lanes; returns the results and a 4-bit mask
    /// of lanes that were *inside* the fast regime (bit `i` set ⇒
    /// lane `i`'s result is valid; clear ⇒ the caller must recompute
    /// that lane through the scalar path).
    ///
    /// `hash_input` carries `seed ^ event_index·INDEX_MUL` per lane
    /// (only read under SR). Bit-identical to
    /// [`crate::FloatFastF64::quantize`] on fast-regime lanes.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize4<const MODE: u8>(
        &self,
        x: __m256d,
        hash_input: __m256i,
    ) -> (__m256d, u32) {
        let bits = _mm256_castpd_si256(x);
        let abs = _mm256_and_si256(bits, self.abs_mask);
        let sign = _mm256_andnot_si256(self.abs_mask, bits);
        let ef = _mm256_srli_epi64::<52>(abs);
        let nz = _mm256_cmpgt_epi64(ef, self.zero);
        let special = _mm256_cmpeq_epi64(ef, self.exp_mask_f);
        let ge = _mm256_cmpgt_epi64(ef, self.lo_m1);
        let fastm = _mm256_andnot_si256(special, _mm256_and_si256(nz, ge));
        let rem = _mm256_and_si256(abs, self.rem_mask);
        let q = _mm256_sub_epi64(abs, rem);
        let y = match MODE {
            mode::RZ => q,
            mode::RN => {
                let gt = _mm256_cmpgt_epi64(rem, self.half);
                let eq = _mm256_cmpeq_epi64(rem, self.half);
                let lsb = _mm256_and_si256(_mm256_srl_epi64(abs, self.ts_cnt), self.one);
                let odd = _mm256_or_si256(_mm256_cmpeq_epi64(lsb, self.one), self.odd_force);
                let up = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
                _mm256_add_epi64(q, _mm256_and_si256(up, self.ts_bit))
            }
            mode::RO => {
                let zrem = _mm256_cmpeq_epi64(rem, self.zero);
                _mm256_or_si256(q, _mm256_andnot_si256(zrem, self.or_bit))
            }
            mode::SR => {
                let neg = _mm256_cmpgt_epi64(self.zero, bits);
                let up = sr_up4(
                    rem,
                    neg,
                    hash_input,
                    self.ts_bit,
                    self.sl_cnt,
                    self.sr_cnt,
                    self.rnd_cnt,
                );
                _mm256_add_epi64(q, _mm256_and_si256(up, self.ts_bit))
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        // y ≤ the carrier's infinity pattern < 2^63: signed compare
        // is exact.
        let over = _mm256_cmpgt_epi64(y, self.max_abs);
        let out = _mm256_blendv_epi8(y, self.sat, over);
        let res = _mm256_or_si256(out, sign);
        let lanes_ok = _mm256_movemask_pd(_mm256_castsi256_pd(fastm)) as u32;
        (_mm256_castsi256_pd(res), lanes_ok)
    }
}

/// Broadcast [`FixedFastF64`] constants for the 4-lane fixed-point
/// AVX2 quantizer — the fixed-point sibling of [`QuantVecF64`], with
/// the same `quantize4` contract, used by `mpt-arith`'s MAC kernel
/// for either stage and by [`quantize_slice_fixed_f32`].
///
/// The lane body is the oracle's own float sequence on vectors:
/// scale, clamp (`vmaxpd`/`vminpd`), round to integer (`vroundpd`),
/// scale back.
#[derive(Debug, Clone, Copy)]
pub struct FixedVecF64 {
    scale: __m256d,
    inv: __m256d,
    code_min: __m256d,
    code_max: __m256d,
    sr_scale: __m256d,
    rnd_cnt: __m128i,
    /// SR draws are compared as `f64`; the integer → `f64` conversion
    /// below is exact only below `2^52`, so SR with 53 random bits
    /// reports every lane as needing the scalar path.
    sr_lanes: u32,
}

impl FixedVecF64 {
    /// Broadcasts the quantizer constants into vector registers.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn new(fast: &FixedFastF64) -> Self {
        FixedVecF64 {
            scale: _mm256_set1_pd(fast.scale),
            inv: _mm256_set1_pd(fast.inv),
            code_min: _mm256_set1_pd(fast.code_min),
            code_max: _mm256_set1_pd(fast.code_max),
            sr_scale: _mm256_set1_pd(fast.sr_scale),
            rnd_cnt: _mm_cvtsi32_si128(64 - fast.rb as i32),
            sr_lanes: if fast.rb <= 52 { 0xF } else { 0 },
        }
    }

    /// Quantizes 4 `f64` lanes; returns the results and a 4-bit mask
    /// of lanes whose result is valid (finite inputs) — the caller
    /// recomputes the others through [`FixedFastF64::quantize`].
    /// `hash_input` carries `seed ^ event_index·INDEX_MUL` per lane
    /// (only read under SR). Bit-identical to the scalar kernel on
    /// valid lanes.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize4<const MODE: u8>(
        &self,
        x: __m256d,
        hash_input: __m256i,
    ) -> (__m256d, u32) {
        const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
        let one = _mm256_set1_pd(1.0);
        let y = _mm256_mul_pd(x, self.scale);
        let y = _mm256_min_pd(_mm256_max_pd(y, self.code_min), self.code_max);
        let mut lanes = 0xF;
        let code = match MODE {
            mode::RN => {
                // `vroundpd` keeps the sign of zero on [-0.5, 0); the
                // oracle returns +0.0 at exactly -0.5 (see
                // `fixed_fast`).
                let r = _mm256_round_pd::<NEAREST>(y);
                let quirk = _mm256_cmp_pd::<_CMP_EQ_OQ>(y, _mm256_set1_pd(-0.5));
                _mm256_andnot_pd(quirk, r)
            }
            mode::RZ => _mm256_round_pd::<TRUNC>(y),
            mode::RO => {
                let t = _mm256_round_pd::<TRUNC>(y);
                let h = _mm256_mul_pd(t, _mm256_set1_pd(0.5));
                let even = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_round_pd::<TRUNC>(h), h);
                let inexact = _mm256_cmp_pd::<_CMP_NEQ_OQ>(t, y);
                // ±1.0 carrying y's sign: one step away from zero.
                let sign = _mm256_and_pd(y, _mm256_set1_pd(-0.0));
                let away = _mm256_add_pd(t, _mm256_or_pd(one, sign));
                _mm256_blendv_pd(t, away, _mm256_and_pd(inexact, even))
            }
            mode::SR => {
                lanes = self.sr_lanes;
                let t = _mm256_round_pd::<FLOOR>(y);
                let frac = _mm256_mul_pd(_mm256_sub_pd(y, t), self.sr_scale);
                let frac_bits = _mm256_round_pd::<FLOOR>(frac);
                // The `rb`-bit draw as an exact f64: OR it into the
                // mantissa of 2^52 and subtract 2^52.
                let rnd = _mm256_srl_epi64(mix4(hash_input), self.rnd_cnt);
                let two52 = _mm256_set1_pd(4_503_599_627_370_496.0);
                let draw = _mm256_sub_pd(_mm256_or_pd(_mm256_castsi256_pd(rnd), two52), two52);
                let up = _mm256_cmp_pd::<_CMP_GT_OQ>(frac_bits, draw);
                _mm256_blendv_pd(t, _mm256_add_pd(t, one), up)
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
        let finite = _mm256_cmp_pd::<_CMP_LT_OQ>(abs, _mm256_set1_pd(f64::INFINITY));
        let lanes_ok = _mm256_movemask_pd(finite) as u32 & lanes;
        (_mm256_mul_pd(code, self.inv), lanes_ok)
    }
}

/// AVX2 slice quantizer for fixed-point formats on `f32` carriers: 8
/// lanes per iteration, widened to two [`FixedVecF64`] halves (the
/// oracle rounds the `f64` image of each carrier too) and narrowed
/// back with `vcvtpd2ps` — the scalar `as f32` cast per lane.
/// Bit-identical to the scalar slice loop, which it falls back to if
/// the host lacks AVX2.
pub fn quantize_slice_fixed_f32<const MODE: u8>(
    fast: &FixedFastF32,
    values: &mut [f32],
    base_index: u64,
) {
    if !crate::simd::avx2_supported() {
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
    let qv = FixedVecF64::new(fast.wide());
    let seed_v = _mm256_set1_epi64x(fast.wide().rng().seed() as i64);
    let (mut h_lo, mut h_hi, h_step) = slice_hash_lanes(base_index);

    let mut idx = base_index;
    let mut chunks = values.chunks_exact_mut(8);
    for chunk in chunks.by_ref() {
        let mut orig = [0f32; 8];
        orig.copy_from_slice(chunk);
        let lo = _mm256_cvtps_pd(_mm_loadu_ps(chunk.as_ptr()));
        let hi = _mm256_cvtps_pd(_mm_loadu_ps(chunk.as_ptr().add(4)));
        let (q_lo, ok_lo) = qv.quantize4::<MODE>(lo, _mm256_xor_si256(h_lo, seed_v));
        let (q_hi, ok_hi) = qv.quantize4::<MODE>(hi, _mm256_xor_si256(h_hi, seed_v));
        _mm_storeu_ps(chunk.as_mut_ptr(), _mm256_cvtpd_ps(q_lo));
        _mm_storeu_ps(chunk.as_mut_ptr().add(4), _mm256_cvtpd_ps(q_hi));
        let lanes_ok = ok_lo | (ok_hi << 4);
        if lanes_ok != 0xFF {
            for (i, &x) in orig.iter().enumerate() {
                if lanes_ok & (1 << i) == 0 {
                    chunk[i] = fast.quantize::<MODE>(x, idx.wrapping_add(i as u64));
                }
            }
        }
        idx = idx.wrapping_add(8);
        h_lo = _mm256_add_epi64(h_lo, h_step);
        h_hi = _mm256_add_epi64(h_hi, h_step);
    }
    fast.quantize_tail::<MODE>(chunks.into_remainder(), idx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::FloatFastF64;
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

    #[test]
    fn f64_quantize4_matches_scalar() {
        if !avx2_supported() {
            return;
        }
        for rounding in MODES {
            let rng = SrRng::new(7);
            let fast = FloatFastF64::new(FloatFormat::e6m5(), rounding, rng).unwrap();
            let plan = fast.lane_plan().unwrap();
            // SAFETY: avx2 checked above.
            unsafe {
                let qv = QuantVecF64::new(&plan);
                for block in 0..200u64 {
                    let xs: [f64; 4] = core::array::from_fn(|l| {
                        ((block as f64) - 100.0) * 0.731 + (l as f64) * 0.0913
                    });
                    let idxs: [u64; 4] = core::array::from_fn(|l| block.wrapping_mul(4) + l as u64);
                    let h = _mm256_set_epi64x(
                        rng.hash_input(idxs[3]) as i64,
                        rng.hash_input(idxs[2]) as i64,
                        rng.hash_input(idxs[1]) as i64,
                        rng.hash_input(idxs[0]) as i64,
                    );
                    let (res, lanes_ok) = match rounding {
                        Rounding::Nearest => {
                            qv.quantize4::<{ mode::RN }>(_mm256_loadu_pd(xs.as_ptr()), h)
                        }
                        Rounding::TowardZero => {
                            qv.quantize4::<{ mode::RZ }>(_mm256_loadu_pd(xs.as_ptr()), h)
                        }
                        Rounding::Stochastic { .. } => {
                            qv.quantize4::<{ mode::SR }>(_mm256_loadu_pd(xs.as_ptr()), h)
                        }
                        Rounding::ToOdd => {
                            qv.quantize4::<{ mode::RO }>(_mm256_loadu_pd(xs.as_ptr()), h)
                        }
                        Rounding::NoRound => unreachable!(),
                    };
                    let mut out = [0f64; 4];
                    _mm256_storeu_pd(out.as_mut_ptr(), res);
                    for l in 0..4 {
                        if lanes_ok & (1 << l) == 0 {
                            continue;
                        }
                        let want = fast.quantize_dyn(xs[l], idxs[l]);
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
}
