//! Lane-parallel MAC GEMM loop nests (the `MPT_SIMD` tiers).
//!
//! These are drop-in replacements for the scalar nest in
//! [`crate::kernels`]: same `i / j-tile / k / j` traversal, same
//! ascending-`k` reduction per output element, same
//! [`sr_event_index`] event stream per stage — only the innermost `j`
//! loop is restructured into 4-wide `f64` lane blocks. Like the
//! scalar nest they are generic over the two rounding
//! [`Stage`]s and the [`MacObserver`]; with the
//! [`Fused`](crate::stage::Fused) multiplier the multiplier stage
//! compiles out and what remains is the fused-MAC kernel. Because
//! IEEE-754 multiplies/adds are fully specified and the lane
//! quantizers in `mpt-formats` replay the scalar kernels' exact
//! operation sequence per lane, results are **bit-identical** to the
//! scalar nest (and therefore to `qgemm_reference`) for every input,
//! including NaN/inf payloads, zero products, and saturating sums:
//!
//! * products and running sums are computed per lane with no
//!   reassociation — lane `j` sees exactly the scalar sequence
//!   `out[j] + round_mul(a[kk]·b[kk][j])` at each step;
//! * zero products (`product == 0.0`, tested *before* the multiplier
//!   rounds) leave the output lane untouched, exactly like the scalar
//!   `continue`;
//! * lanes a stage's vector kernel hands back (floats: non-finite,
//!   target-subnormal, carrier-subnormal; fixed point: non-finite) are
//!   recomputed through the stage's scalar quantizer from the same
//!   `f64` value;
//! * SR event indices are computed per lane and per stage with the
//!   *same* [`sr_event_index`] packing (no incremental shortcuts that
//!   could diverge on field overflow).
//!
//! The observers see the identical `(unrounded, rounded)` pairs the
//! scalar nest shows them, skipping zero products, so instrumented
//! runs stay tier-independent too.

use crate::kernels::{Gemm, J_TILE};
use crate::mac::{mac_round, sr_event_index, MacStage};
use crate::stage::{MacObserver, Stage, L};

/// The portable lane-block nest: fixed-width arrays in safe Rust,
/// shaped for the autovectorizer.
pub(crate) fn gemm_portable<M: Stage, A: Stage, T: MacObserver>(
    g: Gemm<'_>,
    mul: &M,
    acc: &A,
    mul_obs: &mut T,
    acc_obs: &mut T,
) {
    for i in 0..g.n {
        let gi = i + g.row_offset;
        let arow = &g.ad[i * g.k..(i + 1) * g.k];
        let orow = &mut g.out[i * g.m..(i + 1) * g.m];
        let mut j0 = 0;
        while j0 < g.m {
            let j1 = (j0 + J_TILE).min(g.m);
            for (kk, &av) in arow.iter().enumerate() {
                if av == 0.0 && g.b_all_finite {
                    continue;
                }
                let av = av as f64;
                let brow = &g.bd[kk * g.m..kk * g.m + g.m];
                let mut j = j0;
                while j + L <= j1 {
                    let gj = j + g.col_offset;
                    let mut prods = [0f64; L];
                    let mut any_nonzero = false;
                    for l in 0..L {
                        prods[l] = av * brow[j + l] as f64;
                        any_nonzero |= prods[l] != 0.0;
                    }
                    if any_nonzero {
                        let mut rounded = prods;
                        if !M::IDENTITY {
                            let idxs = lane_indices(gi, gj, kk, MacStage::Multiply);
                            mul.quantize_block(&mut rounded, &idxs);
                        }
                        let mut sums = [0f64; L];
                        for l in 0..L {
                            sums[l] = orow[j + l] as f64 + rounded[l];
                        }
                        let mut q = sums;
                        acc.quantize_block(&mut q, &lane_indices(gi, gj, kk, MacStage::Accumulate));
                        for l in 0..L {
                            // Zero products leave the lane untouched
                            // (and unobserved), like the scalar skip.
                            if prods[l] == 0.0 {
                                continue;
                            }
                            if !M::IDENTITY {
                                mul_obs.record(prods[l], rounded[l]);
                            }
                            acc_obs.record(sums[l], q[l]);
                            orow[j + l] = q[l] as f32;
                        }
                    }
                    j += L;
                }
                while j < j1 {
                    let product = av * brow[j] as f64;
                    if product != 0.0 {
                        let gj = j + g.col_offset;
                        orow[j] =
                            mac_round(orow[j], product, mul, acc, gi, gj, kk, mul_obs, acc_obs);
                    }
                    j += 1;
                }
            }
            j0 = j1;
        }
    }
}

/// The rounding-event indices of `stage` for the `L` output columns
/// starting at global column `gj`.
#[inline(always)]
fn lane_indices(gi: usize, gj: usize, kk: usize, stage: MacStage) -> [u64; L] {
    std::array::from_fn(|l| sr_event_index(gi, gj + l, kk, stage))
}

/// The AVX2 nest (x86_64 only): explicit intrinsics for the 4-lane
/// widen → multiply → round → add → round pipeline, sharing the `f64`
/// lane quantizers with `mpt-formats`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    use super::*;
    use crate::stage::{FixedStage, FloatStage, Fused};
    use mpt_formats::simd_avx2::{FixedVecF64, QuantVecF64};

    /// The vector form of a [`Stage`]: its constants broadcast into
    /// AVX2 registers and a 4-lane quantizer over them.
    pub(crate) trait VecStage: Stage {
        /// The broadcast constants.
        type Vec: Copy;

        /// Builds [`Vec`](VecStage::Vec).
        ///
        /// # Safety
        ///
        /// The host must support AVX2.
        unsafe fn vec(&self) -> Self::Vec;

        /// Rounds 4 lanes; `hash_input` carries
        /// `rng().hash_input(index)` per lane (read only when
        /// [`Stage::SR`]). Returns the results and the mask of valid
        /// lanes — the caller recomputes the others through
        /// [`Stage::quantize`].
        ///
        /// # Safety
        ///
        /// The host must support AVX2.
        unsafe fn quantize4(v: &Self::Vec, x: __m256d, hash_input: __m256i) -> (__m256d, u32);
    }

    impl VecStage for Fused {
        type Vec = ();

        #[inline(always)]
        unsafe fn vec(&self) {}

        #[inline(always)]
        unsafe fn quantize4(_v: &(), x: __m256d, _hash_input: __m256i) -> (__m256d, u32) {
            (x, 0xF)
        }
    }

    impl<const MODE: u8> VecStage for FloatStage<MODE> {
        type Vec = QuantVecF64;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn vec(&self) -> QuantVecF64 {
            QuantVecF64::new(&self.plan)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn quantize4(v: &QuantVecF64, x: __m256d, h: __m256i) -> (__m256d, u32) {
            v.quantize4::<MODE>(x, h)
        }
    }

    impl<const MODE: u8> VecStage for FixedStage<MODE> {
        type Vec = FixedVecF64;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn vec(&self) -> FixedVecF64 {
            FixedVecF64::new(&self.0)
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn quantize4(v: &FixedVecF64, x: __m256d, h: __m256i) -> (__m256d, u32) {
            v.quantize4::<MODE>(x, h)
        }
    }

    /// Collapses a 4×`f64` compare mask to a 4×`f32` mask (low dword
    /// of each 64-bit lane, which is all-ones/all-zero).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn narrow_mask_pd(m: __m256d) -> __m128 {
        let mi = _mm256_castpd_si256(m);
        let t = _mm256_permute4x64_epi64::<0x08>(_mm256_shuffle_epi32::<0x88>(mi));
        _mm_castsi128_ps(_mm256_castsi256_si128(t))
    }

    /// AVX2 nest entry: re-checks CPU support defensively (dispatch
    /// already did) and falls back to the portable tier.
    pub(crate) fn gemm_avx2<M: VecStage, A: VecStage, T: MacObserver>(
        g: Gemm<'_>,
        mul: &M,
        acc: &A,
        mul_obs: &mut T,
        acc_obs: &mut T,
    ) {
        if !mpt_formats::simd::avx2_supported() {
            return gemm_portable(g, mul, acc, mul_obs, acc_obs);
        }
        // SAFETY: AVX2 availability checked at runtime just above.
        unsafe { inner(g, mul, acc, mul_obs, acc_obs) }
    }

    /// Where a 4-lane block rounds: output row, first global column,
    /// reduction step, stage.
    type At = (usize, usize, usize, MacStage);

    /// A stage's vector quantizer on 4 lanes, with the SR hash inputs
    /// assembled per lane from the exact `sr_event_index` packing (no
    /// incremental shortcut — safe against field overflow).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize4<S: VecStage>(
        stage: &S,
        v: &S::Vec,
        x: __m256d,
        (gi, gj, kk, which): At,
    ) -> (__m256d, u32) {
        let h = if S::SR {
            let rng = stage.rng();
            let hi = |l: usize| rng.hash_input(sr_event_index(gi, gj + l, kk, which)) as i64;
            _mm256_set_epi64x(hi(3), hi(2), hi(1), hi(0))
        } else {
            _mm256_setzero_si256()
        };
        S::quantize4(v, x, h)
    }

    /// The spill behind a vector quantizer, taken only when it handed
    /// lanes back or someone is watching: recomputes the lanes in
    /// `need_scalar` through the stage's scalar quantizer and shows
    /// every live lane (zero-product lanes are not) to the observer.
    /// Returns the settled lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn settle4<S: VecStage, T: MacObserver>(
        stage: &S,
        x: __m256d,
        q: __m256d,
        need_scalar: u32,
        live: u32,
        (gi, gj, kk, which): At,
        obs: &mut T,
    ) -> [f64; 4] {
        let mut xs = [0f64; 4];
        _mm256_storeu_pd(xs.as_mut_ptr(), x);
        let mut qs = [0f64; 4];
        _mm256_storeu_pd(qs.as_mut_ptr(), q);
        for l in 0..4 {
            if live & (1 << l) == 0 {
                continue;
            }
            if need_scalar & (1 << l) != 0 {
                qs[l] = stage.quantize(xs[l], sr_event_index(gi, gj + l, kk, which));
            }
            obs.record(xs[l], qs[l]);
        }
        qs
    }

    #[target_feature(enable = "avx2")]
    unsafe fn inner<M: VecStage, A: VecStage, T: MacObserver>(
        g: Gemm<'_>,
        mul: &M,
        acc: &A,
        mul_obs: &mut T,
        acc_obs: &mut T,
    ) {
        let (mul_v, acc_v) = (mul.vec(), acc.vec());
        let zero_pd = _mm256_setzero_pd();
        for i in 0..g.n {
            let gi = i + g.row_offset;
            let arow = &g.ad[i * g.k..(i + 1) * g.k];
            let orow = &mut g.out[i * g.m..(i + 1) * g.m];
            let mut j0 = 0;
            while j0 < g.m {
                let j1 = (j0 + J_TILE).min(g.m);
                for (kk, &av) in arow.iter().enumerate() {
                    if av == 0.0 && g.b_all_finite {
                        continue;
                    }
                    let av = av as f64;
                    let av_v = _mm256_set1_pd(av);
                    let brow = &g.bd[kk * g.m..kk * g.m + g.m];
                    let mut j = j0;
                    while j + 4 <= j1 {
                        // Widen 4 B lanes and the 4 output lanes; the
                        // vector multiply/add are IEEE-identical to
                        // the scalar `av * b as f64` / `o + product`.
                        let b4 = _mm256_cvtps_pd(_mm_loadu_ps(brow.as_ptr().add(j)));
                        let prod = _mm256_mul_pd(av_v, b4);
                        let pz = _mm256_cmp_pd::<_CMP_EQ_OQ>(prod, zero_pd);
                        let pz_bits = _mm256_movemask_pd(pz) as u32;
                        if pz_bits == 0xF {
                            // All four products are exactly zero: the
                            // scalar kernel skips all four lanes.
                            j += 4;
                            continue;
                        }
                        let live = !pz_bits & 0xF;
                        let gj = j + g.col_offset;
                        let mut prod = prod;
                        if !M::IDENTITY {
                            let at = (gi, gj, kk, MacStage::Multiply);
                            let (q, lanes_ok) = quantize4(mul, &mul_v, prod, at);
                            let need_scalar = !lanes_ok & live;
                            prod = if T::ACTIVE || need_scalar != 0 {
                                let qs = settle4(mul, prod, q, need_scalar, live, at, mul_obs);
                                _mm256_loadu_pd(qs.as_ptr())
                            } else {
                                q
                            };
                        }
                        let o4_32 = _mm_loadu_ps(orow.as_ptr().add(j));
                        let sum = _mm256_add_pd(_mm256_cvtps_pd(o4_32), prod);
                        let at = (gi, gj, kk, MacStage::Accumulate);
                        let (res, lanes_ok) = quantize4(acc, &acc_v, sum, at);
                        let need_scalar = !lanes_ok & live;
                        // Narrow to f32 (vcvtpd2ps == the scalar `as
                        // f32` cast per lane) and keep old values on
                        // zero-product lanes; handed-back lanes are
                        // overwritten just below.
                        let q32 = _mm256_cvtpd_ps(res);
                        let merged = _mm_blendv_ps(q32, o4_32, narrow_mask_pd(pz));
                        _mm_storeu_ps(orow.as_mut_ptr().add(j), merged);
                        if T::ACTIVE || need_scalar != 0 {
                            let qs = settle4(acc, sum, res, need_scalar, live, at, acc_obs);
                            for l in 0..4 {
                                if need_scalar & (1 << l) != 0 {
                                    orow[j + l] = qs[l] as f32;
                                }
                            }
                        }
                        j += 4;
                    }
                    while j < j1 {
                        let product = av * brow[j] as f64;
                        if product != 0.0 {
                            let gj = j + g.col_offset;
                            orow[j] =
                                mac_round(orow[j], product, mul, acc, gi, gj, kk, mul_obs, acc_obs);
                        }
                        j += 1;
                    }
                }
                j0 = j1;
            }
        }
    }
}
