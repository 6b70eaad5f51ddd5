//! Lane-parallel MAC GEMM loop nests (the vector `MPT_SIMD` tiers;
//! x86_64 only).
//!
//! These are drop-in replacements for the scalar nest in
//! [`crate::kernels`]: same ascending-`k` reduction per output
//! element, same [`sr_event_index`] event stream per stage. The AVX2
//! nest keeps the scalar nest's `i / j-tile / k / j` traversal and only
//! restructures the innermost `j` loop into 4-wide `f64` lane blocks;
//! the AVX-512 nest ([`avx512_f32`]) is `j-strip / i / k` with 16-wide
//! `f32` blocks whose accumulators stay in registers across `k`. Like
//! the scalar nest they are generic over the two rounding [`Stage`]s
//! and the [`MacObserver`]; with the [`Fused`](crate::stage::Fused)
//! multiplier the multiplier stage compiles out and what remains is
//! the fused-MAC kernel. Because IEEE-754 multiplies/adds are fully
//! specified and the lane quantizers in `mpt-formats` replay the
//! scalar kernels' exact operation sequence per lane, results are
//! **bit-identical** to the scalar nest (and therefore to
//! `qgemm_reference`) for every input, including NaN/inf payloads,
//! zero products, and saturating sums:
//!
//! * products and running sums are computed per lane with no
//!   reassociation — lane `j` sees exactly the scalar sequence
//!   `out[j] + round_mul(a[kk]·b[kk][j])` at each step (the AVX-512
//!   nest computes it in `f32` and settles every lane where that is
//!   not provably the `f64` value);
//! * zero products (`product == 0.0`, tested *before* the multiplier
//!   rounds) leave the output lane untouched, exactly like the scalar
//!   `continue`;
//! * lanes a stage's vector kernel hands back (floats: non-finite,
//!   target-subnormal, carrier-subnormal; fixed point: non-finite) are
//!   recomputed through the stage's scalar quantizer from the same
//!   value;
//! * SR event indices are computed per lane and per stage with the
//!   *same* [`sr_event_index`] packing. The AVX2 nest packs every
//!   lane's index outright; the AVX-512 nest sums the
//!   index's row, column and `k` fields after multiplying each by the
//!   hash constant, which is the same number while no field can carry
//!   into the next — checked once per GEMM, anything else runs the
//!   AVX2 nest.
//!
//! The observers see the identical `(unrounded, rounded)` pairs the
//! scalar nest shows them, skipping zero products, so instrumented
//! runs stay tier-independent too (in a different order on the AVX-512
//! nest; the tallies are sums).

use crate::kernels::{gemm_scalar, Gemm, J_TILE};
use crate::mac::{mac_round, sr_event_index, MacStage};
use crate::stage::{MacObserver, Stage};

/// The AVX2 nest: explicit intrinsics for the 4-lane
/// widen → multiply → round → add → round pipeline, sharing the `f64`
/// lane quantizers with `mpt-formats`.
pub(crate) mod avx2 {
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    use super::*;
    use crate::stage::{FixedStage, FloatStage, Fused};
    use mpt_formats::simd_avx2::{FixedVecF64, QuantVecF64};
    use mpt_formats::simd_avx512::{FixedVecF32x16, QuantVecF32x16, MAX_RANDOM_BITS};
    use mpt_formats::{FloatFastF32, LanePlanF32};

    /// The vector forms of a [`Stage`]: its constants broadcast into
    /// AVX2 registers with a 4-lane `f64` quantizer over them, and,
    /// where `f32` carries the stage, into AVX-512 registers with a
    /// 16-lane `f32` quantizer.
    pub(crate) trait VecStage: Stage {
        /// The broadcast constants.
        type Vec: Copy;
        /// The broadcast constants at 16 `f32` lanes.
        type Vec16: Copy;

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

        /// Whether the 16 `f32` lanes carry the stage: every value it
        /// emits is an `f32`, and its 16-lane quantizer equals the
        /// scalar one on `f32` inputs — floats with at most 8 exponent
        /// and 22 mantissa bits, fixed point of at most 24 bits, either
        /// under a deterministic mode or SR with at most
        /// [`MAX_RANDOM_BITS`] random bits. Decided from the
        /// configuration alone.
        fn f32_lanes(&self) -> bool;

        /// Builds [`Vec16`](VecStage::Vec16).
        ///
        /// # Panics
        ///
        /// Panics unless [`f32_lanes`](VecStage::f32_lanes) holds.
        ///
        /// # Safety
        ///
        /// The host must support AVX-512 F + DQ.
        unsafe fn vec16(&self) -> Self::Vec16;

        /// [`quantize4`](VecStage::quantize4) on 16 `f32` lanes, with
        /// the hash inputs of lanes 0–7 in `hash_lo` and of lanes 8–15
        /// in `hash_hi`.
        ///
        /// # Safety
        ///
        /// The host must support AVX-512 F + DQ.
        unsafe fn quantize16(
            v: &Self::Vec16,
            x: __m512,
            hash_lo: __m512i,
            hash_hi: __m512i,
        ) -> (__m512, __mmask16);
    }

    impl VecStage for Fused {
        type Vec = ();
        type Vec16 = ();

        #[inline(always)]
        unsafe fn vec(&self) {}

        #[inline(always)]
        unsafe fn quantize4(_v: &(), x: __m256d, _hash_input: __m256i) -> (__m256d, u32) {
            (x, 0xF)
        }

        fn f32_lanes(&self) -> bool {
            true
        }

        #[inline(always)]
        unsafe fn vec16(&self) {}

        #[inline(always)]
        unsafe fn quantize16(
            _v: &(),
            x: __m512,
            _lo: __m512i,
            _hi: __m512i,
        ) -> (__m512, __mmask16) {
            (x, 0xFFFF)
        }
    }

    impl<const MODE: u8> FloatStage<MODE> {
        /// The stage's `f32` lane plan, where
        /// [`f32_lanes`](VecStage::f32_lanes) holds.
        fn plan16(&self) -> Option<LanePlanF32> {
            let format = self.fast.format();
            if format.exp_bits() > 8 {
                return None;
            }
            let fast = FloatFastF32::new(format, self.fast.rounding(), self.fast.rng())?;
            fast.lane_plan().filter(|plan| plan.rb <= MAX_RANDOM_BITS)
        }
    }

    impl<const MODE: u8> VecStage for FloatStage<MODE> {
        type Vec = QuantVecF64;
        type Vec16 = QuantVecF32x16;

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

        fn f32_lanes(&self) -> bool {
            self.plan16().is_some()
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        unsafe fn vec16(&self) -> QuantVecF32x16 {
            QuantVecF32x16::new(&self.plan16().expect("the f32 lanes carry the stage"))
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        unsafe fn quantize16(
            v: &QuantVecF32x16,
            x: __m512,
            lo: __m512i,
            hi: __m512i,
        ) -> (__m512, __mmask16) {
            v.quantize16::<MODE>(x, lo, hi)
        }
    }

    impl<const MODE: u8> VecStage for FixedStage<MODE> {
        type Vec = FixedVecF64;
        type Vec16 = FixedVecF32x16;

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

        fn f32_lanes(&self) -> bool {
            FixedVecF32x16::carries(&self.0)
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        unsafe fn vec16(&self) -> FixedVecF32x16 {
            FixedVecF32x16::new(&self.0)
        }

        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        unsafe fn quantize16(
            v: &FixedVecF32x16,
            x: __m512,
            lo: __m512i,
            hi: __m512i,
        ) -> (__m512, __mmask16) {
            v.quantize16::<MODE>(x, lo, hi)
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
    /// already did) and falls back to the scalar nest.
    pub(crate) fn gemm_avx2<M: VecStage, A: VecStage, T: MacObserver>(
        g: Gemm<'_>,
        mul: &M,
        acc: &A,
        mul_obs: &mut T,
        acc_obs: &mut T,
    ) {
        if !mpt_formats::simd::avx2_supported() {
            return gemm_scalar(g, mul, acc, mul_obs, acc_obs);
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

/// The AVX-512 nest: 16 `f32` lanes per block, and a different loop
/// order from the other two — `j-strip / i / k` instead of
/// `i / j-tile / k / j`. The two 16-lane accumulators of a
/// [`STRIP`](avx512_f32::STRIP)-column strip of one output row stay in
/// `zmm` registers across the whole `k` reduction; the `f32` output
/// row is loaded once before it and stored once after, and the strip of
/// `B` stays cache-hot across the rows. Each output element still
/// reduces over ascending `k` through the same stages at the same event
/// indices, so the result is bit-identical. Nothing is allocated.
///
/// Why `f32` lanes give the reference's bits: the reference widens
/// both operands to `f64`, where their product is exact, rounds it
/// through the multiplier stage (unless fused), adds it to the widened
/// accumulator and rounds the `f64` sum. Per lane and step this nest
/// computes `prod = a·b` and `sum = acc + round_mul(prod)` in `f32`
/// and proves each step exact:
///
/// * the raw product is exact when the FMA residual `fmsub(a, b,
///   prod)` is zero and `|prod| ≥ 2^-101` (below that the residual can
///   itself round to zero; a product that underflows `f32` is never
///   taken for an exact zero either: only `a = 0` or `b = 0` skips);
/// * the sum is exact when `sum − acc == round_mul(prod)` and
///   `sum − round_mul(prod) == acc` (the subtraction against the larger
///   operand is exact, so it sees any rounding error of the sum;
///   overflow and NaN fail it).
///
/// An exact `f32` value *is* the reference's `f64` value, and the
/// stages' 16-lane quantizers
/// ([`QuantVecF32x16`](mpt_formats::simd_avx512::QuantVecF32x16),
/// [`FixedVecF32x16`](mpt_formats::simd_avx512::FixedVecF32x16)) round
/// it exactly as the `f64` kernels do wherever
/// [`VecStage::f32_lanes`] holds for both stages, which is when
/// dispatch takes this nest. Every other live lane — inexact, tiny,
/// non-finite or handed back by either quantizer — settles through the
/// scalar [`mac_round`] from the same `f32` accumulator at the same
/// event indices, so the output is bit-identical. A sum that cancels
/// to zero is exact and needs no settling (zero rounds to itself).
/// Over the GEMMs of one LeNet FP8 × FP12-SR training step (batch 32,
/// after 20 steps) `f32` is exact for 99.992% of MAC events, 0.14% of
/// sums cancel to zero, and 0.07% of 16-lane blocks settle a lane. The
/// paper's unfused `FXP4.4 × FXP8.8` MAC settles even less: every
/// in-range FXP4.4 product of two FXP4.4 operands has at most 16
/// significant bits and every FXP8.8 sum at most 17, so only NaN, ±inf
/// and out-of-range operands settle.
///
/// What the shape buys: on the dense fused-SR GEMMs that dominate a
/// training step the AVX2 block is about a hundred instructions per 4
/// MACs, of which 14 emulate SplitMix64's two 64-bit multiplies, ~20
/// assemble four hash inputs lane by lane and ~10 move the output row
/// through memory. `vpmullq`, incremental hash inputs, register
/// accumulators and 16 lanes remove most of that. LeNet's batch-32
/// forward convolutions under FP8 × FP12-SR (operands already
/// quantized, one thread of a 2.1 GHz AVX-512 Xeon) run at 285
/// (6×25×25088) and 290 (16×150×3200) MMAC/s on the AVX2 nest and at
/// 906 and 1049 on this one. The price is that every strip rescans its
/// `A` row for the zero skip, which is why the strip is as wide as the
/// register file allows — and why this shape was *not* retrofitted to
/// the AVX2 nest (half the registers: narrow strips taxed the sparse
/// backward GEMMs more than the dense ones gained). GEMMs whose `B`
/// rows are ReLU-sparse gain least, because a 16-lane block is skipped
/// only when all 16 products are zero.
pub(crate) mod avx512_f32 {
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    use super::avx2::{gemm_avx2, VecStage};
    use super::*;
    use mpt_formats::sr::hash::INDEX_MUL;

    /// Output columns per strip: two 16-lane accumulators.
    pub(crate) const STRIP: usize = 32;

    /// `2^-101`: the smallest `|prod|` whose FMA residual is exact. A
    /// product `a·b` of `f32`s has at most 48 significant bits, so at
    /// `|a·b| ≥ 2^-102` its residual is a multiple of `2^-149`, an
    /// `f32`; rounding to `prod ≥ 2^-101` keeps `|a·b|` above that.
    const EXACT_PRODUCT_MIN: f32 = 1.0 / (1u128 << 101) as f32;

    /// AVX-512 nest entry; both stages must have
    /// [`f32_lanes`](VecStage::f32_lanes). Falls back to the AVX2 nest
    /// (which falls back further) when the CPU lacks the features —
    /// defensive, the dispatcher already checks — and when a coordinate
    /// could leave its field of [`sr_event_index`]: the hash inputs
    /// below are built by *adding* the row, column and `k` parts of the
    /// index, which equals the packed index only while the fields
    /// cannot carry into each other. The AVX2 nest packs per lane; it
    /// is the definition.
    pub(crate) fn gemm_avx512_f32<M: VecStage, A: VecStage, T: MacObserver>(
        g: Gemm<'_>,
        mul: &M,
        acc: &A,
        mul_obs: &mut T,
        acc_obs: &mut T,
    ) {
        let fields_disjoint =
            g.row_offset + g.n <= 1 << 22 && g.col_offset + g.m <= 1 << 20 && g.k <= 1 << 20;
        if !fields_disjoint || !mpt_formats::simd::avx512_supported() {
            return gemm_avx2(g, mul, acc, mul_obs, acc_obs);
        }
        // The nest addresses `out` and `bd` through raw pointers.
        assert_eq!(g.out.len(), g.n * g.m, "output is n x m");
        assert_eq!(g.ad.len(), g.n * g.k, "A is n x k");
        assert_eq!(g.bd.len(), g.k * g.m, "B is k x m");
        // SAFETY: AVX-512 F + DQ + VL availability checked at runtime
        // just above; the three slices have the lengths `inner`
        // requires.
        unsafe { inner(g, mul, acc, mul_obs, acc_obs) }
    }

    /// What the whole GEMM shares: both stages, their 16-lane
    /// quantizers and seeds.
    struct Nest<'a, M: VecStage, A: VecStage> {
        mul: &'a M,
        acc: &'a A,
        mul_v: M::Vec16,
        acc_v: A::Vec16,
        mul_seed: __m512i,
        acc_seed: __m512i,
    }

    /// One 16-lane block of a strip.
    struct Block {
        /// Column offset within the strip: 0 or 16.
        at: usize,
        /// Global column of lane 0.
        gj: usize,
        /// Lanes inside the matrix: all, a partial tail, or none.
        /// Masked-off lanes are neither loaded nor stored, so no block
        /// reads or writes past its row.
        lanes: __mmask16,
        /// The column part of the hash inputs of lanes 0–7 and 8–15:
        /// `sr_event_index(0, gj + lane, 0, Multiply) · INDEX_MUL` (the
        /// multiplier's stage tag is 0). Adding a [`Step`]'s
        /// row-and-`k` part gives `index · INDEX_MUL` exactly (mod
        /// 2^64, multiplication distributes over the carry-free field
        /// sum), and XOR-ing the seed gives
        /// [`SrRng::hash_input`](mpt_formats::SrRng::hash_input).
        hash_lo: __m512i,
        hash_hi: __m512i,
    }

    impl Block {
        /// Block `u` of the strip at column `j0` of a `g`-shaped GEMM.
        ///
        /// # Safety
        ///
        /// The host must support AVX-512 F + DQ.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        unsafe fn new(g: &Gemm<'_>, j0: usize, u: usize) -> Self {
            let (at, gj) = (16 * u, j0 + g.col_offset + 16 * u);
            let width = (g.m - j0).saturating_sub(at).min(16);
            let hash = |first: usize| {
                let cols = _mm512_add_epi64(
                    _mm512_set1_epi64(first as i64),
                    _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                );
                _mm512_mullo_epi64(
                    _mm512_slli_epi64::<22>(cols),
                    _mm512_set1_epi64(INDEX_MUL as i64),
                )
            };
            Block {
                at,
                gj,
                lanes: ((1u32 << width) - 1) as __mmask16,
                hash_lo: hash(gj),
                hash_hi: hash(gj + 8),
            }
        }
    }

    /// One reduction step of one output row, shared by the strip's
    /// blocks: `A`'s element, which the vector lanes take only finite
    /// and non-zero.
    struct Step {
        /// The broadcast `A` element.
        av: __m512,
        /// The row-and-`k` part of each stage's hash inputs:
        /// `sr_event_index(gi, 0, kk, stage) · INDEX_MUL`, broadcast.
        mul_hash: __m512i,
        acc_hash: __m512i,
    }

    impl Step {
        /// # Safety
        ///
        /// The host must support AVX-512 F.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        unsafe fn new(gi: usize, kk: usize, a: f32) -> Self {
            let hash = |stage| {
                _mm512_set1_epi64(sr_event_index(gi, 0, kk, stage).wrapping_mul(INDEX_MUL) as i64)
            };
            Step {
                av: _mm512_set1_ps(a),
                mul_hash: hash(MacStage::Multiply),
                acc_hash: hash(MacStage::Accumulate),
            }
        }
    }

    /// `a != 0 && a.is_finite()`, as one compare on the magnitude
    /// bits.
    #[inline]
    fn finite_non_zero(a: f32) -> bool {
        (a.to_bits() & 0x7FFF_FFFF).wrapping_sub(1) < f32::MAX.to_bits()
    }

    /// A block's part of `B`'s row (`brow`, the strip's part) and its
    /// live lanes: those inside the matrix whose product with a
    /// finite, non-zero `A` element is not an exact zero — which the
    /// reference skips — that is, where `b` is not zero. An
    /// underflowed product stays live.
    ///
    /// # Safety
    ///
    /// The host must support AVX-512 F, and `brow[block.at + l]` must
    /// be readable for every lane `l` set in `block.lanes`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn load_b(block: &Block, brow: *const f32) -> (__m512, __mmask16) {
        // (`wrapping_add`: an empty block's pointer may lie past the
        // buffer; it is never dereferenced.)
        let b = _mm512_maskz_loadu_ps(block.lanes, brow.wrapping_add(block.at));
        let live = _mm512_mask_cmp_ps_mask::<_CMP_NEQ_UQ>(block.lanes, b, _mm512_setzero_ps());
        (b, live)
    }

    /// One block's reduction step on the vector lanes.
    struct Lanes {
        /// Lanes inside the matrix whose product is not an exact zero.
        live: __mmask16,
        /// Live lanes the vector result does not cover: inexact in
        /// `f32`, or handed back by a stage's quantizer.
        settle: __mmask16,
        /// The rounded products, the `f32` sums and their rounded
        /// values.
        prod: __m512,
        sum: __m512,
        q: __m512,
    }

    impl<M: VecStage, A: VecStage> Nest<'_, M, A> {
        /// One reduction step of one block: which of its live lanes
        /// must settle, and the rounded sums of the others, given the
        /// old accumulators (`sums`) and the block's [`load_b`]. `A`'s
        /// element must be finite and non-zero.
        ///
        /// # Safety
        ///
        /// The host must support AVX-512 F + DQ + VL.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        unsafe fn lanes16(
            &self,
            step: &Step,
            block: &Block,
            sums: __m512,
            (b, live): (__m512, __mmask16),
        ) -> Lanes {
            let zero = _mm512_setzero_ps();
            if live == 0 {
                return Lanes {
                    live,
                    settle: 0,
                    prod: sums,
                    sum: sums,
                    q: sums,
                };
            }
            let hash = |part: __m512i, stage: __m512i, seed: __m512i| {
                _mm512_xor_si512(_mm512_add_epi64(part, stage), seed)
            };
            let prod = _mm512_mul_ps(step.av, b);
            let residual = _mm512_fmsub_ps(step.av, b, prod);
            let tiny = _mm512_set1_ps(EXACT_PRODUCT_MIN);
            let exact = _mm512_mask_cmp_ps_mask::<_CMP_EQ_OQ>(live, residual, zero);
            let mut exact = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(exact, _mm512_abs_ps(prod), tiny);
            let mut prod = prod;
            if !M::IDENTITY {
                let (lo, hi) = (
                    hash(block.hash_lo, step.mul_hash, self.mul_seed),
                    hash(block.hash_hi, step.mul_hash, self.mul_seed),
                );
                let (q, fast) = M::quantize16(&self.mul_v, prod, lo, hi);
                (prod, exact) = (q, _kand_mask16(exact, fast));
            }
            let sum = _mm512_add_ps(sums, prod);
            let exact =
                _mm512_mask_cmp_ps_mask::<_CMP_EQ_OQ>(exact, _mm512_sub_ps(sum, sums), prod);
            let exact =
                _mm512_mask_cmp_ps_mask::<_CMP_EQ_OQ>(exact, _mm512_sub_ps(sum, prod), sums);
            let (lo, hi) = (
                hash(block.hash_lo, step.acc_hash, self.acc_seed),
                hash(block.hash_hi, step.acc_hash, self.acc_seed),
            );
            let (q, fast) = A::quantize16(&self.acc_v, sum, lo, hi);
            Lanes {
                live,
                settle: _kandn_mask16(_kand_mask16(exact, fast), live),
                prod,
                sum,
                q,
            }
        }

        /// The spill behind the `f32` lanes, taken only when a lane
        /// of the step must settle, `A`'s element is zero or not
        /// finite, or someone is watching: redoes step `(gi, kk)` of
        /// both blocks from their old accumulators (each block's
        /// `&mut`), runs the lanes the vector result does not cover
        /// through the scalar [`mac_round`] — from the `f32`
        /// accumulator, with the exact `f64` product, at the packed
        /// [`sr_event_index`], skipping exact zero products — shows the
        /// other live lanes' exact products and sums to the observers,
        /// and leaves the new accumulators in their place. The
        /// accumulators pass through memory, so no vector register is
        /// live across the call and the hot loop keeps them in
        /// registers.
        ///
        /// # Safety
        ///
        /// The host must support AVX-512 F + DQ + VL, and
        /// `brow[block.at + l]` must be readable for every block and
        /// lane `l` set in its `lanes`.
        #[cold]
        #[inline(never)]
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
        unsafe fn settle<T: MacObserver>(
            &self,
            (gi, kk, a): (usize, usize, f32),
            blocks: [(&Block, &mut __m512); 2],
            brow: *const f32,
            mul_obs: &mut T,
            acc_obs: &mut T,
        ) {
            let step = Step::new(gi, kk, a);
            let vector = finite_non_zero(a);
            for (block, acc) in blocks {
                let done = if vector {
                    self.lanes16(&step, block, *acc, load_b(block, brow))
                } else {
                    Lanes {
                        live: block.lanes,
                        settle: block.lanes,
                        prod: *acc,
                        sum: *acc,
                        q: *acc,
                    }
                };
                let store = |v: __m512| {
                    let mut out = [0f32; 16];
                    _mm512_storeu_ps(out.as_mut_ptr(), v);
                    out
                };
                let (old, prod, sum, q) = (
                    store(*acc),
                    store(done.prod),
                    store(done.sum),
                    store(done.q),
                );
                let mut out = old;
                for l in 0..16 {
                    if done.live & (1 << l) == 0 {
                        continue;
                    }
                    let product = a as f64 * *brow.add(block.at + l) as f64;
                    if done.settle & (1 << l) != 0 {
                        if product != 0.0 {
                            out[l] = mac_round(
                                old[l],
                                product,
                                self.mul,
                                self.acc,
                                gi,
                                block.gj + l,
                                kk,
                                mul_obs,
                                acc_obs,
                            );
                        }
                    } else {
                        if !M::IDENTITY {
                            mul_obs.record(product, prod[l] as f64);
                        }
                        acc_obs.record(sum[l] as f64, q[l] as f64);
                        out[l] = q[l];
                    }
                }
                *acc = _mm512_loadu_ps(out.as_ptr());
            }
        }
    }

    /// # Safety
    ///
    /// The host must support AVX-512 F + DQ + VL, both stages must
    /// have [`f32_lanes`](VecStage::f32_lanes), and `g.out`, `g.ad` and
    /// `g.bd` must hold `n·m`, `n·k` and `k·m` elements.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    unsafe fn inner<M: VecStage, A: VecStage, T: MacObserver>(
        g: Gemm<'_>,
        mul: &M,
        acc: &A,
        mul_obs: &mut T,
        acc_obs: &mut T,
    ) {
        let nest = Nest {
            mul,
            acc,
            mul_v: mul.vec16(),
            acc_v: acc.vec16(),
            mul_seed: _mm512_set1_epi64(mul.rng().seed() as i64),
            acc_seed: _mm512_set1_epi64(acc.rng().seed() as i64),
        };
        for j0 in (0..g.m).step_by(STRIP) {
            let (b0, b1) = (Block::new(&g, j0, 0), Block::new(&g, j0, 1));
            for i in 0..g.n {
                let gi = i + g.row_offset;
                let arow = &g.ad[i * g.k..(i + 1) * g.k];
                let orow = g.out.as_mut_ptr().add(i * g.m + j0);
                let load = |b: &Block| _mm512_maskz_loadu_ps(b.lanes, orow.wrapping_add(b.at));
                let (mut s0, mut s1) = (load(&b0), load(&b1));
                for (kk, &a) in arow.iter().enumerate() {
                    if a == 0.0 && g.b_all_finite {
                        continue;
                    }
                    let brow = g.bd.as_ptr().add(kk * g.m + j0);
                    if finite_non_zero(a) {
                        let (v0, v1) = (load_b(&b0, brow), load_b(&b1, brow));
                        if v0.1 | v1.1 == 0 {
                            // Every product of the step is an exact
                            // zero.
                            continue;
                        }
                        if !T::ACTIVE {
                            let step = Step::new(gi, kk, a);
                            let l0 = nest.lanes16(&step, &b0, s0, v0);
                            let l1 = nest.lanes16(&step, &b1, s1, v1);
                            if _kortestz_mask16_u8(l0.settle, l1.settle) != 0 {
                                // Skipped lanes keep their accumulator,
                                // like the scalar `continue`.
                                s0 = _mm512_mask_mov_ps(s0, l0.live, l0.q);
                                s1 = _mm512_mask_mov_ps(s1, l1.live, l1.q);
                                continue;
                            }
                        }
                    }
                    let (mut t0, mut t1) = (s0, s1);
                    let blocks = [(&b0, &mut t0), (&b1, &mut t1)];
                    nest.settle((gi, kk, a), blocks, brow, mul_obs, acc_obs);
                    (s0, s1) = (t0, t1);
                }
                _mm512_mask_storeu_ps(orow.wrapping_add(b0.at), b0.lanes, s0);
                _mm512_mask_storeu_ps(orow.wrapping_add(b1.at), b1.lanes, s1);
            }
        }
    }
}
