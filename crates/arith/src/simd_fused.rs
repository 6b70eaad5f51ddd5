//! The lane-parallel MAC GEMM loop nest of the vector `MPT_SIMD` tiers
//! (x86_64 only): one design, written once against `mpt-formats`'
//! [`Width`] trait and run at two widths — 16 `f32` lanes on the
//! `avx512` tier ([`Avx512`], k-masks) and 8 on the `avx2` tier
//! ([`Avx2`], blend vectors). [`NestWidth`] adds the nest's two entry
//! points under each width's target features.
//!
//! It is a drop-in replacement for the scalar nest in
//! [`crate::kernels`]: same ascending-`k` reduction per output element,
//! same [`sr_event_index`] event stream per stage. Like the scalar nest
//! it is generic over the two rounding [`Stage`]s and the
//! [`MacObserver`]; with the [`Fused`] multiplier the multiplier stage
//! compiles out and what remains is the fused-MAC kernel.
//!
//! **Loop order.** `j-strip / i / k`, where the scalar nest is
//! `i / j-tile / k / j`. A strip is [`STRIP`] output columns: two
//! 16-lane blocks or four 8-lane blocks. The strip's accumulators of
//! one output row stay in registers across the whole `k` reduction; the
//! `f32` output row is loaded once before it and stored once after, and
//! the strip of `B` stays cache-hot across the rows. Each output
//! element still reduces over ascending `k` through the same stages at
//! the same event indices, so the result is bit-identical. Nothing is
//! allocated. Every strip rescans its `A` row for the zero skip, so the
//! strip is 32 columns on both widths: that keeps the rescan's cost the
//! same on both tiers (an earlier 4-lane `f64` attempt at this shape
//! lost on the sparse backward GEMMs with narrower strips).
//!
//! **Why `f32` lanes give the reference's bits.** The reference widens
//! both operands to `f64`, where their product is exact, rounds it
//! through the multiplier stage (unless fused), adds it to the widened
//! accumulator and rounds the `f64` sum. Per lane and step this nest
//! computes `prod = a·b` and `sum = acc + round_mul(prod)` in `f32` and
//! proves each step exact:
//!
//! * the raw product is exact when the FMA residual `fmsub(a, b,
//!   prod)` is zero and `|prod| ≥ 2^-101` (below that the residual can
//!   itself round to zero; a product that underflows `f32` is never
//!   taken for an exact zero either: only `a = 0` or `b = 0` skips);
//! * the sum is exact when `sum − acc == round_mul(prod)` and
//!   `sum − round_mul(prod) == acc` (the subtraction against the larger
//!   operand is exact, so it sees any rounding error of the sum;
//!   overflow and NaN fail it).
//!
//! An exact `f32` value *is* the reference's `f64` value, and the
//! stages' `f32` lane quantizers ([`QuantVec`], [`FixedVec`]) round it
//! exactly as the `f64` kernels do wherever [`VecStage::f32_lanes`]
//! holds for both stages,
//! which is when dispatch takes this nest. The argument does not depend
//! on the width. Every other live lane — inexact, tiny, non-finite or
//! handed back by either quantizer — settles through the scalar
//! [`mac_round`] from the same `f32` accumulator at the same event
//! indices, so the output is bit-identical. A sum that cancels to zero
//! is exact and needs no settling (zero rounds to itself). Over the
//! GEMMs of one LeNet FP8 × FP12-SR training step (batch 32, after 20
//! steps) `f32` is exact for 99.992% of MAC events, 0.14% of sums
//! cancel to zero, and 0.07% of 16-lane blocks settle a lane. The
//! paper's unfused `FXP4.4 × FXP8.8` MAC settles even less: every
//! in-range FXP4.4 product of two FXP4.4 operands has at most 16
//! significant bits and every FXP8.8 sum at most 17, so only NaN, ±inf
//! and out-of-range operands settle.
//!
//! **SR event indices.** Each lane's hash input is the sum of the
//! index's row-and-`k` part (per step) and its column part (per block),
//! each multiplied by the hash constant. That is the packed index times
//! the constant while no field can carry into the next — checked once
//! per GEMM; anything else runs the scalar nest.
//!
//! The observers see the identical `(unrounded, rounded)` pairs the
//! scalar nest shows them, skipping zero products (in a different
//! order; the tallies are sums). GEMMs whose `B` rows are ReLU-sparse
//! gain least, because a block is skipped only when all of its products
//! are zero.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::kernels::{gemm_scalar, Gemm};
use crate::mac::{mac_round, sr_event_index, MacStage};
use crate::stage::{FixedStage, FloatStage, Fused, MacObserver, Stage};
use mpt_formats::lanes::{FixedVec, QuantVec};
use mpt_formats::simd::Width;
use mpt_formats::simd_avx2::Avx2;
use mpt_formats::simd_avx512::Avx512;
use mpt_formats::sr::hash::INDEX_MUL;
use mpt_formats::SimdTier;

/// Output columns per strip.
pub(crate) const STRIP: usize = 32;

/// `2^-101`: the smallest `|prod|` whose FMA residual is exact. A
/// product `a·b` of `f32`s has at most 48 significant bits, so at
/// `|a·b| ≥ 2^-102` its residual is a multiple of `2^-149`, an `f32`;
/// rounding to `prod ≥ 2^-101` keeps `|a·b|` above that.
const EXACT_PRODUCT_MIN: f32 = 1.0 / (1u128 << 101) as f32;

/// A [`Width`] the nest runs at: its two entry points, [`strips`] and
/// [`settle`](Nest::settle), under the width's target features. Every
/// operation on their path is one of [`Width`]'s `#[inline(always)]`
/// ones and compiles into them.
///
/// # Safety
///
/// Both entry points require the host to support the width.
pub(crate) trait NestWidth: Width {
    /// The nest's loops ([`strips`]) at this width, `B` blocks to a
    /// strip.
    unsafe fn strips<const B: usize, M: VecStage, A: VecStage, T: MacObserver>(
        g: Gemm<'_>,
        mul: &M,
        acc: &A,
        mul_obs: &mut T,
        acc_obs: &mut T,
    );
    /// [`Nest::settle`], out of line and cold.
    #[allow(clippy::too_many_arguments)]
    unsafe fn settle<const B: usize, M: VecStage, A: VecStage, T: MacObserver>(
        nest: &Nest<'_, Self, M, A>,
        at: (usize, usize, f32),
        blocks: &[Block<Self>; B],
        accs: &mut [Self::V; B],
        brow: *const f32,
        mul_obs: &mut T,
        acc_obs: &mut T,
    );
}

/// The [`NestWidth`] impl of `$width` under target features
/// `$features`.
macro_rules! nest_width {
    ($width:ty, $features:literal) => {
        impl NestWidth for $width {
            #[target_feature(enable = $features)]
            unsafe fn strips<const B: usize, M: VecStage, A: VecStage, T: MacObserver>(
                g: Gemm<'_>,
                mul: &M,
                acc: &A,
                mul_obs: &mut T,
                acc_obs: &mut T,
            ) {
                strips::<Self, B, M, A, T>(g, mul, acc, mul_obs, acc_obs)
            }

            #[cold]
            #[inline(never)]
            #[target_feature(enable = $features)]
            unsafe fn settle<const B: usize, M: VecStage, A: VecStage, T: MacObserver>(
                nest: &Nest<'_, Self, M, A>,
                at: (usize, usize, f32),
                blocks: &[Block<Self>; B],
                accs: &mut [Self::V; B],
                brow: *const f32,
                mul_obs: &mut T,
                acc_obs: &mut T,
            ) {
                nest.settle(at, blocks, accs, brow, mul_obs, acc_obs)
            }
        }
    };
}

nest_width!(Avx512, "avx512f,avx512dq,avx512vl");
nest_width!(Avx2, "avx2,fma");

/// The vector forms of a [`Stage`]: whether `f32` lanes carry it, and
/// its `f32` lane quantizer at each [`Width`].
pub(crate) trait VecStage: Stage {
    /// The stage's quantizer at width `W`, its constants broadcast.
    type Q<W: Width>: Copy;

    /// Whether `f32` lanes carry the stage: every value it emits is an
    /// `f32`, and its lane quantizers equal the scalar one on `f32`
    /// inputs — floats with at most 8 exponent and 22 mantissa bits,
    /// fixed point of at most 24 bits, either under a deterministic
    /// mode or SR with at most
    /// [`MAX_RANDOM_BITS`](mpt_formats::simd::MAX_RANDOM_BITS) random
    /// bits. Decided from the configuration alone.
    fn f32_lanes(&self) -> bool;

    /// Builds [`Q`](VecStage::Q).
    ///
    /// # Panics
    ///
    /// Panics unless [`f32_lanes`](VecStage::f32_lanes) holds.
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    unsafe fn vec<W: Width>(&self) -> Self::Q<W>;

    /// Rounds the lanes of `x`, with the hash inputs
    /// (`rng().hash_input(index)`, read only under SR) of the
    /// low and high lanes in `lo` and `hi`. Returns the results and the
    /// mask of valid lanes — the caller recomputes the others through
    /// [`Stage::quantize`].
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    unsafe fn round<W: Width>(q: &Self::Q<W>, x: W::V, lo: W::H, hi: W::H) -> (W::V, W::K);
}

impl VecStage for Fused {
    type Q<W: Width> = ();

    fn f32_lanes(&self) -> bool {
        true
    }

    #[inline(always)]
    unsafe fn vec<W: Width>(&self) {}

    #[inline(always)]
    unsafe fn round<W: Width>(_q: &(), x: W::V, _lo: W::H, _hi: W::H) -> (W::V, W::K) {
        (x, W::prefix(W::N))
    }
}

impl<const MODE: u8> VecStage for FloatStage<MODE> {
    type Q<W: Width> = QuantVec<W>;

    fn f32_lanes(&self) -> bool {
        self.0.f32_lanes()
    }

    #[inline(always)]
    unsafe fn vec<W: Width>(&self) -> QuantVec<W> {
        QuantVec::new(&self.0)
    }

    #[inline(always)]
    unsafe fn round<W: Width>(q: &QuantVec<W>, x: W::V, lo: W::H, hi: W::H) -> (W::V, W::K) {
        q.quantize::<MODE>(x, lo, hi)
    }
}

impl<const MODE: u8> VecStage for FixedStage<MODE> {
    type Q<W: Width> = FixedVec<W>;

    fn f32_lanes(&self) -> bool {
        self.0.f32_lanes()
    }

    #[inline(always)]
    unsafe fn vec<W: Width>(&self) -> FixedVec<W> {
        FixedVec::new(&self.0)
    }

    #[inline(always)]
    unsafe fn round<W: Width>(q: &FixedVec<W>, x: W::V, lo: W::H, hi: W::H) -> (W::V, W::K) {
        q.quantize::<MODE>(x, lo, hi)
    }
}

/// The vector tiers' nest entry: runs the nest at the widest width
/// `tier` allows and the host supports, or the scalar nest where `f32`
/// lanes do not carry both stages or a coordinate could leave its field
/// of [`sr_event_index`] (see the module docs). Returns the tier whose
/// nest ran.
pub(crate) fn gemm_lanes<M: VecStage, A: VecStage, T: MacObserver>(
    g: Gemm<'_>,
    mul: &M,
    acc: &A,
    tier: SimdTier,
    mul_obs: &mut T,
    acc_obs: &mut T,
) -> SimdTier {
    let fields_disjoint =
        g.row_offset + g.n <= 1 << 22 && g.col_offset + g.m <= 1 << 20 && g.k <= 1 << 20;
    if fields_disjoint && mul.f32_lanes() && acc.f32_lanes() {
        if tier == SimdTier::Avx512 && Avx512::supported() {
            // SAFETY: the width is supported, both stages have f32
            // lanes and the fields are disjoint, all checked above.
            unsafe { nest::<Avx512, 2, M, A, T>(g, mul, acc, mul_obs, acc_obs) };
            return SimdTier::Avx512;
        }
        if Avx2::supported() {
            // SAFETY: as above.
            unsafe { nest::<Avx2, 4, M, A, T>(g, mul, acc, mul_obs, acc_obs) };
            return SimdTier::Avx2;
        }
    }
    gemm_scalar(g, mul, acc, mul_obs, acc_obs);
    SimdTier::Off
}

/// The nest at width `W`, `B` blocks to a strip.
///
/// # Safety
///
/// The host must support `W`, both stages must have
/// [`f32_lanes`](VecStage::f32_lanes), and every coordinate must stay
/// inside its field of [`sr_event_index`].
unsafe fn nest<W: NestWidth, const B: usize, M: VecStage, A: VecStage, T: MacObserver>(
    g: Gemm<'_>,
    mul: &M,
    acc: &A,
    mul_obs: &mut T,
    acc_obs: &mut T,
) {
    const { assert!(B * W::N == STRIP, "a strip is STRIP columns") };
    // The nest addresses `out` and `bd` through raw pointers.
    assert_eq!(g.out.len(), g.n * g.m, "output is n x m");
    assert_eq!(g.ad.len(), g.n * g.k, "A is n x k");
    assert_eq!(g.bd.len(), g.k * g.m, "B is k x m");
    W::strips::<B, M, A, T>(g, mul, acc, mul_obs, acc_obs)
}

/// What the whole GEMM shares: both stages, their quantizers and seeds.
pub(crate) struct Nest<'a, W: NestWidth, M: VecStage, A: VecStage> {
    mul: &'a M,
    acc: &'a A,
    mul_q: M::Q<W>,
    acc_q: A::Q<W>,
    mul_seed: W::H,
    acc_seed: W::H,
}

/// One block of a strip.
#[derive(Clone, Copy)]
pub(crate) struct Block<W: Width> {
    /// Column offset within the strip.
    at: usize,
    /// Global column of lane 0.
    gj: usize,
    /// Lanes inside the matrix: all, a partial tail, or none. Masked-off
    /// lanes are neither loaded nor stored, so no block reads or writes
    /// past its row.
    lanes: W::K,
    /// The column part of the hash inputs of the low and high lanes:
    /// `sr_event_index(0, gj + lane, 0, Multiply) · INDEX_MUL` (the
    /// multiplier's stage tag is 0). Adding a [`Step`]'s row-and-`k`
    /// part gives `index · INDEX_MUL` exactly (mod 2^64, multiplication
    /// distributes over the carry-free field sum), and XOR-ing the seed
    /// gives [`SrRng::hash_input`](mpt_formats::SrRng::hash_input).
    hash_lo: W::H,
    hash_hi: W::H,
}

impl<W: Width> Block<W> {
    /// Block `u` of the strip at column `j0` of a `g`-shaped GEMM.
    #[inline(always)]
    unsafe fn new(g: &Gemm<'_>, j0: usize, u: usize) -> Self {
        let (at, gj) = (W::N * u, j0 + g.col_offset + W::N * u);
        let width = (g.m - j0).saturating_sub(at).min(W::N);
        // The column field, packed by hand: lanes past the matrix may
        // lie past the field, and their hash inputs are never read.
        let cols: [u64; 16] =
            core::array::from_fn(|l| (((gj + l) as u64) << 22).wrapping_mul(INDEX_MUL));
        Block {
            at,
            gj,
            lanes: W::prefix(width),
            hash_lo: W::load64(cols.as_ptr()),
            hash_hi: W::load64(cols[W::N / 2..].as_ptr()),
        }
    }
}

/// One reduction step of one output row, shared by the strip's blocks:
/// `A`'s element, which the vector lanes take only finite and non-zero.
struct Step<W: Width> {
    /// The broadcast `A` element.
    av: W::V,
    /// The row-and-`k` part of each stage's hash inputs:
    /// `sr_event_index(gi, 0, kk, stage) · INDEX_MUL`, broadcast.
    mul_hash: W::H,
    acc_hash: W::H,
}

impl<W: Width> Step<W> {
    #[inline(always)]
    unsafe fn new(gi: usize, kk: usize, a: f32) -> Self {
        let hash = |stage| sr_event_index(gi, 0, kk, stage).wrapping_mul(INDEX_MUL);
        Step {
            av: W::splat(a),
            mul_hash: W::splat64(hash(MacStage::Multiply)),
            acc_hash: W::splat64(hash(MacStage::Accumulate)),
        }
    }
}

/// `a != 0 && a.is_finite()`, as one compare on the magnitude bits.
#[inline]
fn finite_non_zero(a: f32) -> bool {
    (a.to_bits() & 0x7FFF_FFFF).wrapping_sub(1) < f32::MAX.to_bits()
}

/// A block's part of `B`'s row (`brow`, the strip's part) and its live
/// lanes: those inside the matrix whose product with a finite, non-zero
/// `A` element is not an exact zero — which the reference skips — that
/// is, where `b` is not zero. An underflowed product stays live.
///
/// # Safety
///
/// `brow[block.at + l]` must be readable for every lane `l` set in
/// `block.lanes`.
#[inline(always)]
unsafe fn load_b<W: Width>(block: &Block<W>, brow: *const f32) -> (W::V, W::K) {
    // (`wrapping_add`: an empty block's pointer may lie past the
    // buffer; it is never dereferenced.)
    let b = W::load(block.lanes, brow.wrapping_add(block.at));
    (b, W::cmp::<_CMP_NEQ_UQ>(block.lanes, b, W::splat(0.0)))
}

/// One block's reduction step on the vector lanes.
struct Round<W: Width> {
    /// Lanes inside the matrix whose product is not an exact zero.
    live: W::K,
    /// Live lanes the vector result does not cover: inexact in `f32`,
    /// or handed back by a stage's quantizer.
    settle: W::K,
    /// The rounded products, the `f32` sums and their rounded values.
    prod: W::V,
    sum: W::V,
    q: W::V,
}

impl<W: NestWidth, M: VecStage, A: VecStage> Nest<'_, W, M, A> {
    /// One reduction step of one block: which of its live lanes must
    /// settle, and the rounded sums of the others, given the old
    /// accumulators (`sums`) and the block's [`load_b`]. `A`'s element
    /// must be finite and non-zero.
    #[inline(always)]
    unsafe fn round(
        &self,
        step: &Step<W>,
        block: &Block<W>,
        sums: W::V,
        (b, live): (W::V, W::K),
    ) -> Round<W> {
        if W::none(live) {
            return Round {
                live,
                settle: live,
                prod: sums,
                sum: sums,
                q: sums,
            };
        }
        let zero = W::splat(0.0);
        let prod = W::mul(step.av, b);
        let residual = W::fmsub(step.av, b, prod);
        let exact = W::cmp::<_CMP_EQ_OQ>(live, residual, zero);
        let tiny = W::splat(EXACT_PRODUCT_MIN);
        let mut exact = W::cmp::<_CMP_GE_OQ>(exact, W::abs(prod), tiny);
        let mut prod = prod;
        if !M::IDENTITY {
            let (lo, hi) = (
                W::hash(block.hash_lo, step.mul_hash, self.mul_seed),
                W::hash(block.hash_hi, step.mul_hash, self.mul_seed),
            );
            let (q, fast) = M::round::<W>(&self.mul_q, prod, lo, hi);
            (prod, exact) = (q, W::and(exact, fast));
        }
        let sum = W::add(sums, prod);
        let exact = W::cmp::<_CMP_EQ_OQ>(exact, W::sub(sum, sums), prod);
        let exact = W::cmp::<_CMP_EQ_OQ>(exact, W::sub(sum, prod), sums);
        let (lo, hi) = (
            W::hash(block.hash_lo, step.acc_hash, self.acc_seed),
            W::hash(block.hash_hi, step.acc_hash, self.acc_seed),
        );
        let (q, fast) = A::round::<W>(&self.acc_q, sum, lo, hi);
        Round {
            live,
            settle: W::andn(W::and(exact, fast), live),
            prod,
            sum,
            q,
        }
    }

    /// The spill behind the `f32` lanes, taken only when a lane of the
    /// step must settle, `A`'s element is zero or not finite, or someone
    /// is watching: redoes step `(gi, kk)` of every block from its old
    /// accumulators, runs the lanes the vector result does not cover
    /// through the scalar [`mac_round`] — from the `f32` accumulator,
    /// with the exact `f64` product, at the packed [`sr_event_index`],
    /// skipping exact zero products — shows the other live lanes' exact
    /// products and sums to the observers, and leaves the new
    /// accumulators in `accs`. The caller runs it in [`NestWidth::settle`] on
    /// a copy of its accumulators, so no vector register is live across
    /// the call and the hot loop keeps them in registers.
    ///
    /// # Safety
    ///
    /// `brow[block.at + l]` must be readable for every block and lane
    /// `l` set in its `lanes`.
    #[inline(always)]
    unsafe fn settle<const B: usize, T: MacObserver>(
        &self,
        (gi, kk, a): (usize, usize, f32),
        blocks: &[Block<W>; B],
        accs: &mut [W::V; B],
        brow: *const f32,
        mul_obs: &mut T,
        acc_obs: &mut T,
    ) {
        let step = Step::new(gi, kk, a);
        let vector = finite_non_zero(a);
        let all = W::prefix(W::N);
        let spill = |v: W::V| {
            let mut out = [0f32; 16];
            W::store(all, out.as_mut_ptr(), v);
            out
        };
        for (block, acc) in blocks.iter().zip(accs) {
            let done = if vector {
                self.round(&step, block, *acc, load_b(block, brow))
            } else {
                Round {
                    live: block.lanes,
                    settle: block.lanes,
                    prod: *acc,
                    sum: *acc,
                    q: *acc,
                }
            };
            let (old, prod, sum, q) = (
                spill(*acc),
                spill(done.prod),
                spill(done.sum),
                spill(done.q),
            );
            let (live, settle) = (W::bits(done.live), W::bits(done.settle));
            let mut out = old;
            for l in 0..W::N {
                if live & (1 << l) == 0 {
                    continue;
                }
                let product = a as f64 * *brow.add(block.at + l) as f64;
                if settle & (1 << l) != 0 {
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
            *acc = W::load(all, out.as_ptr());
        }
    }
}

/// The nest's loops, inlined into [`NestWidth::strips`].
///
/// # Safety
///
/// As [`nest`], whose length checks must have passed.
#[inline(always)]
unsafe fn strips<W: NestWidth, const B: usize, M: VecStage, A: VecStage, T: MacObserver>(
    g: Gemm<'_>,
    mul: &M,
    acc: &A,
    mul_obs: &mut T,
    acc_obs: &mut T,
) {
    let nest = Nest::<W, M, A> {
        mul,
        acc,
        mul_q: mul.vec::<W>(),
        acc_q: acc.vec::<W>(),
        mul_seed: W::splat64(mul.rng().seed()),
        acc_seed: W::splat64(acc.rng().seed()),
    };
    // Plain loops over the blocks, not `array::from_fn`: a closure run
    // by a `core` function would not inline into the featured entry.
    let (zero, none) = (W::splat(0.0), W::prefix(0));
    for j0 in (0..g.m).step_by(STRIP) {
        let mut blocks = [Block::new(&g, j0, 0); B];
        for (u, block) in blocks.iter_mut().enumerate() {
            *block = Block::new(&g, j0, u);
        }
        for i in 0..g.n {
            let gi = i + g.row_offset;
            let arow = &g.ad[i * g.k..(i + 1) * g.k];
            let orow = g.out.as_mut_ptr().add(i * g.m + j0);
            let mut s = [zero; B];
            for u in 0..B {
                s[u] = W::load(blocks[u].lanes, orow.wrapping_add(blocks[u].at));
            }
            for (kk, &a) in arow.iter().enumerate() {
                if a == 0.0 && g.b_all_finite {
                    continue;
                }
                let brow = g.bd.as_ptr().add(kk * g.m + j0);
                if finite_non_zero(a) {
                    let (mut v, mut live) = ([(zero, none); B], none);
                    for u in 0..B {
                        v[u] = load_b(&blocks[u], brow);
                        live = W::or(live, v[u].1);
                    }
                    if W::none(live) {
                        // Every product of the step is an exact zero.
                        continue;
                    }
                    if !T::ACTIVE {
                        let step = Step::new(gi, kk, a);
                        let (mut next, mut settle) = (s, none);
                        for u in 0..B {
                            let r = nest.round(&step, &blocks[u], s[u], v[u]);
                            // Skipped lanes keep their accumulator, like
                            // the scalar `continue`.
                            next[u] = W::select(s[u], r.live, r.q);
                            settle = W::or(settle, r.settle);
                        }
                        if W::none(settle) {
                            s = next;
                            continue;
                        }
                    }
                }
                let mut t = s;
                W::settle(&nest, (gi, kk, a), &blocks, &mut t, brow, mul_obs, acc_obs);
                s = t;
            }
            for u in 0..B {
                W::store(blocks[u].lanes, orow.wrapping_add(blocks[u].at), s[u]);
            }
        }
    }
}
