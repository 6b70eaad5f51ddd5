//! The `f32` lane quantizers, one per format family, written once over
//! the lane [`Width`]: [`QuantVec`] for floats and [`FixedVec`] for
//! fixed point. `mpt-arith`'s MAC nest runs them on its sums and
//! products, and the slice loop on operand slices; the `avx512` tier
//! runs both at 16 lanes and the `avx2` tier at 8.
//!
//! The hand-back contract is the same at both widths: `quantize` returns
//! the rounded lanes and the mask of lanes whose result is valid, and
//! the caller recomputes the others through the family's scalar kernel
//! ([`FloatFastF64`], [`FixedFastF64`]) at the same event index. Each
//! quantizer replays its scalar kernel's operation sequence per lane, so
//! on `f32` inputs the results are **bit-identical** to the scalar tier
//! wherever `f32_lanes` holds for the kernel (pinned by
//! `tests/float_oracle.rs`, `tests/fixed_oracle.rs` and
//! `tests/fast_equivalence.rs`). Lanes outside the provable fast regime
//! (floats: `f32` subnormals, the target's subnormal range, ±inf, NaN;
//! fixed point: ±inf, NaN) are handed back.
//!
//! Stochastic rounding compares 32-bit draws ([`Width::draws`]) with
//! the discarded fraction, which is why `f32` lanes take at most
//! [`MAX_RANDOM_BITS`](crate::simd::MAX_RANDOM_BITS) random bits.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_cvtsi32_si128, _CMP_EQ_OQ, _CMP_LT_OQ, _CMP_NEQ_OQ, _MM_FROUND_NO_EXC,
    _MM_FROUND_TO_NEAREST_INT, _MM_FROUND_TO_NEG_INF, _MM_FROUND_TO_ZERO,
};

use crate::fast::{mode, FloatFastF64};
use crate::fixed_fast::FixedFastF64;
use crate::rounding::Rounding;
use crate::simd::{avx2_supported, avx512_supported, SimdTier, Width};
use crate::simd_avx2::Avx2;
use crate::simd_avx512::Avx512;
use crate::sr::hash::INDEX_MUL;

/// Broadcast [`FloatFastF64`] constants for the `f32` float quantizer
/// at width `W`, built once per slice or GEMM.
///
/// On `f32` inputs it equals [`FloatFastF64::quantize`] of the widened
/// lane: in the fast regime (the format's normal range, and zero) the
/// `f32` carrier holds the value exactly and the integer steps below
/// round it to the same format point, and the SR draw is the same top
/// `rb` bits of the same SplitMix64 word. `rem == 0` (an exactly
/// representable lane, zero included) needs no special case in three of
/// the four modes: RZ yields `q == abs`; RN's `up` is false (`0 <
/// half`); SR reduces to `abs` for both signs (positive: `frac == 0`
/// never exceeds the draw; negative: `r == 2^ts` makes `frac == 2^31`,
/// which always exceeds it, and the XOR with the sign cancels the
/// increment). Only RO must mask, since `q | ts_bit` would perturb
/// exact values.
#[derive(Debug, Clone, Copy)]
pub struct QuantVec<W: Width> {
    /// `(1 << ts) - 1`: the discarded mantissa bits (`ts = 23 - man`).
    rem_mask: W::I,
    /// `1 << (ts - 1)`: the round-to-nearest tie point.
    half: W::I,
    /// `1 << ts`: one ULP of the format as a carrier bit increment.
    ts_bit: W::I,
    /// The smallest fast-regime magnitude bits, `2^min_exp` (or the
    /// smallest normal `f32`).
    lo: W::I,
    /// The fast regime is `lo <= abs < lo + span`, with `lo + span` the
    /// bits of infinity: one unsigned compare after subtracting `lo`.
    span: W::I,
    /// The largest magnitude bits that do not overflow.
    max_abs: W::I,
    /// The magnitude bits returned on overflow (saturated max or inf).
    sat: W::I,
    /// All lanes when the kept significand is the implicit 1 alone
    /// (`man == 0`, always odd), else none.
    odd_force: W::K,
    /// RO's increment: `ts_bit`, or zero where the kept significand is
    /// always odd (OR-ing bit `ts` would hit the exponent field).
    or_bit: W::I,
    /// `31 - ts`: aligns the discarded fraction to bit 31.
    frac_cnt: __m128i,
    /// `!0 << (31 - rb)`: the aligned fraction's top `rb` bits.
    rb_mask: W::I,
}

impl<W: Width> QuantVec<W> {
    /// Broadcasts `fast`'s constants into vector registers.
    ///
    /// # Panics
    ///
    /// Panics unless [`FloatFastF64::f32_lanes`] holds for `fast`.
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    #[inline(always)]
    pub unsafe fn new(fast: &FloatFastF64) -> Self {
        assert!(
            fast.f32_lanes(),
            "{} with {} random bits does not fit the f32 lanes",
            fast.format(),
            fast.rb
        );
        let format = fast.format();
        let ts = 23 - format.man_bits();
        let lo = ((format.min_exp() + 127).max(1) as u32) << 23;
        // With at most 8 exponent bits the largest value is an `f32`.
        let max_abs = (format.max_value() as f32).to_bits();
        let implicit_odd = format.man_bits() == 0;
        QuantVec {
            rem_mask: W::splat_i((1 << ts) - 1),
            half: W::splat_i(1 << (ts - 1)),
            ts_bit: W::splat_i(1 << ts),
            lo: W::splat_i(lo),
            span: W::splat_i(f32::INFINITY.to_bits() - lo),
            max_abs: W::splat_i(max_abs),
            sat: W::splat_i(if format.saturates() {
                max_abs
            } else {
                f32::INFINITY.to_bits()
            }),
            odd_force: W::prefix(if implicit_odd { W::N } else { 0 }),
            or_bit: W::splat_i(if implicit_odd { 0 } else { 1 << ts }),
            frac_cnt: _mm_cvtsi32_si128(31 - ts as i32),
            rb_mask: W::splat_i(!0u32 << (31 - fast.rb)),
        }
    }

    /// Quantizes the lanes of `x` under mode `MODE`; returns the results
    /// and the mask of lanes inside the fast regime or zero, whose
    /// results are valid. `lo` and `hi` carry `seed ^
    /// event_index·INDEX_MUL` of the low and high lanes (read only under
    /// SR).
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    #[inline(always)]
    pub unsafe fn quantize<const MODE: u8>(&self, x: W::V, lo: W::H, hi: W::H) -> (W::V, W::K) {
        let bits = W::to_bits(x);
        let abs = W::and_i(bits, W::splat_i(i32::MAX as u32));
        // Subnormals and target-subnormal-range values wrap below `lo`;
        // inf/NaN sit at `lo + span` and above. ±0 rounds to itself in
        // every mode, and that is what the arithmetic below yields for
        // it (`rem == 0`), so zeros — most of a ReLU-sparse operand, and
        // sums that cancel — are valid too.
        let zero = W::splat_i(0);
        let fast = W::or(
            W::lt_u(W::sub_i(abs, self.lo), self.span),
            W::eq_i(abs, zero),
        );
        let rem = W::and_i(abs, self.rem_mask);
        let q = W::andn_i(self.rem_mask, abs);
        // Every magnitude here is below 2^31, so signed compares are
        // exact.
        let y = match MODE {
            mode::RZ => q,
            mode::RN => {
                let gt = W::gt_i(rem, self.half);
                let eq = W::eq_i(rem, self.half);
                let odd = W::or(W::test_i(abs, self.ts_bit), self.odd_force);
                W::mask_add_i(q, W::or(gt, W::and(eq, odd)), self.ts_bit)
            }
            mode::RO => W::mask_or_i(q, W::test_i(rem, rem), self.or_bit),
            mode::SR => {
                // Discarded fraction of the *signed* value (`rem`, or
                // `2^ts - rem` for negative lanes), top-aligned to bit
                // 31 and cut to `rb` bits: `frac_bits << (31 - rb)`.
                let neg = W::gt_i(zero, bits);
                let r = W::select_i(rem, neg, W::sub_i(self.ts_bit, rem));
                let frac = W::and_i(W::sll_i(r, self.frac_cnt), self.rb_mask);
                // The draw `mix >> (64 - rb)`, top-aligned the same way,
                // is the top of `draws`. `frac` is a multiple of
                // `2^(31 - rb)`, so `frac > draws` exactly when
                // `frac_bits > draw`.
                let toward_pos_inf = W::lt_u(W::draws(lo, hi), frac);
                W::mask_add_i(q, W::xor(toward_pos_inf, neg), self.ts_bit)
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let out = W::select_i(y, W::gt_i(y, self.max_abs), self.sat);
        (W::from_bits(W::merge_sign(out, bits)), fast)
    }
}

/// Broadcast [`FixedFastF64`] constants for the `f32` fixed-point
/// quantizer at width `W`, with the [`QuantVec::quantize`] contract.
/// The lane body is the oracle's own float sequence on vectors: scale
/// by `2^f`, clamp, round to integer (`vrndscaleps` / `vroundps`),
/// scale back.
///
/// On `f32` inputs it equals [`FixedFastF64::quantize`] lane for lane
/// wherever [`FixedFastF64::f32_lanes`] holds: scaling by `2^f` is exact
/// (or overflows to ±inf, which the clamp takes to the same code as the
/// finite `f64` value), and the clamp bounds, every code of at most 24
/// bits and every integer step between codes are `f32` values. The one
/// step `f32` cannot always hold is SR's discarded fraction
/// `y − floor(y)`: for `y` in `(-1, 0)` it is `1 − |y|`, which needs
/// more than 24 bits when `|y|` is finer than `2^-24`, and the scalar
/// body rounds it to 53. So the fraction is taken in `f64`, as there,
/// and its `rb`-bit truncation compared with the draw on integer lanes.
#[derive(Debug, Clone, Copy)]
pub struct FixedVec<W: Width> {
    scale: W::V,
    inv: W::V,
    code_min: W::V,
    code_max: W::V,
    /// `2^rb`: the fraction's resolution.
    sr_scale: f64,
    /// `31 - rb`: shifts a top-aligned draw down to its `rb` bits.
    rnd_cnt: __m128i,
}

impl<W: Width> FixedVec<W> {
    /// Broadcasts `fast`'s constants into vector registers.
    ///
    /// # Panics
    ///
    /// Panics unless [`FixedFastF64::f32_lanes`] holds for `fast`.
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    #[inline(always)]
    pub unsafe fn new(fast: &FixedFastF64) -> Self {
        assert!(
            fast.f32_lanes(),
            "{} with {} random bits does not fit the f32 lanes",
            fast.format(),
            fast.rb
        );
        FixedVec {
            scale: W::splat(fast.scale as f32),
            inv: W::splat(fast.inv as f32),
            code_min: W::splat(fast.code_min as f32),
            code_max: W::splat(fast.code_max as f32),
            sr_scale: fast.sr_scale,
            rnd_cnt: _mm_cvtsi32_si128(31 - fast.rb as i32),
        }
    }

    /// Quantizes the lanes of `x` under mode `MODE`; returns the results
    /// and the mask of lanes whose result is valid (finite inputs).
    /// `lo` and `hi` carry `seed ^ event_index·INDEX_MUL` of the low and
    /// high lanes (read only under SR).
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    #[inline(always)]
    pub unsafe fn quantize<const MODE: u8>(&self, x: W::V, lo: W::H, hi: W::H) -> (W::V, W::K) {
        const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
        let all = W::prefix(W::N);
        let one = W::splat(1.0);
        let y = W::mul(x, self.scale);
        let y = W::min(W::max(y, self.code_min), self.code_max);
        let code = match MODE {
            mode::RN => {
                // The rounding keeps the sign of zero on [-0.5, 0); the
                // oracle returns +0.0 at exactly -0.5 (see `fixed_fast`).
                let quirk = W::cmp::<_CMP_EQ_OQ>(all, y, W::splat(-0.5));
                W::clear(quirk, W::round::<NEAREST>(y))
            }
            mode::RZ => W::round::<TRUNC>(y),
            mode::RO => {
                let t = W::round::<TRUNC>(y);
                let h = W::mul(t, W::splat(0.5));
                let inexact = W::cmp::<_CMP_NEQ_OQ>(all, t, y);
                let bump = W::cmp::<_CMP_EQ_OQ>(inexact, W::round::<TRUNC>(h), h);
                // ±1.0 carrying y's sign: one step away from zero.
                let away = W::from_bits(W::merge_sign(W::to_bits(one), W::to_bits(y)));
                W::mask_add(t, bump, away)
            }
            mode::SR => {
                let t = W::round::<FLOOR>(y);
                // `(y - t) · 2^rb ≤ 2^31`, reached where `1 - |y|`
                // rounds to 1.
                let frac_bits = W::sr_fraction(y, t, self.sr_scale);
                let rnd = W::srl_i(W::draws(lo, hi), self.rnd_cnt);
                W::mask_add(t, W::lt_u(rnd, frac_bits), one)
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        let finite = W::cmp::<_CMP_LT_OQ>(all, W::abs(x), W::splat(f32::INFINITY));
        (W::mul(code, self.inv), finite)
    }
}

/// A scalar `f64` quantizer kernel with an `f32` lane quantizer:
/// [`FloatFastF64`] ([`QuantVec`]) and [`FixedFastF64`] ([`FixedVec`]).
/// What the slice loop needs of a family.
pub trait LaneKernel: Copy {
    /// The lane quantizer at width `W`.
    type Lanes<W: Width>: Copy;

    /// Whether `f32` lanes carry the kernel.
    fn f32_lanes(&self) -> bool;
    /// The kernel's rounding mode.
    fn rounding(&self) -> Rounding;
    /// The kernel's SR seed.
    fn seed(&self) -> u64;
    /// Quantizes one `f32` at rounding event `index`: the scalar
    /// kernel on the widened value.
    fn quantize_f32<const MODE: u8>(&self, x: f32, index: u64) -> f32;
    /// Builds [`Lanes`](LaneKernel::Lanes).
    ///
    /// # Safety
    ///
    /// The host must support `W`, and [`f32_lanes`](Self::f32_lanes)
    /// must hold.
    unsafe fn lanes<W: Width>(&self) -> Self::Lanes<W>;
    /// The lane quantizer's `quantize::<MODE>`.
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    unsafe fn quantize_lanes<W: Width, const MODE: u8>(
        q: &Self::Lanes<W>,
        x: W::V,
        lo: W::H,
        hi: W::H,
    ) -> (W::V, W::K);
}

impl LaneKernel for FloatFastF64 {
    type Lanes<W: Width> = QuantVec<W>;

    fn f32_lanes(&self) -> bool {
        FloatFastF64::f32_lanes(self)
    }
    fn rounding(&self) -> Rounding {
        FloatFastF64::rounding(self)
    }
    fn seed(&self) -> u64 {
        self.rng().seed()
    }
    #[inline(always)]
    fn quantize_f32<const MODE: u8>(&self, x: f32, index: u64) -> f32 {
        FloatFastF64::quantize_f32::<MODE>(self, x, index)
    }
    #[inline(always)]
    unsafe fn lanes<W: Width>(&self) -> QuantVec<W> {
        QuantVec::new(self)
    }
    #[inline(always)]
    unsafe fn quantize_lanes<W: Width, const MODE: u8>(
        q: &QuantVec<W>,
        x: W::V,
        lo: W::H,
        hi: W::H,
    ) -> (W::V, W::K) {
        q.quantize::<MODE>(x, lo, hi)
    }
}

impl LaneKernel for FixedFastF64 {
    type Lanes<W: Width> = FixedVec<W>;

    fn f32_lanes(&self) -> bool {
        FixedFastF64::f32_lanes(self)
    }
    fn rounding(&self) -> Rounding {
        FixedFastF64::rounding(self)
    }
    fn seed(&self) -> u64 {
        self.rng().seed()
    }
    #[inline(always)]
    fn quantize_f32<const MODE: u8>(&self, x: f32, index: u64) -> f32 {
        self.quantize::<MODE>(x as f64, index) as f32
    }
    #[inline(always)]
    unsafe fn lanes<W: Width>(&self) -> FixedVec<W> {
        FixedVec::new(self)
    }
    #[inline(always)]
    unsafe fn quantize_lanes<W: Width, const MODE: u8>(
        q: &FixedVec<W>,
        x: W::V,
        lo: W::H,
        hi: W::H,
    ) -> (W::V, W::K) {
        q.quantize::<MODE>(x, lo, hi)
    }
}

/// The slice loop of `kernel`'s lane quantizer at width `W`: lane `l` of
/// the block at offset `o` rounds at event `base_index + o + l`; lanes
/// handed back and the tail go through the scalar kernel. The hash
/// inputs of consecutive indices advance by wrapping *adds* of
/// `N·INDEX_MUL` per block (multiplication distributes over addition
/// modulo 2⁶⁴), so no lane multiplies its index; the seed XOR comes
/// after the add, as in the MAC nest.
///
/// # Safety
///
/// The host must support `W`, and [`LaneKernel::f32_lanes`] must hold.
#[inline(always)]
pub(crate) unsafe fn quantize_slice<W: Width, L: LaneKernel, const MODE: u8>(
    kernel: &L,
    values: &mut [f32],
    base_index: u64,
) {
    let q = kernel.lanes::<W>();
    let seed = W::splat64(kernel.seed());
    // Plain loops, not `array::from_fn`: a closure run by a `core`
    // function would not inline into the featured entry.
    let mut parts = [0u64; 16];
    for (l, part) in parts.iter_mut().enumerate() {
        *part = base_index.wrapping_add(l as u64).wrapping_mul(INDEX_MUL);
    }
    let (part_lo, part_hi) = (
        W::load64(parts.as_ptr()),
        W::load64(parts[W::N / 2..].as_ptr()),
    );
    let block_step = (W::N as u64).wrapping_mul(INDEX_MUL);
    let (mut index, mut step) = (base_index, 0u64);
    let all = W::bits(W::prefix(W::N));
    let mut chunks = values.chunks_exact_mut(W::N);
    for chunk in chunks.by_ref() {
        let x = W::loadu(chunk.as_ptr());
        let s = W::splat64(step);
        let (lo, hi) = (W::hash(part_lo, s, seed), W::hash(part_hi, s, seed));
        let (y, ok) = L::quantize_lanes::<W, MODE>(&q, x, lo, hi);
        W::storeu(chunk.as_mut_ptr(), y);
        let ok = W::bits(ok);
        if ok != all {
            let mut xs = [0f32; 16];
            W::storeu(xs.as_mut_ptr(), x);
            for l in 0..W::N {
                if ok & (1 << l) == 0 {
                    chunk[l] = kernel.quantize_f32::<MODE>(xs[l], index.wrapping_add(l as u64));
                }
            }
        }
        index = index.wrapping_add(W::N as u64);
        step = step.wrapping_add(block_step);
    }
    for v in chunks.into_remainder() {
        *v = kernel.quantize_f32::<MODE>(*v, index);
        index = index.wrapping_add(1);
    }
}

/// Runs [`quantize_slice`] at the width of `tier` — or the next
/// narrower one the host supports — if `f32` lanes carry `kernel`;
/// returns whether it ran (the caller runs the scalar loop otherwise).
pub(crate) fn quantize_slice_tier<L: LaneKernel, const MODE: u8>(
    kernel: &L,
    values: &mut [f32],
    base_index: u64,
    tier: SimdTier,
) -> bool {
    if !kernel.f32_lanes() {
        return false;
    }
    match tier {
        // SAFETY: the width is supported and `f32` lanes carry the
        // kernel, both checked here.
        SimdTier::Avx512 if avx512_supported() => unsafe {
            Avx512::quantize_slice::<L, MODE>(kernel, values, base_index)
        },
        // SAFETY: as above.
        SimdTier::Avx2 | SimdTier::Avx512 if avx2_supported() => unsafe {
            Avx2::quantize_slice::<L, MODE>(kernel, values, base_index)
        },
        _ => return false,
    }
    true
}

/// `kernel`'s lane quantizer at width `W` on the first `W::N` lanes of
/// `xs`, lane `l` with SR hash input `hash_inputs[l]`
/// ([`crate::SrRng::hash_input`] of its event index): the results and
/// the valid-lane bits, or `None` where the host lacks `W`, `f32` lanes
/// do not carry `kernel` or its rounding is `NR`. For differential
/// tests; the kernels call the vector form under their width's target
/// features, where this one runs every intrinsic out of line.
pub fn quantize_array<W: Width, L: LaneKernel>(
    kernel: &L,
    xs: &[f32; 16],
    hash_inputs: &[u64; 16],
) -> Option<([f32; 16], u32)> {
    if !W::supported() || !kernel.f32_lanes() {
        return None;
    }
    let mut out = [0f32; 16];
    // SAFETY: the width is supported and `f32` lanes carry the kernel,
    // both checked above; loads and stores stay inside the 16-element
    // arrays.
    let ok = unsafe {
        let q = kernel.lanes::<W>();
        let (x, lo, hi) = (
            W::loadu(xs.as_ptr()),
            W::load64(hash_inputs.as_ptr()),
            W::load64(hash_inputs[W::N / 2..].as_ptr()),
        );
        let (y, ok) = crate::with_mode!(
            kernel.rounding(),
            M => L::quantize_lanes::<W, M>(&q, x, lo, hi),
            return None
        );
        W::storeu(out.as_mut_ptr(), y);
        W::bits(ok)
    };
    Some((out, ok))
}

/// Differential checks of the lane quantizers and the slice loop
/// against the scalar kernels, generic over the width; each width's
/// module runs them at its own.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fixed::FixedFormat;
    use crate::float::FloatFormat;
    use crate::quant::Quantizer;
    use crate::rounding::Rounding;
    use crate::simd::MAX_RANDOM_BITS;
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

    /// The slice loop of `tier` (at `W`'s width) equals the scalar loop
    /// on full blocks, handed-back lanes and a ragged tail.
    pub(crate) fn slice_matches_scalar<W: Width>(tier: SimdTier) {
        if !W::supported() {
            return;
        }
        for fmt in [
            FloatFormat::e5m2(),
            FloatFormat::e4m3(),
            FloatFormat::e6m5(),
            FloatFormat::new(5, 0).unwrap(),
        ] {
            for rounding in MODES {
                let q = Quantizer::float(fmt, rounding).with_seed(99);
                // 611 exercises full blocks plus a ragged tail.
                let src: Vec<f32> = (0..611).map(sample_f32).collect();
                let (mut scalar, mut simd) = (src.clone(), src.clone());
                q.quantize_slice_f32_tier(&mut scalar, 12345, SimdTier::Off);
                q.quantize_slice_f32_tier(&mut simd, 12345, tier);
                for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
                    assert_eq!(
                        s.to_bits(),
                        v.to_bits(),
                        "{fmt} {rounding} lane {i}: {s} vs {v}"
                    );
                }
            }
        }
    }

    /// The float quantizer at event indices shaped like the MAC nest's:
    /// every lane it reports valid equals the scalar kernel, and it
    /// hands back exactly the lanes outside the fast regime.
    pub(crate) fn float_lanes_match_scalar<W: Width>() {
        if !W::supported() {
            return;
        }
        for rounding in MODES {
            let rng = SrRng::new(7);
            let fast = FloatFastF64::new(FloatFormat::e6m5(), rounding, rng).unwrap();
            for block in 0..200u64 {
                let xs: [f32; 16] = core::array::from_fn(|l| sample_f32(block as usize * 16 + l));
                let idxs: [u64; 16] = core::array::from_fn(|l| (block << 42) | ((l as u64) << 22));
                let hash = idxs.map(|i| rng.hash_input(i));
                let (out, ok) = quantize_array::<W, _>(&fast, &xs, &hash).unwrap();
                for l in 0..W::N {
                    let x = xs[l];
                    let special = x.is_nan() || x.is_infinite() || (x != 0.0 && !x.is_normal());
                    assert_eq!(ok & (1 << l) == 0, special, "lane {l} x {x}");
                    if !special {
                        let want = fast.quantize_f32_dyn(x, idxs[l]);
                        assert_eq!(
                            out[l].to_bits(),
                            want.to_bits(),
                            "{rounding} block {block} lane {l}"
                        );
                    }
                }
            }
        }
    }

    /// The fixed-point quantizer on accumulator-like values: the
    /// non-finite hand-back classes, zeros, the RN `-0.5` tie, saturating
    /// magnitudes, and negative values within one code of zero whose SR
    /// fraction needs more than `f32`'s bits (one rounds to a 31-bit
    /// boundary in `f64`), walking through every lane as `block`
    /// advances.
    pub(crate) fn fixed_lanes_match_scalar<W: Width>() {
        if !W::supported() {
            return;
        }
        for (fmt, rb) in [
            (FixedFormat::fxp4_4(), 10),
            (FixedFormat::fxp8_8(), MAX_RANDOM_BITS),
            (FixedFormat::new(8, 16).unwrap(), 0),
        ] {
            let res = fmt.resolution() as f32;
            let specials = [
                0.0,
                -0.0,
                f32::from_bits(1),
                -f32::from_bits(1),
                -2.0f32.powi(-60),
                -(1.0 + f32::EPSILON) * 2.0f32.powi(-31) * res,
                -0.5 * res,
                -0.25 * res,
                f32::INFINITY,
                f32::NEG_INFINITY,
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
                for block in 0..300usize {
                    let xs: [f32; 16] = core::array::from_fn(|l| {
                        if (block + l).is_multiple_of(3) {
                            specials[(block / 3 + l) % specials.len()]
                        } else {
                            (block as f32 - 150.0) * 0.731 + l as f32 * 0.0913
                        }
                    });
                    let idxs: [u64; 16] =
                        core::array::from_fn(|l| ((block as u64) << 42) | ((l as u64) << 22));
                    let hash = idxs.map(|i| rng.hash_input(i));
                    let (out, ok) = quantize_array::<W, _>(&fast, &xs, &hash).unwrap();
                    for l in 0..W::N {
                        assert_eq!(
                            ok & (1 << l) != 0,
                            xs[l].is_finite(),
                            "lane {l} x {}",
                            xs[l]
                        );
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
