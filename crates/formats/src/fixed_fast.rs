//! Monomorphized fast-path quantization kernels for fixed point.
//!
//! The fixed-point counterpart of [`crate::fast`]: [`FixedFastF64`]
//! precomputes everything [`FixedFormat::quantize`] derives from the
//! format on every call (`2^f`, `2^-f`, the code clamp bounds, the SR
//! resolution) and takes the rounding mode as a `const` generic, so
//! the MAC loop nests in `mpt-arith` and the operand-slice quantizer
//! ([`FixedFastF64::quantize_slice_tier`]) run one branch-free body per
//! mode.
//!
//! ## Bit-equality contract
//!
//! Every path returns **bit-identical** results to the oracle,
//! including the sign of zero. The scalar body differs from the oracle
//! in two provably neutral ways:
//!
//! * it clamps the scaled value to the code range *before* rounding
//!   instead of after — every rounding mode (SR for a fixed draw
//!   included) is monotone and fixes the integer bounds, so the two
//!   orders agree — which keeps every rounded magnitude below `2^52`;
//! * below `2^52` it rounds to integer without `libm`:
//!   `(|y| + 2^52) - 2^52` is round-half-even of `|y|` under the
//!   default IEEE rounding direction, and floor / truncation / parity
//!   follow from one compare each. The vector tiers' `f32` lanes
//!   (`lanes::FixedVec`), where [`FixedFastF64::f32_lanes`] holds, use
//!   `vrndscaleps` / `vroundps` instead.
//!
//! One oracle quirk is replicated on purpose: `round_ties_even(-0.5)`
//! returns `+0.0` (its tie fix-up computes `-1.0 + 1.0`) while every
//! other value in `[-0.5, 0)` rounds to `-0.0`.
//!
//! NaN and ±inf (rare in GEMM traffic) are handed to the oracle, as
//! are — by [`FixedFastF64::new`] returning `None` — formats wider
//! than 52 bits, whose codes leave the exact-integer range.

use crate::fast::mode;
use crate::fixed::FixedFormat;
use crate::float::exp2i;
use crate::rounding::Rounding;
use crate::simd::SimdTier;
use crate::sr::SrRng;

/// `2^52`: adding and subtracting it rounds a magnitude `<= 2^52` to
/// the nearest integer, ties to even.
const MAGIC: f64 = 4_503_599_627_370_496.0;

/// Widest format the body is exact for (`|code| <= 2^51`).
const MAX_FAST_WIDTH: u32 = 52;

/// Precomputed fast quantizer for fixed-point formats on `f64`
/// carriers (MAC multiplier-output and accumulator rounding on exact
/// `f64` products/sums; operand slices are widened onto it by
/// [`quantize_slice_tier`](Self::quantize_slice_tier)).
#[derive(Debug, Clone, Copy)]
pub struct FixedFastF64 {
    format: FixedFormat,
    rounding: Rounding,
    rng: SrRng,
    /// `2^f`: carrier → code units.
    pub(crate) scale: f64,
    /// `2^-f`: code units → carrier.
    pub(crate) inv: f64,
    /// Smallest code, `-2^(w-1)`.
    pub(crate) code_min: f64,
    /// Largest code, `2^(w-1) - 1`.
    pub(crate) code_max: f64,
    /// Effective stochastic random bits (`min(random_bits, 53)`, 0 for
    /// deterministic modes).
    pub(crate) rb: u32,
    /// `2^rb`: the discarded fraction is compared at this resolution.
    pub(crate) sr_scale: f64,
}

impl FixedFastF64 {
    /// Builds the precomputed fast quantizer, or `None` for
    /// [`Rounding::NoRound`] (identity) and for formats wider than 52
    /// bits (callers fall back to the oracle).
    pub fn new(format: FixedFormat, rounding: Rounding, rng: SrRng) -> Option<Self> {
        let rb = match rounding {
            Rounding::NoRound => return None,
            Rounding::Stochastic { random_bits } => random_bits.min(53),
            _ => 0,
        };
        if format.bit_width() > MAX_FAST_WIDTH {
            return None;
        }
        let (code_min, code_max) = format.code_bounds();
        Some(FixedFastF64 {
            format,
            rounding,
            rng,
            scale: exp2i(format.frac_bits() as i32),
            inv: format.resolution(),
            code_min,
            code_max,
            rb,
            sr_scale: exp2i(rb as i32),
        })
    }

    /// The format this kernel quantizes to.
    pub fn format(&self) -> FixedFormat {
        self.format
    }

    /// The rounding mode baked into `MODE` selections.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// The SR bit source (lane kernels hash its
    /// [`hash_input`](SrRng::hash_input) per lane).
    pub fn rng(&self) -> SrRng {
        self.rng
    }

    /// Whether `f32` lanes carry this kernel: codes of at most 24 bits
    /// (so every code and clamp bound is an `f32`) and at most
    /// [`MAX_RANDOM_BITS`](crate::simd::MAX_RANDOM_BITS) SR bits. There
    /// the `f32` lane quantizers round every `f32` value exactly as
    /// [`quantize`](Self::quantize) rounds its `f64` image.
    pub fn f32_lanes(&self) -> bool {
        self.format.bit_width() <= 24 && self.rb <= crate::simd::MAX_RANDOM_BITS
    }

    /// Quantizes one value at rounding event `index`, bit-identical to
    /// [`FixedFormat::quantize`]. `MODE` must be the [`mode`]
    /// discriminant of this kernel's rounding mode.
    #[inline]
    pub fn quantize<const MODE: u8>(&self, x: f64, index: u64) -> f64 {
        if !x.is_finite() {
            return self.oracle(x, index);
        }
        // `x * scale` is an exact power-of-two scaling (or ±inf on
        // overflow, which the clamp absorbs like any out-of-range
        // value).
        let y = x * self.scale;
        let y = if y < self.code_min { self.code_min } else { y };
        let y = if y > self.code_max { self.code_max } else { y };
        let a = y.abs();
        let n = (a + MAGIC) - MAGIC; // round-half-even(|y|)
        let floor_a = if n > a { n - 1.0 } else { n };
        let code = match MODE {
            mode::RN => {
                if y == -0.5 {
                    0.0 // the oracle's tie fix-up loses the sign here
                } else {
                    n.copysign(y)
                }
            }
            mode::RZ => floor_a.copysign(y),
            mode::RO => {
                // Truncate; if inexact and the kept code is even, step
                // away from zero onto the odd neighbour. `floor_a / 2`
                // has a `.5` fraction iff `floor_a` is odd.
                let h = floor_a * 0.5;
                let even = (h + MAGIC) - MAGIC == h;
                let bump = floor_a != a && even;
                (if bump { floor_a + 1.0 } else { floor_a }).copysign(y)
            }
            mode::SR => {
                // Floor of the *signed* value, then round up when the
                // discarded fraction (at `rb` bits) exceeds the draw.
                let ns = n.copysign(y);
                let t = if ns > y { ns - 1.0 } else { ns };
                let frac_bits = ((y - t) * self.sr_scale) as u64;
                if frac_bits > self.rng.bits(index, self.rb) {
                    t + 1.0
                } else {
                    t
                }
            }
            _ => unreachable!("invalid mode discriminant"),
        };
        code * self.inv
    }

    /// [`quantize`](Self::quantize) with the mode resolved at runtime.
    #[inline]
    pub fn quantize_dyn(&self, x: f64, index: u64) -> f64 {
        crate::with_mode!(self.rounding, M => self.quantize::<M>(x, index), x)
    }

    /// Quantizes an `f32` slice in place through the requested kernel
    /// tier; element `i` uses rounding event `base_index + i`. Every
    /// element rounds as its `f64` image does under
    /// [`quantize`](Self::quantize) — literally the oracle's
    /// `quantize(x as f64) as f32` — and all tiers are bit-identical.
    pub fn quantize_slice_tier<const MODE: u8>(
        &self,
        values: &mut [f32],
        base_index: u64,
        tier: SimdTier,
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::lanes::quantize_slice_tier::<Self, MODE>(self, values, base_index, tier) {
            return;
        }
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.quantize::<MODE>(*v as f64, base_index.wrapping_add(i as u64)) as f32;
        }
    }

    /// [`quantize_slice_tier`](Self::quantize_slice_tier) with the
    /// rounding mode matched once, outside the loop.
    pub fn quantize_slice_tier_dyn(&self, values: &mut [f32], base_index: u64, tier: SimdTier) {
        crate::with_mode!(
            self.rounding,
            M => self.quantize_slice_tier::<M>(values, base_index, tier),
            ()
        )
    }

    /// The scalar oracle, for non-finite inputs.
    #[cold]
    #[inline(never)]
    fn oracle(&self, x: f64, index: u64) -> f64 {
        self.format.quantize(x, self.rounding, &self.rng, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Rounding; 4] = [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::Stochastic { random_bits: 10 },
        Rounding::ToOdd,
    ];

    #[test]
    fn no_round_and_overwide_formats_yield_no_kernel() {
        let rng = SrRng::new(0);
        assert!(FixedFastF64::new(FixedFormat::fxp4_4(), Rounding::NoRound, rng).is_none());
        let wide = FixedFormat::new(21, 32).unwrap();
        assert!(FixedFastF64::new(wide, Rounding::Nearest, rng).is_none());
        let widest_fast = FixedFormat::new(20, 32).unwrap();
        assert!(FixedFastF64::new(widest_fast, Rounding::Nearest, rng).is_some());
    }

    #[test]
    fn negative_half_tie_keeps_the_oracle_sign_quirk() {
        // y = -0.5 → +0.0, every other value in (-0.5, 0) → -0.0.
        let fmt = FixedFormat::fxp4_4();
        let rng = SrRng::new(1);
        let fast = FixedFastF64::new(fmt, Rounding::Nearest, rng).unwrap();
        for x in [-0.5 / 16.0, -0.25 / 16.0, -0.0, 0.5 / 16.0] {
            let want = fmt.quantize(x, Rounding::Nearest, &rng, 0);
            let got = fast.quantize_dyn(x, 0);
            assert_eq!(got.to_bits(), want.to_bits(), "x {x}");
        }
        assert_eq!(
            fast.quantize_dyn(-0.5 / 16.0, 0).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            fast.quantize_dyn(-0.25 / 16.0, 0).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn widest_fast_format_matches_oracle_at_the_clamp_edges() {
        let fmt = FixedFormat::new(20, 32).unwrap(); // 52 bits
        let (min, max) = (fmt.min_value(), fmt.max_value());
        let res = fmt.resolution();
        for rounding in MODES {
            let rng = SrRng::new(9);
            let fast = FixedFastF64::new(fmt, rounding, rng).unwrap();
            for (i, x) in [
                max,
                max - res,
                max + res * 0.5,
                min,
                min + res,
                min - res * 0.5,
                max * 4.0,
                f64::MAX,
                f64::MIN,
                res * 0.5,
                -res * 0.5,
                res * 1.5,
                f64::MIN_POSITIVE,
                f64::INFINITY,
                f64::NAN,
            ]
            .into_iter()
            .enumerate()
            {
                let want = fmt.quantize(x, rounding, &rng, i as u64);
                let got = fast.quantize_dyn(x, i as u64);
                assert_eq!(got.to_bits(), want.to_bits(), "{fmt}-{rounding} x {x:e}");
            }
        }
    }
}
