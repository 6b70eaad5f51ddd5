//! Two's-complement fixed-point formats `FXPi.f`.
//!
//! The paper's notation `FXPi.f` gives `i` signed integer bits
//! (including the sign bit) and `f` fractional bits, for a total
//! stored width of `i + f` bits. Representable values form the grid
//! `k · 2^-f` for `k ∈ [-2^(i+f-1), 2^(i+f-1) - 1]`.

use crate::error::FormatError;
use crate::float::exp2i;
use crate::rounding::{round_scaled, Rounding};
use crate::sr::SrRng;
use std::fmt;

/// A signed fixed-point format with `int_bits` integer bits
/// (including sign) and `frac_bits` fractional bits.
///
/// # Example
///
/// ```
/// use mpt_formats::FixedFormat;
///
/// let fxp = FixedFormat::new(4, 4)?; // the paper's FXP4.4 multiplier
/// assert_eq!(fxp.bit_width(), 8);
/// assert_eq!(fxp.max_value(), 7.9375);
/// assert_eq!(fxp.min_value(), -8.0);
/// # Ok::<(), mpt_formats::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    int_bits: u32,
    frac_bits: u32,
}

impl FixedFormat {
    /// Creates an `FXP int_bits.frac_bits` format.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IntegerWidth`] if `int_bits == 0`,
    /// [`FormatError::FractionWidth`] if `frac_bits > 52`, or
    /// [`FormatError::TotalWidth`] if the total width exceeds 64 bits.
    pub fn new(int_bits: u32, frac_bits: u32) -> Result<Self, FormatError> {
        if int_bits == 0 {
            return Err(FormatError::IntegerWidth(int_bits));
        }
        if frac_bits > 52 {
            return Err(FormatError::FractionWidth(frac_bits));
        }
        if int_bits + frac_bits > 64 {
            return Err(FormatError::TotalWidth(int_bits + frac_bits));
        }
        Ok(FixedFormat {
            int_bits,
            frac_bits,
        })
    }

    /// `FXP4.4` — the paper's fixed-point multiplier format.
    pub fn fxp4_4() -> Self {
        FixedFormat::new(4, 4).expect("FXP4.4 is valid")
    }

    /// `FXP8.8` — the paper's fixed-point accumulator format.
    pub fn fxp8_8() -> Self {
        FixedFormat::new(8, 8).expect("FXP8.8 is valid")
    }

    /// `FXP8.4` — evaluated in the paper's Section V-B-2.
    pub fn fxp8_4() -> Self {
        FixedFormat::new(8, 4).expect("FXP8.4 is valid")
    }

    /// `FXP16.8` — evaluated in the paper's Section V-B-2.
    pub fn fxp16_8() -> Self {
        FixedFormat::new(16, 8).expect("FXP16.8 is valid")
    }

    /// Signed integer width in bits (including the sign bit).
    pub fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Fractional width in bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Total storage width, `i + f` bits.
    pub fn bit_width(&self) -> u32 {
        self.int_bits + self.frac_bits
    }

    /// The `(min, max)` integer codes, `-2^(w-1)` and `2^(w-1) - 1`,
    /// as `f64` — the single source of the clamp bounds for
    /// [`quantize`](Self::quantize), [`min_value`](Self::min_value) /
    /// [`max_value`](Self::max_value) and the lane kernels in
    /// [`crate::fixed_fast`]. Computed in floating point, so 64-bit
    /// formats need no `i64` arithmetic at its overflow edge; above
    /// 54 bits `max` rounds to `2^(w-1)` (exactly what converting the
    /// integer to `f64` yields).
    pub fn code_bounds(&self) -> (f64, f64) {
        let half_range = exp2i(self.bit_width() as i32 - 1);
        (-half_range, half_range - 1.0)
    }

    /// Largest representable value, `(2^(i+f-1) - 1) · 2^-f`.
    pub fn max_value(&self) -> f64 {
        self.code_bounds().1 * self.resolution()
    }

    /// Smallest (most negative) representable value, `-2^(i-1)`.
    pub fn min_value(&self) -> f64 {
        self.code_bounds().0 * self.resolution()
    }

    /// Grid step, `2^-f`.
    pub fn resolution(&self) -> f64 {
        exp2i(-(self.frac_bits as i32))
    }

    /// Quantizes `x` to this format under `mode`, saturating at the
    /// representable range. NaN propagates.
    #[inline]
    pub fn quantize(&self, x: f64, mode: Rounding, rng: &SrRng, index: u64) -> f64 {
        if matches!(mode, Rounding::NoRound) {
            return x;
        }
        if x.is_nan() {
            return x;
        }
        let scaled = x * exp2i(self.frac_bits as i32);
        let rounded = round_scaled(scaled, mode, rng, index);
        let (code_min, code_max) = self.code_bounds();
        let clamped = rounded.clamp(code_min, code_max);
        clamped * self.resolution()
    }

    /// Returns `true` if `x` lies exactly on the representable grid.
    pub fn is_representable(&self, x: f64) -> bool {
        if x.is_nan() {
            return true;
        }
        let rng = SrRng::new(0);
        self.quantize(x, Rounding::TowardZero, &rng, 0) == x
    }

    /// Encodes a representable value as its two's-complement code in
    /// the low `i + f` bits of a `u64`.
    pub fn encode(&self, x: f64) -> u64 {
        let rng = SrRng::new(0);
        let q = self.quantize(x, Rounding::TowardZero, &rng, 0);
        let code = (q * 2f64.powi(self.frac_bits as i32)) as i64;
        (code as u64) & mask(self.bit_width())
    }

    /// Decodes a two's-complement code produced by
    /// [`encode`](Self::encode).
    pub fn decode(&self, bits: u64) -> f64 {
        let w = self.bit_width();
        let raw = bits & mask(w);
        // Sign-extend.
        let code = if w < 64 && raw & (1u64 << (w - 1)) != 0 {
            (raw | !mask(w)) as i64
        } else {
            raw as i64
        };
        code as f64 * self.resolution()
    }
}

impl fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FXP{}.{}", self.int_bits, self.frac_bits)
    }
}

#[inline]
fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SrRng {
        SrRng::new(3)
    }

    fn q(fmt: FixedFormat, x: f64, mode: Rounding) -> f64 {
        fmt.quantize(x, mode, &rng(), 0)
    }

    #[test]
    fn presets() {
        assert_eq!(FixedFormat::fxp4_4().bit_width(), 8);
        assert_eq!(FixedFormat::fxp8_8().bit_width(), 16);
        assert_eq!(FixedFormat::fxp8_4().bit_width(), 12);
        assert_eq!(FixedFormat::fxp16_8().bit_width(), 24);
    }

    #[test]
    fn invalid_rejected() {
        assert!(FixedFormat::new(0, 4).is_err());
        assert!(FixedFormat::new(4, 61).is_err());
        assert!(FixedFormat::new(32, 33).is_err());
    }

    #[test]
    fn widest_formats_have_finite_bounds_and_saturate() {
        // 62..=64-bit totals: `(1i64 << 63) - 1` and `-(1i64 << 63)`
        // used to overflow here (debug-build panics).
        for (i, f) in [(30, 32), (10, 52), (31, 32), (11, 52), (32, 32), (12, 52)] {
            let fmt = FixedFormat::new(i, f).unwrap();
            let w = fmt.bit_width();
            assert!((62..=64).contains(&w));
            let half_range = 2f64.powi(i as i32 - 1);
            assert_eq!(fmt.min_value(), -half_range, "FXP{i}.{f}");
            // 2^(w-1) - 1 is not an f64 above 54 bits: it rounds up.
            assert_eq!(fmt.max_value(), half_range, "FXP{i}.{f}");
            for mode in [Rounding::Nearest, Rounding::TowardZero, Rounding::ToOdd] {
                assert_eq!(q(fmt, 1.0e300, mode), fmt.max_value());
                assert_eq!(q(fmt, f64::NEG_INFINITY, mode), fmt.min_value());
                assert_eq!(q(fmt, -1.5, mode), -1.5, "in-range grid point");
            }
            assert_eq!(fmt.decode(fmt.encode(fmt.min_value())), fmt.min_value());
        }
        assert!(FixedFormat::new(33, 32).is_err());
    }

    #[test]
    fn range_fxp4_4() {
        let f = FixedFormat::fxp4_4();
        assert_eq!(f.max_value(), 127.0 / 16.0);
        assert_eq!(f.min_value(), -8.0);
        assert_eq!(f.resolution(), 0.0625);
    }

    #[test]
    fn grid_points_are_fixed() {
        let f = FixedFormat::fxp4_4();
        for code in -128..=127i64 {
            let v = code as f64 / 16.0;
            assert_eq!(q(f, v, Rounding::Nearest), v, "code {code}");
            assert!(f.is_representable(v));
        }
    }

    #[test]
    fn nearest_even_on_grid() {
        let f = FixedFormat::fxp4_4();
        // 0.09375 is the midpoint between 0.0625 (code 1) and 0.125
        // (code 2): ties-to-even picks code 2.
        assert_eq!(q(f, 0.09375, Rounding::Nearest), 0.125);
        // Midpoint between codes 2 and 3 goes to 2.
        assert_eq!(q(f, 0.15625, Rounding::Nearest), 0.125);
    }

    #[test]
    fn saturation() {
        let f = FixedFormat::fxp4_4();
        assert_eq!(q(f, 100.0, Rounding::Nearest), f.max_value());
        assert_eq!(q(f, -100.0, Rounding::Nearest), f.min_value());
    }

    #[test]
    fn toward_zero() {
        let f = FixedFormat::fxp4_4();
        assert_eq!(q(f, 0.07, Rounding::TowardZero), 0.0625);
        assert_eq!(q(f, -0.07, Rounding::TowardZero), -0.0625);
        assert_eq!(q(f, 0.05, Rounding::TowardZero), 0.0);
    }

    #[test]
    fn round_to_odd_picks_odd_codes() {
        let f = FixedFormat::fxp4_4();
        // 0.13 scales to code 2.08: inexact, trunc=2 (even) -> 3.
        assert_eq!(q(f, 0.13, Rounding::ToOdd), 3.0 / 16.0);
        // 0.07 scales to 1.12: trunc=1 already odd.
        assert_eq!(q(f, 0.07, Rounding::ToOdd), 1.0 / 16.0);
    }

    #[test]
    fn stochastic_unbiased() {
        let f = FixedFormat::fxp4_4();
        let sr = Rounding::Stochastic { random_bits: 16 };
        let x = 0.1; // between 0.0625 and 0.125
        let n = 40_000u64;
        let mean: f64 = (0..n).map(|i| f.quantize(x, sr, &rng(), i)).sum::<f64>() / n as f64;
        assert!((mean - x).abs() < 0.002, "mean {mean}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = FixedFormat::fxp8_8();
        for &v in &[0.0, 1.0, -1.0, f.max_value(), f.min_value(), 0.00390625] {
            assert_eq!(f.decode(f.encode(v)), v, "value {v}");
        }
    }

    #[test]
    fn encode_decode_exhaustive_fxp4_4() {
        let f = FixedFormat::fxp4_4();
        for bits in 0..256u64 {
            let v = f.decode(bits);
            assert_eq!(f.encode(v), bits, "bits {bits:#x} value {v}");
        }
    }

    #[test]
    fn nan_propagates() {
        assert!(q(FixedFormat::fxp8_8(), f64::NAN, Rounding::Nearest).is_nan());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(FixedFormat::fxp8_4().to_string(), "FXP8.4");
    }
}
