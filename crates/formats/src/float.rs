//! Parameterizable `EeMm` floating-point formats.
//!
//! A [`FloatFormat`] describes an IEEE-754-like binary format with `e`
//! exponent bits and `m` explicit mantissa bits (plus sign and hidden
//! bit), optionally supporting subnormals, and either saturating to
//! the largest finite value on overflow or producing infinity.
//!
//! Quantization maps a full-precision value onto the nearest
//! representable point under a [`Rounding`] mode; the result is
//! returned as an exact `f64`/`f32` carrier. Encode/decode to the raw
//! bit pattern is provided for HBM packing in the FPGA model and for
//! bit-level tests.

use crate::error::FormatError;
use crate::rounding::{round_scaled, Rounding};
use crate::sr::SrRng;
use std::fmt;

/// An `EeMm` floating-point format (sign + `e` exponent bits + `m`
/// mantissa bits).
///
/// The paper's notation `EeMm` gives the exponent width `e` and the
/// explicit mantissa width `m`; the stored width is `1 + e + m` bits.
///
/// # Example
///
/// ```
/// use mpt_formats::FloatFormat;
///
/// let fp8 = FloatFormat::new(5, 2)?;
/// assert_eq!(fp8.bit_width(), 8);
/// assert_eq!(fp8.to_string(), "E5M2");
/// # Ok::<(), mpt_formats::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloatFormat {
    exp_bits: u32,
    man_bits: u32,
    subnormals: bool,
    saturate: bool,
}

impl FloatFormat {
    /// Creates a format with `exp_bits` exponent bits and `man_bits`
    /// mantissa bits, with subnormals enabled and saturating overflow
    /// (the configuration used throughout the paper's experiments).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::ExponentWidth`] if `exp_bits` is not in
    /// `2..=11` or [`FormatError::MantissaWidth`] if `man_bits` is not
    /// in `0..=52`.
    pub fn new(exp_bits: u32, man_bits: u32) -> Result<Self, FormatError> {
        if !(2..=11).contains(&exp_bits) {
            return Err(FormatError::ExponentWidth(exp_bits));
        }
        if man_bits > 52 {
            return Err(FormatError::MantissaWidth(man_bits));
        }
        Ok(FloatFormat {
            exp_bits,
            man_bits,
            subnormals: true,
            saturate: true,
        })
    }

    /// Disables subnormal support: values below the smallest normal
    /// magnitude flush toward zero (or round up to the smallest
    /// normal, per the rounding mode).
    pub fn without_subnormals(mut self) -> Self {
        self.subnormals = false;
        self
    }

    /// Makes overflow produce infinity instead of saturating to the
    /// largest finite value.
    pub fn with_infinities(mut self) -> Self {
        self.saturate = false;
        self
    }

    /// FP8 `E5M2` — the paper's multiplier input format.
    pub fn e5m2() -> Self {
        FloatFormat::new(5, 2).expect("E5M2 is valid")
    }

    /// FP8 `E4M3` — the other common FP8 variant.
    pub fn e4m3() -> Self {
        FloatFormat::new(4, 3).expect("E4M3 is valid")
    }

    /// FP12 `E6M5` — the paper's low-precision accumulator format.
    pub fn e6m5() -> Self {
        FloatFormat::new(6, 5).expect("E6M5 is valid")
    }

    /// FP16 `E5M10` (IEEE half precision).
    pub fn e5m10() -> Self {
        FloatFormat::new(5, 10).expect("E5M10 is valid")
    }

    /// BFloat16 `E8M7`.
    pub fn bf16() -> Self {
        FloatFormat::new(8, 7).expect("E8M7 is valid")
    }

    /// FP32 `E8M23` (IEEE single precision), the baseline format.
    pub fn e8m23() -> Self {
        FloatFormat::new(8, 23).expect("E8M23 is valid")
    }

    /// Exponent width in bits.
    pub fn exp_bits(&self) -> u32 {
        self.exp_bits
    }

    /// Explicit mantissa width in bits.
    pub fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Whether the format represents subnormal values.
    pub fn has_subnormals(&self) -> bool {
        self.subnormals
    }

    /// Whether overflow saturates to the largest finite value.
    pub fn saturates(&self) -> bool {
        self.saturate
    }

    /// Total storage width: `1 + e + m` bits.
    pub fn bit_width(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Exponent bias, `2^(e-1) - 1`.
    pub fn bias(&self) -> i32 {
        (1i32 << (self.exp_bits - 1)) - 1
    }

    /// Smallest unbiased exponent of a normal value.
    pub fn min_exp(&self) -> i32 {
        1 - self.bias()
    }

    /// Largest unbiased exponent of a finite value.
    ///
    /// The all-ones exponent is reserved for infinity/NaN, as in
    /// IEEE 754, so this is `bias()` (i.e. biased exponent
    /// `2^e - 2`).
    pub fn max_exp(&self) -> i32 {
        self.bias()
    }

    /// Largest finite representable magnitude, `(2 - 2^-m)·2^max_exp`.
    pub fn max_value(&self) -> f64 {
        (2.0 - exp2i(-(self.man_bits as i32))) * exp2i(self.max_exp())
    }

    /// Smallest positive normal magnitude, `2^min_exp`.
    pub fn min_normal(&self) -> f64 {
        exp2i(self.min_exp())
    }

    /// Smallest positive representable magnitude (subnormal if the
    /// format has subnormals, otherwise [`min_normal`]).
    ///
    /// [`min_normal`]: FloatFormat::min_normal
    pub fn min_positive(&self) -> f64 {
        if self.subnormals {
            exp2i(self.min_exp() - self.man_bits as i32)
        } else {
            self.min_normal()
        }
    }

    /// Quantizes `x` to this format under `mode`, drawing stochastic
    /// bits for event `index` from `rng`.
    ///
    /// NaN propagates. Infinite inputs map to the overflow result
    /// (saturated max or infinity). The returned `f64` is exactly a
    /// representable value of the format (or ±inf/NaN).
    #[inline]
    pub fn quantize(&self, x: f64, mode: Rounding, rng: &SrRng, index: u64) -> f64 {
        if matches!(mode, Rounding::NoRound) {
            return x;
        }
        if x.is_nan() {
            return x;
        }
        if x == 0.0 {
            return x; // preserves signed zero
        }
        if x.is_infinite() {
            return self.overflow(x.is_sign_negative());
        }

        // Unbiased exponent of x (exact, via bit extraction).
        let e_x = exponent_of(x);
        // The exponent that determines the ULP: normals use their own
        // exponent, subnormal-range values are pinned at min_exp.
        let e_eff = e_x.max(self.min_exp());
        let ulp_exp = e_eff - self.man_bits as i32;

        // Scale so the target ULP is 1.0. Powers of two are exact;
        // exp2i constructs them directly from the exponent bits. Wide
        // formats (e.g. E11M52) can need a scale factor above 2^1023;
        // split it into two exact power-of-two multiplies (the operand
        // is tiny there — e_eff < -971 — so no intermediate overflow).
        let scaled = if ulp_exp < -1023 {
            (x * exp2i(512)) * exp2i(-ulp_exp - 512)
        } else {
            x * exp2i(-ulp_exp)
        };
        let rounded = round_scaled(scaled, mode, rng, index);
        let y = rounded * exp2i(ulp_exp);

        if y == 0.0 {
            return if x.is_sign_negative() { -0.0 } else { 0.0 };
        }

        // Overflow check (rounding may have pushed past max_value).
        if y.abs() > self.max_value() {
            return self.overflow(y < 0.0);
        }

        // Subnormal handling: if disabled, values below min_normal
        // snap to zero or min_normal depending on which the rounded
        // result already chose; with rounding done at the pinned ULP
        // the result is either 0, a subnormal grid point, or normal.
        if !self.subnormals && y.abs() < self.min_normal() {
            // The rounded value sits on the subnormal grid. Snap it:
            // closer to zero -> zero; otherwise -> min_normal. RZ
            // flushes to zero outright.
            return match mode {
                Rounding::TowardZero => 0.0f64.copysign(y),
                _ => {
                    if y.abs() * 2.0 < self.min_normal() {
                        0.0f64.copysign(y)
                    } else {
                        self.min_normal().copysign(y)
                    }
                }
            };
        }
        y
    }

    fn overflow(&self, negative: bool) -> f64 {
        let v = if self.saturate {
            self.max_value()
        } else {
            f64::INFINITY
        };
        if negative {
            -v
        } else {
            v
        }
    }

    /// Returns `true` if `x` is exactly representable in this format.
    pub fn is_representable(&self, x: f64) -> bool {
        if x.is_nan() {
            return true;
        }
        if x.is_infinite() {
            return !self.saturate;
        }
        let rng = SrRng::new(0);
        self.quantize(x, Rounding::TowardZero, &rng, 0) == x
    }

    /// Encodes a representable value into the raw `1+e+m`-bit pattern
    /// (sign-magnitude, IEEE layout) in the low bits of a `u64`.
    ///
    /// The fields are cut straight out of `x`'s own bit pattern — no
    /// quantization pass, no floating-point arithmetic — which is what
    /// lets HBM packing run at memory speed. Cutting truncates, so a
    /// value that is not representable encodes as if first rounded
    /// toward zero (saturating, or overflowing to infinity, as the
    /// format is configured).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` is not representable.
    pub fn encode(&self, x: f64) -> u64 {
        debug_assert!(self.is_representable(x), "{x} not representable in {self}");
        self.encode_truncating(x)
    }

    /// [`encode`](Self::encode) without the representability check.
    fn encode_truncating(&self, x: f64) -> u64 {
        let (e, m) = (self.exp_bits, self.man_bits);
        let sign = (x.to_bits() >> 63) << (e + m);
        let exp_ones = ((1u64 << e) - 1) << m;
        if x.is_nan() {
            // Canonical NaN: all-ones exponent, MSB of mantissa set.
            return sign | exp_ones | if m > 0 { 1u64 << (m - 1) } else { 0 };
        }
        if x == 0.0 {
            return sign;
        }
        let magnitude = x.to_bits() & (u64::MAX >> 1);
        let fraction = magnitude & ((1u64 << 52) - 1);
        // Unbiased exponent; an f64 subnormal reads -1023, which is
        // below every format's `min_exp`.
        let e_x = (magnitude >> 52) as i32 - 1023;
        if e_x > self.max_exp() {
            // Infinity, or a finite value beyond the largest one.
            return if self.saturate {
                sign | (exp_ones - 1) // largest exponent, mantissa all ones
            } else {
                sign | exp_ones
            };
        }
        if e_x >= self.min_exp() {
            // Normal: the top `m` fraction bits are the mantissa.
            let biased = (e_x + self.bias()) as u64;
            return sign | (biased << m) | (fraction >> (52 - m));
        }
        if !self.subnormals {
            return sign;
        }
        // Biased exponent 0: mantissa = |x| / 2^(min_exp - m), with
        // |x| = significand · 2^scale.
        let (significand, scale) = if e_x == -1023 {
            (fraction, -1074)
        } else {
            (fraction | (1u64 << 52), e_x - 52)
        };
        let shift = (self.min_exp() - m as i32 - scale) as u32;
        sign | significand.checked_shr(shift).unwrap_or(0)
    }

    /// Decodes a raw bit pattern produced by [`encode`](Self::encode).
    pub fn decode(&self, bits: u64) -> f64 {
        let man_mask = if self.man_bits == 0 {
            0
        } else {
            (1u64 << self.man_bits) - 1
        };
        let man = bits & man_mask;
        let exp = (bits >> self.man_bits) & ((1u64 << self.exp_bits) - 1);
        let sign = (bits >> (self.man_bits + self.exp_bits)) & 1;
        let s = if sign == 1 { -1.0 } else { 1.0 };
        let max_biased = (1u64 << self.exp_bits) - 1;
        let v = if exp == max_biased {
            if man == 0 {
                f64::INFINITY
            } else {
                f64::NAN
            }
        } else if exp == 0 {
            man as f64 * 2f64.powi(self.min_exp() - self.man_bits as i32)
        } else {
            let e = exp as i32 - self.bias();
            (1.0 + man as f64 * 2f64.powi(-(self.man_bits as i32))) * 2f64.powi(e)
        };
        s * v
    }
}

impl fmt::Display for FloatFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}M{}", self.exp_bits, self.man_bits)
    }
}

/// Exact power of two `2^e` for any representable `f64` magnitude
/// (`-1074..=1023`), built directly from the bit pattern (much cheaper
/// than `powi`). Exponents below the normal range produce the exact
/// subnormal `2^e`.
#[inline]
pub(crate) fn exp2i(e: i32) -> f64 {
    debug_assert!(
        (-1074..=1023).contains(&e),
        "exp2i exponent {e} out of range"
    );
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (e + 1074))
    }
}

/// Unbiased binary exponent of a finite non-zero `f64`
/// (`floor(log2 |x|)`), exact via bit extraction.
#[inline]
pub(crate) fn exponent_of(x: f64) -> i32 {
    let bits = x.to_bits();
    let raw = ((bits >> 52) & 0x7FF) as i32;
    if raw == 0 {
        // f64 subnormal: |x| = man * 2^-1074, so the exponent is the
        // position of the mantissa's leading bit minus 1074.
        let man = bits & ((1u64 << 52) - 1);
        debug_assert!(man != 0, "exponent_of called on zero");
        (63 - man.leading_zeros() as i32) - 1074
    } else {
        raw - 1023
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SrRng {
        SrRng::new(11)
    }

    fn q(fmt: FloatFormat, x: f64, mode: Rounding) -> f64 {
        fmt.quantize(x, mode, &rng(), 0)
    }

    #[test]
    fn exponent_extraction() {
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(1.5), 0);
        assert_eq!(exponent_of(2.0), 1);
        assert_eq!(exponent_of(0.75), -1);
        assert_eq!(exponent_of(-8.0), 3);
        assert_eq!(exponent_of(0.1), -4);
    }

    #[test]
    fn presets_have_expected_widths() {
        assert_eq!(FloatFormat::e5m2().bit_width(), 8);
        assert_eq!(FloatFormat::e4m3().bit_width(), 8);
        assert_eq!(FloatFormat::e6m5().bit_width(), 12);
        assert_eq!(FloatFormat::e5m10().bit_width(), 16);
        assert_eq!(FloatFormat::bf16().bit_width(), 16);
        assert_eq!(FloatFormat::e8m23().bit_width(), 32);
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(FloatFormat::new(0, 2).is_err());
        assert!(FloatFormat::new(1, 2).is_err());
        assert!(FloatFormat::new(12, 2).is_err());
        assert!(FloatFormat::new(5, 53).is_err());
    }

    #[test]
    fn e5m2_range() {
        let f = FloatFormat::e5m2();
        assert_eq!(f.bias(), 15);
        assert_eq!(f.max_exp(), 15);
        assert_eq!(f.min_exp(), -14);
        assert_eq!(f.max_value(), 57344.0); // 1.75 * 2^15
        assert_eq!(f.min_normal(), 2f64.powi(-14));
        assert_eq!(f.min_positive(), 2f64.powi(-16));
    }

    #[test]
    fn representable_values_fixed_points() {
        let f = FloatFormat::e5m2();
        for &v in &[
            0.0,
            1.0,
            1.25,
            1.5,
            1.75,
            2.0,
            2.5,
            -3.0,
            57344.0,
            2f64.powi(-16),
        ] {
            assert_eq!(q(f, v, Rounding::Nearest), v, "value {v}");
            assert!(f.is_representable(v), "value {v}");
        }
    }

    #[test]
    fn nearest_even_at_format_precision() {
        let f = FloatFormat::e5m2();
        // Between 1.0 and 1.25: midpoint 1.125 -> even neighbour 1.0.
        assert_eq!(q(f, 1.125, Rounding::Nearest), 1.0);
        // Between 1.25 and 1.5: midpoint 1.375 -> even 1.5 (mantissa 0b10).
        assert_eq!(q(f, 1.375, Rounding::Nearest), 1.5);
        assert_eq!(q(f, 1.2, Rounding::Nearest), 1.25);
    }

    #[test]
    fn toward_zero_never_increases_magnitude() {
        let f = FloatFormat::e6m5();
        for &v in &[1.03125001, -1.03125001, 3.999, -3.999, 0.7501] {
            let y = q(f, v, Rounding::TowardZero);
            assert!(y.abs() <= v.abs(), "{v} -> {y}");
        }
    }

    #[test]
    fn round_to_odd_lands_on_odd_mantissa() {
        let f = FloatFormat::e5m2();
        // 1.1 is between 1.0 (mantissa 00) and 1.25 (mantissa 01):
        // inexact, so RO picks the odd mantissa 1.25.
        assert_eq!(q(f, 1.1, Rounding::ToOdd), 1.25);
        // 1.3 between 1.25 (01, odd) and 1.5 (10): truncation 1.25 is
        // already odd.
        assert_eq!(q(f, 1.3, Rounding::ToOdd), 1.25);
        assert_eq!(q(f, -1.1, Rounding::ToOdd), -1.25);
    }

    #[test]
    fn overflow_saturates_by_default() {
        let f = FloatFormat::e5m2();
        assert_eq!(q(f, 1.0e9, Rounding::Nearest), 57344.0);
        assert_eq!(q(f, -1.0e9, Rounding::Nearest), -57344.0);
        assert_eq!(q(f, f64::INFINITY, Rounding::Nearest), 57344.0);
    }

    #[test]
    fn overflow_to_infinity_when_configured() {
        let f = FloatFormat::e5m2().with_infinities();
        assert_eq!(q(f, 1.0e9, Rounding::Nearest), f64::INFINITY);
        assert_eq!(
            q(f, f64::NEG_INFINITY, Rounding::Nearest),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn subnormals_quantize_on_fixed_grid() {
        let f = FloatFormat::e5m2();
        let sub_ulp = 2f64.powi(-16); // min_exp - m = -14 - 2
        assert_eq!(q(f, sub_ulp * 1.4, Rounding::Nearest), sub_ulp);
        assert_eq!(q(f, sub_ulp * 1.6, Rounding::Nearest), 2.0 * sub_ulp);
        assert_eq!(q(f, sub_ulp * 0.4, Rounding::Nearest), 0.0);
    }

    #[test]
    fn no_subnormals_flushes() {
        let f = FloatFormat::e5m2().without_subnormals();
        let tiny = 2f64.powi(-16);
        assert_eq!(q(f, tiny, Rounding::TowardZero), 0.0);
        // Near min_normal rounds up to it under RN.
        let near = f.min_normal() * 0.9;
        assert_eq!(q(f, near, Rounding::Nearest), f.min_normal());
        let small = f.min_normal() * 0.3;
        assert_eq!(q(f, small, Rounding::Nearest), 0.0);
    }

    #[test]
    fn nan_propagates() {
        let f = FloatFormat::e5m2();
        assert!(q(f, f64::NAN, Rounding::Nearest).is_nan());
    }

    #[test]
    fn zero_preserved_with_sign() {
        let f = FloatFormat::e5m2();
        let z = q(f, -0.0, Rounding::Nearest);
        assert_eq!(z, 0.0);
        assert!(z.is_sign_negative());
    }

    #[test]
    fn e8m23_is_f32_identity() {
        let f = FloatFormat::e8m23();
        for &v in &[1.0f32, std::f32::consts::PI, -0.1, 1.0e-30, 3.0e38] {
            let y = f.quantize(v as f64, Rounding::Nearest, &rng(), 0) as f32;
            assert_eq!(y, v, "value {v}");
        }
    }

    #[test]
    fn stochastic_preserves_representables() {
        let f = FloatFormat::e6m5();
        let sr = Rounding::stochastic();
        for idx in 0..50 {
            assert_eq!(f.quantize(1.5, sr, &rng(), idx), 1.5);
        }
    }

    #[test]
    fn stochastic_mean_approaches_value() {
        let f = FloatFormat::e5m2();
        let sr = Rounding::Stochastic { random_bits: 16 };
        let x = 1.1; // between 1.0 and 1.25
        let n = 40_000u64;
        let mean: f64 = (0..n).map(|i| f.quantize(x, sr, &rng(), i)).sum::<f64>() / n as f64;
        assert!((mean - x).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = FloatFormat::e5m2();
        for &v in &[
            0.0,
            1.0,
            -1.75,
            2.5,
            57344.0,
            2f64.powi(-16),
            -2f64.powi(-14),
        ] {
            let bits = f.encode(v);
            assert!(bits < (1u64 << f.bit_width()));
            assert_eq!(f.decode(bits), v, "value {v}");
        }
    }

    #[test]
    fn encode_decode_exhaustive_e4m3() {
        // Walk every finite E4M3 code point and round-trip it.
        let f = FloatFormat::e4m3();
        for bits in 0..(1u64 << f.bit_width()) {
            let v = f.decode(bits);
            if v.is_nan() || v.is_infinite() {
                continue;
            }
            let re = f.encode(v);
            assert_eq!(f.decode(re), v, "bits {bits:#x} value {v}");
        }
    }

    /// The arithmetic `encode` this crate shipped before the bit-field
    /// one: RZ-quantize, then rebuild exponent and mantissa with
    /// `powi`. Kept as the oracle for the exhaustive comparison below.
    fn encode_oracle(f: &FloatFormat, x: f64) -> u64 {
        let x = f.quantize(x, Rounding::TowardZero, &rng(), 0);
        let sign = u64::from(x.is_sign_negative()) << (f.exp_bits + f.man_bits);
        let exp_ones = ((1u64 << f.exp_bits) - 1) << f.man_bits;
        if x.is_nan() {
            return sign | exp_ones | (1u64 << f.man_bits >> 1);
        }
        if x == 0.0 {
            return sign;
        }
        if x.is_infinite() {
            return sign | exp_ones;
        }
        let a = x.abs();
        let e = exponent_of(a);
        if e < f.min_exp() {
            sign | (a * 2f64.powi(f.man_bits as i32 - f.min_exp())) as u64
        } else {
            let frac = a * 2f64.powi(-e) - 1.0; // in [0, 1)
            let man = (frac * 2f64.powi(f.man_bits as i32)).round() as u64;
            sign | (((e + f.bias()) as u64) << f.man_bits) | man
        }
    }

    #[test]
    fn encode_exhaustive_round_trips_and_matches_oracle() {
        // Every code of every ≤16-bit preset, saturating and with
        // infinities: `encode` inverts `decode`, and agrees with the
        // arithmetic oracle. NaN codes collapse onto the canonical NaN
        // of their sign; a saturating format has no value for its
        // infinity codes, so those are skipped there.
        for base in [
            FloatFormat::e5m2(),
            FloatFormat::e4m3(),
            FloatFormat::e6m5(),
            FloatFormat::e5m10(),
            FloatFormat::bf16(),
        ] {
            for f in [base, base.with_infinities(), base.without_subnormals()] {
                let exp_ones = ((1u64 << f.exp_bits) - 1) << f.man_bits;
                let mut checked = 0u32;
                for code in 0..(1u64 << f.bit_width()) {
                    let v = f.decode(code);
                    if !f.is_representable(v) {
                        assert!(v.is_infinite() || !f.subnormals, "{f} code {code:#x}");
                        continue;
                    }
                    let got = f.encode(v);
                    assert_eq!(got, encode_oracle(&f, v), "{f} code {code:#x} value {v}");
                    if v.is_nan() {
                        assert_eq!(got & exp_ones, exp_ones, "{f} code {code:#x}");
                        assert_ne!(got & ((1u64 << f.man_bits) - 1), 0, "{f} code {code:#x}");
                    } else {
                        assert_eq!(got, code, "{f} value {v}");
                    }
                    checked += 1;
                }
                assert!(checked >= (1u32 << f.bit_width()) - (2u32 << f.man_bits));
            }
        }
    }

    #[test]
    fn encode_truncates_toward_zero_like_the_oracle() {
        // Release builds accept non-representable values; they must
        // encode exactly as the RZ-quantizing oracle did, including
        // overflow and values that vanish below the subnormal grid.
        let probes = [
            1.1,
            -1.3,
            60000.0,
            70000.0,
            -1.0e9,
            3.0e-6,
            -1.0e-9,
            1.0e-300,
            5.0e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        for base in [
            FloatFormat::e5m2(),
            FloatFormat::e6m5(),
            FloatFormat::bf16(),
        ] {
            for f in [base, base.with_infinities(), base.without_subnormals()] {
                for &x in &probes {
                    assert_eq!(
                        f.encode_truncating(x),
                        encode_oracle(&f, x),
                        "{f} value {x:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn encode_wide_formats_match_native_bits() {
        // E11M52 is f64 itself (its subnormals are f64 subnormals, where
        // the oracle's `powi` scale overflows); E8M23 is f32. The
        // native bit patterns are the ground truth.
        let f64_fmt = FloatFormat::new(11, 52).unwrap().with_infinities();
        for &x in &[1.0, -0.1, f64::MAX, f64::MIN_POSITIVE, 5.0e-324, -3.0e-310] {
            assert_eq!(f64_fmt.encode(x), x.to_bits(), "value {x:e}");
        }
        let f32_fmt = FloatFormat::e8m23().with_infinities();
        for &x in &[
            1.0f32,
            -0.1,
            f32::MAX,
            f32::MIN_POSITIVE,
            1.0e-45,
            f32::INFINITY,
        ] {
            assert_eq!(f32_fmt.encode(x as f64), x.to_bits() as u64, "value {x:e}");
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(FloatFormat::e6m5().to_string(), "E6M5");
    }

    #[test]
    fn no_round_passes_everything_through() {
        let f = FloatFormat::e5m2();
        assert_eq!(q(f, 1.2345678, Rounding::NoRound), 1.2345678);
    }

    #[test]
    fn quantization_is_idempotent() {
        let f = FloatFormat::e6m5();
        for mode in [Rounding::Nearest, Rounding::TowardZero, Rounding::ToOdd] {
            for i in 0..200 {
                let x = (i as f64 - 100.0) * 0.137;
                let once = q(f, x, mode);
                let twice = q(f, once, mode);
                assert_eq!(once, twice, "x {x} mode {mode}");
            }
        }
    }

    #[test]
    fn quantization_is_monotone_rn() {
        let f = FloatFormat::e5m2();
        let mut prev = f64::NEG_INFINITY;
        for i in -400..400 {
            let x = i as f64 * 0.01;
            let y = q(f, x, Rounding::Nearest);
            assert!(y >= prev, "non-monotone at {x}");
            prev = y;
        }
    }
}
