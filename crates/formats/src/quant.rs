//! Unified quantizer over all format families.
//!
//! [`NumberFormat`] is the closed sum of the families a MAC unit can
//! be configured with; [`Quantizer`] pairs a format with a rounding
//! mode and a randomness source, which is the unit of configuration
//! that the GEMM kernels in `mpt-arith` consume.

use crate::block::BlockFpFormat;
use crate::fast::{FastKernel, FloatFastF64, Kernel};
use crate::fixed::FixedFormat;
use crate::fixed_fast::FixedFastF64;
use crate::float::FloatFormat;
use crate::rounding::Rounding;
use crate::sr::SrRng;
use std::fmt;

/// A number format from any of the supported families.
///
/// # Example
///
/// ```
/// use mpt_formats::{FloatFormat, NumberFormat};
///
/// let f: NumberFormat = FloatFormat::e5m2().into();
/// assert_eq!(f.bit_width(), 8);
/// assert_eq!(f.to_string(), "E5M2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumberFormat {
    /// Parameterizable floating point (`EeMm`).
    Float(FloatFormat),
    /// Two's-complement fixed point (`FXPi.f`).
    Fixed(FixedFormat),
    /// Block floating point (shared exponent per block).
    BlockFp(BlockFpFormat),
}

impl NumberFormat {
    /// Storage width in bits of one element (for BFP the shared
    /// exponent is amortized and excluded, matching how HBM words are
    /// packed).
    pub fn bit_width(&self) -> u32 {
        match self {
            NumberFormat::Float(f) => f.bit_width(),
            NumberFormat::Fixed(f) => f.bit_width(),
            NumberFormat::BlockFp(f) => f.bit_width(),
        }
    }

    /// Quantizes a single value. Block floating point applied to a
    /// scalar degenerates to a block of one (its own exponent), which
    /// keeps the scalar API total; use
    /// [`BlockFpFormat::quantize_block`] for real blocks.
    #[inline]
    pub fn quantize(&self, x: f64, mode: Rounding, rng: &SrRng, index: u64) -> f64 {
        match self {
            NumberFormat::Float(f) => f.quantize(x, mode, rng, index),
            NumberFormat::Fixed(f) => f.quantize(x, mode, rng, index),
            NumberFormat::BlockFp(f) => f.quantize_one(x, mode, rng, index),
        }
    }

    /// `true` when every `f32` is representable (e.g. `E8M23`), i.e.
    /// quantization through this format is the identity on `f32`
    /// carriers.
    pub fn is_f32_superset(&self) -> bool {
        match self {
            NumberFormat::Float(f) => f.exp_bits() >= 8 && f.man_bits() >= 23,
            _ => false,
        }
    }
}

impl From<FloatFormat> for NumberFormat {
    fn from(f: FloatFormat) -> Self {
        NumberFormat::Float(f)
    }
}

impl From<FixedFormat> for NumberFormat {
    fn from(f: FixedFormat) -> Self {
        NumberFormat::Fixed(f)
    }
}

impl From<BlockFpFormat> for NumberFormat {
    fn from(f: BlockFpFormat) -> Self {
        NumberFormat::BlockFp(f)
    }
}

impl fmt::Display for NumberFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumberFormat::Float(x) => x.fmt(f),
            NumberFormat::Fixed(x) => x.fmt(f),
            NumberFormat::BlockFp(x) => x.fmt(f),
        }
    }
}

/// A format paired with a rounding mode: one quantization behaviour.
///
/// This is the configuration unit consumed by `mpt-arith`'s kernels:
/// the paper's `E6M5-SR` is
/// `Quantizer::float(FloatFormat::e6m5(), Rounding::stochastic())`.
///
/// # Example
///
/// ```
/// use mpt_formats::{FloatFormat, Quantizer, Rounding};
///
/// let q = Quantizer::float(FloatFormat::e6m5(), Rounding::stochastic());
/// assert_eq!(q.to_string(), "E6M5-SR");
///
/// // Rounding events are indexed by logical position, so a stream
/// // replays bit-identically wherever it is evaluated.
/// let y = q.quantize(1.234, 7);
/// assert_eq!(y, q.quantize(1.234, 7));
/// assert!((y - 1.234).abs() <= 0.03125, "within one E6M5 ulp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quantizer {
    format: NumberFormat,
    rounding: Rounding,
    rng: SrRng,
}

impl Quantizer {
    /// Creates a quantizer from any format and rounding mode, with a
    /// default stochastic seed of 0 (see
    /// [`with_seed`](Quantizer::with_seed)).
    pub fn new(format: impl Into<NumberFormat>, rounding: Rounding) -> Self {
        Quantizer {
            format: format.into(),
            rounding,
            rng: SrRng::new(0),
        }
    }

    /// Floating-point quantizer (`EeMm` + rounding).
    pub fn float(format: FloatFormat, rounding: Rounding) -> Self {
        Quantizer::new(format, rounding)
    }

    /// Fixed-point quantizer (`FXPi.f` + rounding).
    pub fn fixed(format: FixedFormat, rounding: Rounding) -> Self {
        Quantizer::new(format, rounding)
    }

    /// The identity quantizer: FP32 values pass through unchanged.
    pub fn identity() -> Self {
        Quantizer::new(FloatFormat::e8m23(), Rounding::Nearest)
    }

    /// Replaces the stochastic-rounding seed (a no-op for
    /// deterministic modes).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = SrRng::new(seed);
        self
    }

    /// The format being quantized to.
    pub fn format(&self) -> NumberFormat {
        self.format
    }

    /// The rounding mode in effect.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// The stochastic-rounding bit source.
    pub fn rng(&self) -> SrRng {
        self.rng
    }

    /// `true` when this quantizer never changes an `f32` carrier.
    ///
    /// # Contract
    ///
    /// Identity quantizers are **skipped entirely** by every consumer:
    /// [`quantize_slice_f32`](Quantizer::quantize_slice_f32) and the
    /// GEMM kernels in `mpt-arith` pass the carrier through untouched
    /// whenever this returns `true`. A quantizer is identity when its
    /// rounding is [`Rounding::NoRound`] or its format is an `f32`
    /// superset (`EeMm` with `e >= 8` and `m >= 23`).
    ///
    /// This is deliberately **not** the same as "the scalar
    /// [`quantize_f32`](Quantizer::quantize_f32) is the identity
    /// function". `E8M23` counts as identity even though its scalar
    /// path saturates `±inf` to the largest finite value (formats
    /// default to saturating overflow), and an
    /// `e8m23().without_subnormals()` format — still an identity by
    /// this predicate — would flush `f32` subnormals. The passthrough
    /// convention wins so that the FP32 baseline equals a plain
    /// `Tensor::matmul` bit-for-bit, infinities, subnormals and NaN
    /// payloads included. Callers that need the scalar saturating
    /// semantics must call `quantize_f32` explicitly instead of the
    /// slice entry points.
    pub fn is_identity(&self) -> bool {
        matches!(self.rounding, Rounding::NoRound) || self.format.is_f32_superset()
    }

    /// Quantizes one `f64` value; `index` labels the rounding event
    /// for stochastic reproducibility.
    #[inline]
    pub fn quantize(&self, x: f64, index: u64) -> f64 {
        self.format.quantize(x, self.rounding, &self.rng, index)
    }

    /// Quantizes one `f32` value.
    #[inline]
    pub fn quantize_f32(&self, x: f32, index: u64) -> f32 {
        self.quantize(x as f64, index) as f32
    }

    /// Quantizes a slice of `f32` in place with **per-element**
    /// semantics: element `i` quantizes independently at rounding
    /// event `base_index + i`, exactly like calling
    /// [`quantize_f32`](Quantizer::quantize_f32) per element (block
    /// floating point degenerates to blocks of one, matching the
    /// scalar API).
    ///
    /// Identity quantizers ([`is_identity`](Quantizer::is_identity))
    /// pass the slice through untouched — the same passthrough
    /// convention the GEMM kernels use, which keeps the FP32 baseline
    /// equal to a plain matmul even for operands containing infinities
    /// or `f32` subnormals (the scalar `quantize_f32` would
    /// saturate/flush those).
    ///
    /// A quantizer with a [`fast_kernel`](Quantizer::fast_kernel)
    /// dispatches once to its monomorphized slice loop
    /// ([`Kernel::quantize_slice_tier`]) — the bulk operand-quantization
    /// fast path the GEMM kernels use; the others (block FP among them)
    /// run the scalar oracle. Bit-identical to the scalar path in all
    /// cases.
    pub fn quantize_slice_f32(&self, values: &mut [f32], base_index: u64) {
        self.quantize_slice_f32_tier(values, base_index, crate::simd::active_tier());
    }

    /// [`quantize_slice_f32`](Quantizer::quantize_slice_f32) with an
    /// explicit SIMD tier instead of the ambient `MPT_SIMD` selection.
    /// Every tier is bit-identical; this entry exists so benches and
    /// differential tests can compare tiers within one process.
    pub fn quantize_slice_f32_tier(
        &self,
        values: &mut [f32],
        base_index: u64,
        tier: crate::simd::SimdTier,
    ) {
        if self.is_identity() {
            return;
        }
        if mpt_telemetry::enabled() {
            let before = values.to_vec();
            self.quantize_slice_f32_inner(values, base_index, tier);
            self.tally_pairs(&before, values);
            return;
        }
        self.quantize_slice_f32_inner(values, base_index, tier);
    }

    fn quantize_slice_f32_inner(
        &self,
        values: &mut [f32],
        base_index: u64,
        tier: crate::simd::SimdTier,
    ) {
        // Every tier is bit-identical to the scalar loop, so the
        // telemetry observe-after wrapper above stays tier-independent.
        if let Some(kernel) = self.fast_kernel() {
            return crate::with_kernel!(
                kernel,
                k,
                M => k.quantize_slice_tier::<M>(values, base_index, tier)
            );
        }
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.quantize_f32(*v, base_index.wrapping_add(i as u64));
        }
    }

    /// The precomputed fast kernel of this quantizer, if it has one: a
    /// float format with a mantissa narrower than `f64`'s, or fixed
    /// point at most 52 bits wide, under a rounding other than `NR`.
    /// Block floating point has none. Bit-identical to the scalar
    /// oracle wherever it exists; the slice entry points and
    /// `mpt-arith`'s MAC stages run it, through [`with_kernel!`](crate::with_kernel).
    pub fn fast_kernel(&self) -> Option<FastKernel> {
        match self.format {
            NumberFormat::Float(f) if f.man_bits() < 52 => {
                FloatFastF64::new(f, self.rounding, self.rng).map(FastKernel::Float)
            }
            NumberFormat::Fixed(f) => {
                FixedFastF64::new(f, self.rounding, self.rng).map(FastKernel::Fixed)
            }
            _ => None,
        }
    }

    /// The `(most negative, largest)` finite values this quantizer
    /// can produce — the range the telemetry tally classifies clamps
    /// as saturation against. Sign-symmetric for floats; asymmetric
    /// for two's-complement fixed point (`FXP4.4` spans
    /// `[-8, 7.9375]`, so `-7.99 → -8` is an ordinary rounding).
    /// Block floating point has no per-element clamp (the shared
    /// exponent absorbs the range), so it reports `(-inf, +inf)` and
    /// never counts saturation.
    pub fn telemetry_range(&self) -> (f64, f64) {
        match self.format {
            NumberFormat::Float(f) => (-f.max_value(), f.max_value()),
            NumberFormat::Fixed(f) => (f.min_value(), f.max_value()),
            NumberFormat::BlockFp(_) => (f64::NEG_INFINITY, f64::INFINITY),
        }
    }

    /// A fresh [`mpt_telemetry::QuantTally`] configured for this
    /// quantizer (saturation range + SR flag). Consumers that
    /// quantize outside the slice entry points (the GEMM MAC loops)
    /// build one, record per element, and flush under
    /// [`telemetry_label`](Quantizer::telemetry_label).
    pub fn telemetry_tally(&self) -> mpt_telemetry::QuantTally {
        let (min, max) = self.telemetry_range();
        mpt_telemetry::QuantTally::with_range(min, max, self.rounding.is_stochastic())
    }

    /// The registry label this quantizer's counters live under (its
    /// `Display` form, e.g. `E6M5-SR`).
    pub fn telemetry_label(&self) -> String {
        self.to_string()
    }

    /// Classifies `before[i] -> after[i]` pairs into this
    /// quantizer's global counters (one registry flush).
    fn tally_pairs(&self, before: &[f32], after: &[f32]) {
        let mut tally = self.telemetry_tally();
        for (&x, &y) in before.iter().zip(after) {
            tally.record_f32(x, y);
        }
        tally.flush(&self.telemetry_label());
    }
}

impl fmt::Display for Quantizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.format, self.rounding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_telemetry::QuantCat;

    #[test]
    fn display_matches_paper_cells() {
        let q = Quantizer::float(FloatFormat::e6m5(), Rounding::stochastic());
        assert_eq!(q.to_string(), "E6M5-SR");
        let q = Quantizer::fixed(FixedFormat::fxp4_4(), Rounding::TowardZero);
        assert_eq!(q.to_string(), "FXP4.4-RZ");
    }

    #[test]
    fn identity_passes_f32_through() {
        let q = Quantizer::identity();
        assert!(q.is_identity());
        for &v in &[1.0f32, -2.7, 1.0e-20, 3.0e38] {
            assert_eq!(q.quantize_f32(v, 0), v);
        }
    }

    #[test]
    fn no_round_is_identity() {
        let q = Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound);
        assert!(q.is_identity());
        assert_eq!(q.quantize_f32(1.2345, 0), 1.2345);
    }

    #[test]
    fn slice_quantization_matches_scalar() {
        let q = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(9);
        let src: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.173).collect();
        let mut a = src.clone();
        q.quantize_slice_f32(&mut a, 100);
        let b: Vec<f32> = src
            .iter()
            .enumerate()
            .map(|(i, &v)| q.quantize_f32(v, 100 + i as u64))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_stochastic_stream() {
        let x = 1.1f32;
        let a = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(1);
        let b = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(2);
        let va: Vec<f32> = (0..64).map(|i| a.quantize_f32(x, i)).collect();
        let vb: Vec<f32> = (0..64).map(|i| b.quantize_f32(x, i)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn number_format_conversions() {
        let f: NumberFormat = FloatFormat::e5m2().into();
        let x: NumberFormat = FixedFormat::fxp4_4().into();
        let b: NumberFormat = BlockFpFormat::new(4, 16).unwrap().into();
        assert_eq!(f.bit_width(), 8);
        assert_eq!(x.bit_width(), 8);
        assert_eq!(b.bit_width(), 5);
    }

    #[test]
    fn f32_superset_detection() {
        assert!(NumberFormat::from(FloatFormat::e8m23()).is_f32_superset());
        assert!(!NumberFormat::from(FloatFormat::e5m10()).is_f32_superset());
        assert!(!NumberFormat::from(FixedFormat::fxp16_8()).is_f32_superset());
    }

    #[test]
    fn identity_passthrough_preserves_infinity_where_scalar_saturates() {
        // The is_identity contract: slice entry points pass carriers
        // through untouched, while the scalar path saturates ±inf to
        // E8M23's largest finite value (saturating overflow is the
        // format default). Both behaviours are intentional; the
        // passthrough convention keeps the FP32 GEMM baseline equal
        // to a plain matmul.
        let q = Quantizer::identity();
        assert!(q.is_identity());

        let mut vals = [f32::INFINITY, f32::NEG_INFINITY, 1.5];
        q.quantize_slice_f32(&mut vals, 0);
        assert_eq!(vals, [f32::INFINITY, f32::NEG_INFINITY, 1.5]);

        // Scalar path on the very same quantizer: saturates.
        let sat = q.quantize_f32(f32::INFINITY, 0);
        assert_eq!(sat, f32::MAX, "E8M23 scalar quantization saturates +inf");
        assert_eq!(q.quantize_f32(f32::NEG_INFINITY, 0), f32::MIN);
    }

    #[test]
    fn identity_passthrough_preserves_subnormals_where_scalar_flushes() {
        // e8m23().without_subnormals() is still is_identity (the
        // predicate only inspects widths), so slice paths pass f32
        // subnormals through — but the scalar path flushes them.
        let q = Quantizer::float(
            FloatFormat::e8m23().without_subnormals(),
            Rounding::TowardZero,
        );
        assert!(q.is_identity());

        let sub = f32::from_bits(0x0000_0001); // smallest positive subnormal
        let mut vals = [sub, -sub];
        q.quantize_slice_f32(&mut vals, 0);
        assert_eq!(vals.map(f32::to_bits), [sub, -sub].map(f32::to_bits));

        assert_eq!(
            q.quantize_f32(sub, 0),
            0.0,
            "scalar path flushes f32 subnormals without subnormal support"
        );
    }

    #[test]
    fn identity_passthrough_preserves_nan_payloads() {
        let q = Quantizer::identity();
        let payload = f32::from_bits(0x7fc1_2345); // quiet NaN, nonzero payload
        let mut vals = [payload];
        q.quantize_slice_f32(&mut vals, 0);
        assert_eq!(vals[0].to_bits(), 0x7fc1_2345);
    }

    #[test]
    fn no_round_is_identity_for_every_family() {
        assert!(Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound).is_identity());
        assert!(Quantizer::fixed(FixedFormat::fxp4_4(), Rounding::NoRound).is_identity());
        assert!(Quantizer::new(BlockFpFormat::new(3, 4).unwrap(), Rounding::NoRound).is_identity());
    }

    #[test]
    fn narrow_formats_are_not_identity() {
        for q in [
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
            Quantizer::float(FloatFormat::bf16(), Rounding::Nearest), // E8M7: m < 23
            Quantizer::fixed(FixedFormat::fxp16_8(), Rounding::Nearest),
            Quantizer::new(BlockFpFormat::new(8, 4).unwrap(), Rounding::Nearest),
        ] {
            assert!(!q.is_identity(), "{q} must not be identity");
        }
    }

    #[test]
    fn non_identity_saturating_format_clamps_infinity() {
        // Pin: saturate=true (the default) maps ±inf input to the
        // format's ±max finite value, exactly like an out-of-range
        // finite input.
        let q = Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest);
        let max = FloatFormat::e5m2().max_value() as f32;
        assert_eq!(q.quantize_f32(f32::INFINITY, 0), max);
        assert_eq!(q.quantize_f32(f32::NEG_INFINITY, 0), -max);
        assert_eq!(q.quantize_f32(1.0e30, 0), max, "finite overflow clamps too");
        // Slice path agrees with the scalar path on specials.
        let mut vals = [f32::INFINITY, f32::NEG_INFINITY, 1.0e30];
        q.quantize_slice_f32(&mut vals, 0);
        assert_eq!(vals, [max, -max, max]);
    }

    #[test]
    fn non_identity_infinity_format_passes_inf_through() {
        // Pin: with_infinities() preserves ±inf and sends finite
        // overflow to ±inf instead of clamping.
        let q = Quantizer::float(FloatFormat::e5m2().with_infinities(), Rounding::Nearest);
        assert_eq!(q.quantize_f32(f32::INFINITY, 0), f32::INFINITY);
        assert_eq!(q.quantize_f32(f32::NEG_INFINITY, 0), f32::NEG_INFINITY);
        assert_eq!(q.quantize_f32(1.0e30, 0), f32::INFINITY);
        assert_eq!(q.quantize_f32(-1.0e30, 0), f32::NEG_INFINITY);
    }

    #[test]
    fn non_identity_format_propagates_nan() {
        for q in [
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
            Quantizer::float(
                FloatFormat::e5m2().with_infinities(),
                Rounding::stochastic(),
            ),
        ] {
            assert!(q.quantize_f32(f32::NAN, 0).is_nan());
            let mut vals = [f32::NAN, 1.0];
            q.quantize_slice_f32(&mut vals, 0);
            assert!(vals[0].is_nan());
            assert_eq!(vals[1], 1.0);
        }
    }

    #[test]
    fn saturation_counters_distinguish_clamp_from_inf_passthrough() {
        // The satellite bug: a clamp-to-max (saturate=true) and an
        // inf-passthrough (with_infinities) must land in different
        // counters. Deltas are measured because counters are global.
        let sat_q = Quantizer::float(FloatFormat::e4m3(), Rounding::Nearest);
        let inf_q = Quantizer::float(FloatFormat::e5m2().with_infinities(), Rounding::Nearest);
        let sat_c = mpt_telemetry::quant_counters(&sat_q.telemetry_label());
        let inf_c = mpt_telemetry::quant_counters(&inf_q.telemetry_label());
        let base = (
            sat_c[QuantCat::Saturated].get(),
            sat_c[QuantCat::InfPassthrough].get(),
            sat_c[QuantCat::OverflowInf].get(),
            inf_c[QuantCat::Saturated].get(),
            inf_c[QuantCat::InfPassthrough].get(),
            inf_c[QuantCat::OverflowInf].get(),
        );

        mpt_telemetry::enable();
        let mut a = [f32::INFINITY, f32::NEG_INFINITY, 1.0e30, 1.0];
        sat_q.quantize_slice_f32(&mut a, 0);
        let mut b = [f32::INFINITY, f32::NEG_INFINITY, 1.0e30, 1.0];
        inf_q.quantize_slice_f32(&mut b, 0);
        mpt_telemetry::disable();

        // Saturating format: two inf clamps + one finite clamp, no
        // inf events.
        assert_eq!(sat_c[QuantCat::Saturated].get() - base.0, 3);
        assert_eq!(sat_c[QuantCat::InfPassthrough].get() - base.1, 0);
        assert_eq!(sat_c[QuantCat::OverflowInf].get() - base.2, 0);
        // Infinity format: no saturation; two passthroughs + one
        // finite overflow to inf.
        assert_eq!(inf_c[QuantCat::Saturated].get() - base.3, 0);
        assert_eq!(inf_c[QuantCat::InfPassthrough].get() - base.4, 2);
        assert_eq!(inf_c[QuantCat::OverflowInf].get() - base.5, 1);
    }

    #[test]
    fn fixed_point_saturation_is_classified_against_the_asymmetric_range() {
        // Walk every FXP4.4 code boundary (each code, each midpoint
        // and a point either side of it) plus both overflow sides:
        // only inputs beyond [-8, 7.9375] may count as saturated —
        // in particular nothing in (-8, -7.9375), which rounds onto
        // the two's-complement minimum without any clamp.
        let q = Quantizer::fixed(FixedFormat::fxp4_4(), Rounding::Nearest);
        let (min, max) = q.telemetry_range();
        assert_eq!((min, max), (-8.0, 7.9375));
        let mut xs = vec![-8.5, -8.03125, 7.96, 8.0, 100.0, -100.0];
        for code in -128..=127 {
            for off in [0.0, 0.25, 0.5, 0.75] {
                xs.push((code as f64 + off) / 16.0);
            }
        }
        let (mut inside, mut outside) = (q.telemetry_tally(), q.telemetry_tally());
        let mut n_outside = 0;
        for x in xs {
            if x < min || x > max {
                outside.record(x, q.quantize(x, 0));
                n_outside += 1;
            } else {
                inside.record(x, q.quantize(x, 0));
            }
        }
        inside.flush("fxp44-walk:inside");
        outside.flush("fxp44-walk:outside");
        let c = mpt_telemetry::quant_counters("fxp44-walk:inside");
        assert_eq!(
            c[QuantCat::Saturated].get(),
            0,
            "an in-range rounding was tallied saturated"
        );
        assert_eq!(c[QuantCat::Exact].get(), 256);
        assert_eq!(
            c[QuantCat::Exact].get() + c[QuantCat::Rounded].get() + c[QuantCat::Flushed].get(),
            c[QuantCat::Total].get()
        );
        let c = mpt_telemetry::quant_counters("fxp44-walk:outside");
        assert_eq!(
            (c[QuantCat::Saturated].get(), c[QuantCat::Total].get()),
            (n_outside, n_outside)
        );
    }

    #[test]
    fn telemetry_tally_counts_sr_directions() {
        let q = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(3);
        let label = q.telemetry_label();
        let c = mpt_telemetry::quant_counters(&label);
        let base = (
            c[QuantCat::Total].get(),
            c[QuantCat::SrUp].get() + c[QuantCat::SrDown].get(),
        );

        mpt_telemetry::enable();
        // 1.1 is not representable in E5M2; SR must round it one way
        // or the other every time.
        let mut vals = [1.1f32; 64];
        q.quantize_slice_f32(&mut vals, 0);
        mpt_telemetry::disable();

        assert_eq!(c[QuantCat::Total].get() - base.0, 64);
        assert_eq!(
            c[QuantCat::SrUp].get() + c[QuantCat::SrDown].get() - base.1,
            64
        );
    }

    #[test]
    fn telemetry_does_not_change_results() {
        // Observation must not perturb: the instrumented path runs
        // the same kernels, so outputs are bit-identical.
        let q = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(11);
        let src: Vec<f32> = (0..128).map(|i| (i as f32 - 64.0) * 0.391).collect();
        let mut off = src.clone();
        q.quantize_slice_f32(&mut off, 7);
        mpt_telemetry::enable();
        let mut on = src.clone();
        q.quantize_slice_f32(&mut on, 7);
        mpt_telemetry::disable();
        assert_eq!(
            off.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            on.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bfp_slice_path() {
        let bfp = BlockFpFormat::new(3, 2).unwrap();
        let vals = bfp.quantize_slice(&[8.0, 0.4, 0.5, 0.25], Rounding::Nearest, &SrRng::new(0), 0);
        assert_eq!(vals, [8.0, 0.0, 0.5, 0.25]);
    }
}
