//! The two type parameters of the MAC loop nests: what rounds a stage
//! ([`Stage`]) and who watches it round ([`MacObserver`]).
//!
//! A MAC has two rounding stages — the multiplier output and the
//! accumulator — and each loop nest (the scalar one, and the lane nest
//! at 8 and 16 lanes) is written once, generic over a [`Stage`] per
//! stage:
//!
//! | stage type            | rounds through                                   |
//! |-----------------------|--------------------------------------------------|
//! | [`Fused`]             | nothing: the `NR` multiplier of a fused MAC      |
//! | [`FloatStage<MODE>`]  | [`FloatFastF64`] (bit-twiddling on the `f64` carrier) |
//! | [`FixedStage<MODE>`]  | [`FixedFastF64`] (scale / clamp / round-to-integer) |
//! | [`Quantizer`]         | the scalar oracle itself — block FP, `NR` accumulators, formats without a lane plan; scalar nest only |
//!
//! The rounding mode is a `const` parameter of the lane stages, so
//! every instantiated `(multiplier, accumulator)` pairing — a fused
//! multiplier with any accumulator, or two stages of one family —
//! monomorphizes to its own branch-free inner loop; `Fused` compiles the multiplier stage out
//! entirely, which leaves the fused-float instantiation with exactly
//! the loop it had before the nests became generic.
//!
//! A [`MacObserver`] sees every `(unrounded, rounded)` pair of a
//! stage. The telemetry tally is one; [`NoTally`] is the zero-sized
//! other, whose calls compile to nothing.

use mpt_formats::{FixedFastF64, FloatFastF64, Quantizer, SrRng};
use mpt_telemetry::QuantTally;

/// Watches one MAC stage round: `record(x, q)` for every value `x`
/// the stage rounded to `q` (zero products, which bypass both stages,
/// are never shown).
pub trait MacObserver {
    /// `false` when `record` is a no-op, so kernels can skip the work
    /// of materializing pairs for it.
    const ACTIVE: bool;
    /// One rounding of the observed stage.
    fn record(&mut self, x: f64, q: f64);
}

/// The observer that observes nothing (telemetry disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTally;

impl MacObserver for NoTally {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn record(&mut self, _x: f64, _q: f64) {}
}

impl MacObserver for QuantTally {
    const ACTIVE: bool = true;
    #[inline]
    fn record(&mut self, x: f64, q: f64) {
        QuantTally::record(self, x, q)
    }
}

/// Format family of a [`Stage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    /// [`FloatStage`].
    Float,
    /// [`FixedStage`].
    Fixed,
    /// Neither: [`Fused`] (pairs with any accumulator) and the
    /// [`Quantizer`] oracle stage (never reaches a lane nest).
    Other,
}

/// One rounding stage of the MAC, as the loop nests see it.
///
/// `quantize` alone serves the scalar nest; the lane nest adds the
/// stage's vector forms (`simd_fused::VecStage`) on top.
/// Dispatch sends the oracle stage, which has none, to the scalar nest.
pub(crate) trait Stage: Copy {
    /// `true` only for [`Fused`]: the stage passes values through and
    /// is never observed.
    const IDENTITY: bool = false;
    /// The stage's format family. Lane nests are only instantiated
    /// for a multiplier and accumulator of one family (or a fused
    /// multiplier); see `kernels::dispatch`.
    const FAMILY: Family;

    /// Rounds one value at rounding event `index`.
    fn quantize(&self, x: f64, index: u64) -> f64;

    /// The stage's stochastic bit source.
    fn rng(&self) -> SrRng;
}

/// The `NR` multiplier of a fused MAC: the exact product feeds the
/// adder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fused;

impl Stage for Fused {
    const IDENTITY: bool = true;
    const FAMILY: Family = Family::Other;

    #[inline(always)]
    fn quantize(&self, x: f64, _index: u64) -> f64 {
        x
    }

    fn rng(&self) -> SrRng {
        SrRng::new(0)
    }
}

/// A float-format stage under rounding mode `MODE`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FloatStage<const MODE: u8>(pub(crate) FloatFastF64);

impl<const MODE: u8> Stage for FloatStage<MODE> {
    const FAMILY: Family = Family::Float;

    #[inline(always)]
    fn quantize(&self, x: f64, index: u64) -> f64 {
        self.0.quantize::<MODE>(x, index)
    }

    fn rng(&self) -> SrRng {
        self.0.rng()
    }
}

/// A fixed-point stage under rounding mode `MODE`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedStage<const MODE: u8>(pub(crate) FixedFastF64);

impl<const MODE: u8> Stage for FixedStage<MODE> {
    const FAMILY: Family = Family::Fixed;

    #[inline(always)]
    fn quantize(&self, x: f64, index: u64) -> f64 {
        self.0.quantize::<MODE>(x, index)
    }

    fn rng(&self) -> SrRng {
        self.0.rng()
    }
}

/// The scalar oracle as a stage: any [`Quantizer`], format and mode
/// resolved per call. Only the scalar nest can run it.
impl Stage for Quantizer {
    const FAMILY: Family = Family::Other;

    #[inline]
    fn quantize(&self, x: f64, index: u64) -> f64 {
        Quantizer::quantize(self, x, index)
    }

    fn rng(&self) -> SrRng {
        Quantizer::rng(self)
    }
}
