//! The two type parameters of the MAC loop nests: what rounds a stage
//! ([`Stage`]) and who watches it round ([`MacObserver`]).
//!
//! A MAC has two rounding stages — the multiplier output and the
//! accumulator — and each loop nest (the scalar one, and the lane nest
//! at 8 and 16 lanes) is written once, generic over a [`Stage`] per
//! stage:
//!
//! | stage type              | rounds through                                   |
//! |-------------------------|--------------------------------------------------|
//! | [`Fused`]               | nothing: the `NR` multiplier of a fused MAC      |
//! | [`KernelStage<K, MODE>`] | `mpt-formats`' fast [`Kernel`] `K` — [`FloatFastF64`](mpt_formats::FloatFastF64) or [`FixedFastF64`](mpt_formats::FixedFastF64) — under rounding mode `MODE` |
//! | [`Quantizer`]           | the scalar oracle itself — block FP, `NR` accumulators, quantizers without a fast kernel; scalar nest only |
//!
//! The rounding mode is a `const` parameter of the kernel stage, so
//! every instantiated `(multiplier, accumulator)` pairing — a fused
//! multiplier with any kernel, or two kernels of one family —
//! monomorphizes to its own branch-free inner loop; `Fused` compiles the multiplier stage out
//! entirely, which leaves the fused-float instantiation with exactly
//! the loop it had before the nests became generic.
//!
//! A [`MacObserver`] sees every `(unrounded, rounded)` pair of a
//! stage. The telemetry tally is one; [`NoTally`] is the zero-sized
//! other, whose calls compile to nothing.

use mpt_formats::{Kernel, Quantizer};
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

/// One rounding stage of the MAC, as the loop nests see it.
///
/// `quantize` alone serves the scalar nest; the lane nest adds the
/// stage's vector forms (`simd_fused::VecStage`) on top.
/// Dispatch sends the oracle stage, which has none, to the scalar nest.
pub(crate) trait Stage: Copy {
    /// `true` only for [`Fused`]: the stage passes values through and
    /// is never observed.
    const IDENTITY: bool = false;

    /// Rounds one value at rounding event `index`.
    fn quantize(&self, x: f64, index: u64) -> f64;
}

/// The `NR` multiplier of a fused MAC: the exact product feeds the
/// adder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fused;

impl Stage for Fused {
    const IDENTITY: bool = true;

    #[inline(always)]
    fn quantize(&self, x: f64, _index: u64) -> f64 {
        x
    }
}

/// A fast [`Kernel`] of either format family under rounding mode
/// `MODE` (its [`mode`](mpt_formats::fast::mode) discriminant).
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelStage<K, const MODE: u8>(pub(crate) K);

impl<K: Kernel, const MODE: u8> Stage for KernelStage<K, MODE> {
    #[inline(always)]
    fn quantize(&self, x: f64, index: u64) -> f64 {
        self.0.quantize::<MODE>(x, index)
    }
}

/// The scalar oracle as a stage: any [`Quantizer`], format and mode
/// resolved per call. Only the scalar nest can run it.
impl Stage for Quantizer {
    #[inline]
    fn quantize(&self, x: f64, index: u64) -> f64 {
        Quantizer::quantize(self, x, index)
    }
}
