//! # mpt-formats — custom number formats for mixed-precision DNN training
//!
//! This crate is the arithmetic substrate of the MPTorch-FPGA
//! reproduction. It provides bit-accurate *quantizers*: functions that
//! map an IEEE-754 `f32`/`f64` value onto the nearest representable
//! point of a reduced-precision format, under a selectable rounding
//! mode. Values keep travelling as `f32`/`f64` carriers (exactly like
//! MPTorch's CPU/GPU emulation), but after quantization they only ever
//! take values the target hardware format could represent, so every
//! downstream computation is bit-identical to what a native
//! low-precision unit would produce.
//!
//! Three format families are supported, matching the paper:
//!
//! * [`FloatFormat`] — parameterizable floating point `EeMm`
//!   (`e` exponent bits, `m` mantissa bits), e.g. `E5M2` (FP8),
//!   `E6M5` (FP12), `E5M10` (FP16), `E8M23` (FP32).
//! * [`FixedFormat`] — two's-complement fixed point `FXPi.f`
//!   (`i` signed integer bits including sign, `f` fractional bits).
//! * [`BlockFpFormat`] — block floating point: a shared exponent per
//!   block with `m`-bit mantissas.
//!
//! Five rounding modes are available through [`Rounding`]:
//! round-to-nearest-even (**RN**), round-toward-zero (**RZ**),
//! stochastic rounding with a configurable number of random bits
//! (**SR**), round-to-odd (**RO**) and no rounding (**NR**, the value
//! passes through exactly — used for fused multiplier outputs).
//!
//! Stochastic rounding draws its randomness from [`SrRng`], a
//! counter-based (stateless) generator: the random bits for a given
//! `(seed, index)` pair are a pure function of those inputs. This is
//! what lets the FPGA systolic-array simulator in `mpt-fpga` produce
//! results *bitwise identical* to CPU emulation regardless of the
//! order in which MAC operations are scheduled.
//!
//! ## Example
//!
//! ```
//! use mpt_formats::{FloatFormat, Quantizer, Rounding};
//!
//! // FP8 (E5M2) with round-to-nearest-even.
//! let q = Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest);
//! let y = q.quantize_f32(1.2345, 0);
//! assert_eq!(y, 1.25); // nearest E5M2-representable value
//! ```

// `deny` rather than `forbid`: the lane kernels are the sanctioned
// `unsafe` islands — the `Width` trait in `simd`, its two impls in
// `simd_avx2` and `simd_avx512`, the quantizers and slice loop
// written over it in `lanes` (raw intrinsics behind runtime feature
// detection), and the lane items of the `Kernel` trait and its two
// impls in `fast` and `fixed_fast`; everything else stays unsafe-free
// and any new `unsafe` outside them is still a hard error.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod error;
pub mod fast;
pub mod fixed;
pub mod fixed_fast;
pub mod float;
#[cfg(target_arch = "x86_64")]
pub mod lanes;
pub mod quant;
pub mod rounding;
pub mod simd;
#[cfg(target_arch = "x86_64")]
pub mod simd_avx2;
#[cfg(target_arch = "x86_64")]
pub mod simd_avx512;
pub mod sr;

pub use block::BlockFpFormat;
pub use error::FormatError;
pub use fast::{FastKernel, FloatFastF64, Kernel};
pub use fixed::FixedFormat;
pub use fixed_fast::FixedFastF64;
pub use float::FloatFormat;
pub use quant::{NumberFormat, Quantizer};
pub use rounding::Rounding;
pub use simd::SimdTier;
pub use sr::SrRng;
