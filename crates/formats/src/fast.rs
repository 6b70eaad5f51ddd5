//! The fast quantizer kernels, one per format family, and the one trait
//! both implement.
//!
//! [`FloatFormat::quantize`] is the bit-accuracy *oracle*: a scalar
//! routine that scales to the target ULP in `f64`, rounds, and scales
//! back. It is general — any `EeMm`, any rounding mode, any carrier —
//! but it pays for that generality on every element: an `f32 → f64`
//! round trip, two exact scalings, and a rounding-mode match.
//!
//! The GEMM emulation kernels in `mpt-arith` quantize millions of
//! elements per call with one *fixed* `(format, rounding)` pair, so a
//! [`Kernel`] precomputes everything derivable from the format once —
//! [`FloatFastF64`] here, which rounds the mantissa directly on the
//! `f64` carrier's bit pattern, and [`FixedFastF64`] for fixed point —
//! and takes the rounding mode as a `const` generic, so each mode
//! compiles to its own branch-free inner loop, selected once per slice
//! (or once per GEMM). [`Quantizer::fast_kernel`] is the one place that
//! decides which kernel a quantizer has, and
//! [`with_kernel!`](crate::with_kernel) the one place that lifts it and
//! its mode into types. `f32` values widen onto the `f64` kernel, as
//! the oracle's own `f32` path does, and the vector tiers run the
//! kernel's `f32` lane form ([`Kernel::Lanes`]) where
//! [`Kernel::f32_lanes`] holds. The slice loop
//! ([`Kernel::quantize_slice_tier`]) is written once, over the trait.
//!
//! ## Bit-equality contract
//!
//! Every path here returns **bit-identical** results to the oracle.
//! The fast integer rounding applies only where its equivalence to the
//! scaled-`f64` computation is provable: finite, non-zero, normal
//! carriers whose exponent is at least the format's `min_exp` (there
//! the oracle's every `f64` step is exact, so both compute the same
//! mathematical rounding). Zeros, NaN/infinity, carrier subnormals and
//! target-subnormal-range values — rare in GEMM traffic — delegate to
//! the oracle itself. Property tests in `tests/fast_equivalence.rs`
//! compare the two paths bit-for-bit across random formats, modes, and
//! boundary values.
//!
//! [`Quantizer::fast_kernel`]: crate::Quantizer::fast_kernel

use crate::fixed_fast::FixedFastF64;
use crate::float::FloatFormat;
use crate::rounding::Rounding;
use crate::simd::SimdTier;
use crate::sr::SrRng;

#[cfg(target_arch = "x86_64")]
use crate::lanes::QuantVec;
#[cfg(target_arch = "x86_64")]
use crate::simd::Width;

/// Rounding-mode discriminants for `const`-generic monomorphization.
///
/// [`Rounding::NoRound`] has no discriminant: it is the identity, so
/// no kernel is ever instantiated for it.
pub mod mode {
    /// Round to nearest, ties to even (RN).
    pub const RN: u8 = 0;
    /// Round toward zero (RZ).
    pub const RZ: u8 = 1;
    /// Stochastic rounding (SR).
    pub const SR: u8 = 2;
    /// Round to odd (RO).
    pub const RO: u8 = 3;
}

/// Evaluates `$body` with `$m` bound, as a `const`, to the [`mode`]
/// discriminant of the [`Rounding`] `$rounding` — the one place a
/// runtime rounding mode becomes a `const`-generic argument — or `$nr`
/// for [`Rounding::NoRound`], which has no kernel.
#[macro_export]
macro_rules! with_mode {
    ($rounding:expr, $m:ident => $body:expr, $nr:expr) => {
        match $rounding {
            $crate::Rounding::Nearest => {
                const $m: u8 = $crate::fast::mode::RN;
                $body
            }
            $crate::Rounding::TowardZero => {
                const $m: u8 = $crate::fast::mode::RZ;
                $body
            }
            $crate::Rounding::Stochastic { .. } => {
                const $m: u8 = $crate::fast::mode::SR;
                $body
            }
            $crate::Rounding::ToOdd => {
                const $m: u8 = $crate::fast::mode::RO;
                $body
            }
            $crate::Rounding::NoRound => $nr,
        }
    };
}

/// Evaluates `$body` with `$k` bound to the kernel inside the
/// [`FastKernel`] `$kernel`, at its own type, and `$m` to its rounding
/// mode as a `const` (see [`with_mode!`]): one copy of `$body` per
/// `(family, mode)`.
#[macro_export]
macro_rules! with_kernel {
    ($kernel:expr, $k:ident, $m:ident => $body:expr) => {
        match $kernel {
            $crate::FastKernel::Float($k) => $crate::with_mode!(
                $crate::Kernel::rounding(&$k),
                $m => $body,
                unreachable!("NR has no fast kernel")
            ),
            $crate::FastKernel::Fixed($k) => $crate::with_mode!(
                $crate::Kernel::rounding(&$k),
                $m => $body,
                unreachable!("NR has no fast kernel")
            ),
        }
    };
}

/// The fast kernel of a quantizer, one variant per format family
/// ([`Quantizer::fast_kernel`](crate::Quantizer::fast_kernel)).
#[derive(Debug, Clone, Copy)]
pub enum FastKernel {
    /// A float format's kernel.
    Float(FloatFastF64),
    /// A fixed-point format's kernel.
    Fixed(FixedFastF64),
}

/// A precomputed scalar `f64` quantizer of one format family, and its
/// `f32` lane form: [`FloatFastF64`] and [`FixedFastF64`]. The operand
/// slice loop and `mpt-arith`'s MAC stages run every kernel through
/// this trait.
///
/// `MODE` is always the [`mode`] discriminant of the kernel's
/// [`rounding`](Kernel::rounding) ([`with_mode!`] picks it).
#[allow(unsafe_code)] // the lane items
pub trait Kernel: Copy {
    /// The `f32` lane quantizer at width `W`, its constants broadcast.
    #[cfg(target_arch = "x86_64")]
    type Lanes<W: Width>: Copy;

    /// The kernel's rounding mode.
    fn rounding(&self) -> Rounding;

    /// The SR bit source (lane quantizers hash its
    /// [`hash_input`](SrRng::hash_input) per lane).
    fn rng(&self) -> SrRng;

    /// Whether `f32` lanes carry the kernel: every `f32` value rounds in
    /// [`Lanes`](Kernel::Lanes) exactly as [`quantize`](Kernel::quantize)
    /// rounds its `f64` image, with at most
    /// [`MAX_RANDOM_BITS`](crate::simd::MAX_RANDOM_BITS) SR bits.
    fn f32_lanes(&self) -> bool;

    /// Quantizes one value at rounding event `index`, bit-identical to
    /// the oracle.
    fn quantize<const MODE: u8>(&self, x: f64, index: u64) -> f64;

    /// Builds [`Lanes`](Kernel::Lanes).
    ///
    /// # Panics
    ///
    /// Panics unless [`f32_lanes`](Kernel::f32_lanes) holds.
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn lanes<W: Width>(&self) -> Self::Lanes<W>;

    /// Rounds the lanes of `x`; `lo` and `hi` carry `seed ^
    /// event_index·INDEX_MUL` of the low and high lanes (read only under
    /// SR). Returns the results and the mask of lanes whose result is
    /// valid; the caller recomputes the others through
    /// [`quantize`](Kernel::quantize).
    ///
    /// # Safety
    ///
    /// The host must support `W`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn quantize_lanes<W: Width, const MODE: u8>(
        q: &Self::Lanes<W>,
        x: W::V,
        lo: W::H,
        hi: W::H,
    ) -> (W::V, W::K);

    /// Quantizes one `f32` carrier at rounding event `index`: the `f64`
    /// kernel on the widened value, narrowed back — the oracle's own
    /// `quantize(x as f64) as f32`.
    #[inline(always)]
    fn quantize_f32<const MODE: u8>(&self, x: f32, index: u64) -> f32 {
        self.quantize::<MODE>(x as f64, index) as f32
    }

    /// [`quantize`](Kernel::quantize) with the mode resolved at runtime
    /// (a single small match; use the `const`-generic form in hot
    /// loops).
    fn quantize_dyn(&self, x: f64, index: u64) -> f64 {
        with_mode!(self.rounding(), M => self.quantize::<M>(x, index), x)
    }

    /// [`quantize_f32`](Kernel::quantize_f32) with the mode resolved at
    /// runtime.
    fn quantize_f32_dyn(&self, x: f32, index: u64) -> f32 {
        with_mode!(self.rounding(), M => self.quantize_f32::<M>(x, index), x)
    }

    /// Quantizes an `f32` slice in place through the requested kernel
    /// tier; element `i` uses rounding event `base_index + i`. The lane
    /// loop runs where `f32` lanes carry the kernel and the host has a
    /// vector tier, the scalar loop elsewhere. All tiers are
    /// bit-identical; pass [`crate::simd::active_tier`] for the ambient
    /// `MPT_SIMD` selection, or an explicit tier for in-process
    /// comparisons (differential tests, benches).
    fn quantize_slice_tier<const MODE: u8>(
        &self,
        values: &mut [f32],
        base_index: u64,
        tier: SimdTier,
    ) {
        #[cfg(target_arch = "x86_64")]
        if crate::lanes::quantize_slice_tier::<Self, MODE>(self, values, base_index, tier) {
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.quantize_f32::<MODE>(*v, base_index.wrapping_add(i as u64));
        }
    }
}

/// Precomputed fast quantizer for float formats on `f64` carriers: MAC
/// accumulator and multiplier-output rounding on exact `f64`
/// sums/products, and — widening each element — operand slices on `f32`
/// carriers.
#[derive(Debug, Clone, Copy)]
pub struct FloatFastF64 {
    pub(crate) format: FloatFormat,
    rounding: Rounding,
    rng: SrRng,
    min_exp: i32,
    max_exp: i32,
    /// Carrier mantissa bits dropped by the format (may be `<= 0`, in
    /// which case the format is at least as fine as the carrier and
    /// quantization is overflow-check-only).
    ts: i32,
    /// Largest magnitude bit pattern that does NOT overflow.
    max_abs_bits: u64,
    /// Magnitude bit pattern returned on overflow (saturated max or
    /// infinity), before the sign bit is OR'd back in.
    sat_bits: u64,
    /// Effective stochastic random bits (`min(random_bits, 53)`, 0 for
    /// deterministic modes).
    pub(crate) rb: u32,
    /// `man_bits == 0`: the truncated scaled significand is the implicit
    /// leading 1 alone, so it is *always odd* — the kept-digit parity
    /// cannot be read from the carrier bits (`abs >> ts` lands on the
    /// exponent field's LSB there).
    implicit_odd: bool,
}

impl FloatFastF64 {
    /// Builds the precomputed fast quantizer, or `None` for
    /// [`Rounding::NoRound`] (identity: nothing to do).
    pub fn new(format: FloatFormat, rounding: Rounding, rng: SrRng) -> Option<Self> {
        let rb = match rounding {
            Rounding::NoRound => return None,
            Rounding::Stochastic { random_bits } => random_bits.min(53),
            _ => 0,
        };
        // Every format's largest value is exactly an `f64` (`man_bits
        // <= 52`, `max_exp <= 1023`), and magnitude bit patterns order
        // like magnitudes.
        let max_abs_bits = format.max_value().to_bits();
        let sat_bits = if format.saturates() {
            max_abs_bits
        } else {
            f64::INFINITY.to_bits()
        };
        Some(FloatFastF64 {
            format,
            rounding,
            rng,
            min_exp: format.min_exp(),
            max_exp: format.max_exp(),
            ts: 52 - format.man_bits() as i32,
            max_abs_bits,
            sat_bits,
            rb,
            implicit_odd: format.man_bits() == 0,
        })
    }

    /// The scalar oracle, for inputs outside the fast regime.
    #[cold]
    #[inline(never)]
    fn oracle(&self, x: f64, index: u64) -> f64 {
        self.format.quantize(x, self.rounding, &self.rng, index)
    }
}

#[allow(unsafe_code)] // the lane items
impl Kernel for FloatFastF64 {
    #[cfg(target_arch = "x86_64")]
    type Lanes<W: Width> = QuantVec<W>;

    fn rounding(&self) -> Rounding {
        self.rounding
    }

    fn rng(&self) -> SrRng {
        self.rng
    }

    /// An exponent of at most 8 bits and a mantissa narrower than
    /// `f32`'s.
    fn f32_lanes(&self) -> bool {
        self.format.exp_bits() <= 8
            && self.format.man_bits() < 23
            && self.rb <= crate::simd::MAX_RANDOM_BITS
    }

    #[inline]
    fn quantize<const MODE: u8>(&self, x: f64, index: u64) -> f64 {
        let bits = x.to_bits();
        let sign = bits & (1 << 63);
        let abs = bits ^ sign;
        let exp_field = (abs >> 52) as i32;
        if exp_field == 0 || exp_field == 0x7FF {
            // Zero, carrier subnormal, infinity or NaN: rare — let the
            // oracle decide.
            return self.oracle(x, index);
        }
        let e_x = exp_field - 1023;
        if e_x < self.min_exp {
            // Target-subnormal range (including flush-to-zero formats):
            // the oracle's pinned-ULP path handles it.
            return self.oracle(x, index);
        }
        if self.ts <= 0 {
            // Format mantissa as wide as the carrier: every in-range
            // carrier value is representable.
            if e_x > self.max_exp {
                return f64::from_bits(sign | self.sat_bits);
            }
            return x;
        }
        let ts = self.ts as u32;
        let rem = abs & ((1 << ts) - 1);
        let y_abs = if rem == 0 {
            abs
        } else {
            let q = abs - rem;
            match MODE {
                mode::RZ => q,
                mode::RN => {
                    let half = 1 << (ts - 1);
                    let odd = self.implicit_odd || (abs >> ts) & 1 == 1;
                    let up = rem > half || (rem == half && odd);
                    q + ((up as u64) << ts)
                }
                mode::RO => {
                    if self.implicit_odd {
                        // Already odd via the implicit 1; OR-ing bit
                        // `ts` would hit the exponent field.
                        q
                    } else {
                        q | (1 << ts)
                    }
                }
                mode::SR => {
                    // The oracle floors the *signed* scaled value, so the
                    // discarded fraction is `rem/2^ts` for positive
                    // inputs and `(2^ts - rem)/2^ts` for negative ones;
                    // rounding toward +inf shrinks a negative magnitude.
                    // Event-index hashing (`SrRng::bits`) inlines here,
                    // fused with the mantissa truncation.
                    let neg = sign != 0;
                    let r = if neg { (1 << ts) - rem } else { rem };
                    let frac_bits = if self.rb >= ts {
                        r << (self.rb - ts)
                    } else {
                        r >> (ts - self.rb)
                    };
                    let toward_pos_inf = frac_bits > self.rng.bits(index, self.rb);
                    let up = toward_pos_inf ^ neg;
                    q + ((up as u64) << ts)
                }
                _ => unreachable!("invalid mode discriminant"),
            }
        };
        if y_abs > self.max_abs_bits {
            return f64::from_bits(sign | self.sat_bits);
        }
        f64::from_bits(sign | y_abs)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn lanes<W: Width>(&self) -> QuantVec<W> {
        QuantVec::new(self)
    }

    #[cfg(target_arch = "x86_64")]
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

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [Rounding; 4] = [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::Stochastic { random_bits: 10 },
        Rounding::ToOdd,
    ];

    fn assert_f32_matches(fmt: FloatFormat, rounding: Rounding, x: f32, index: u64) {
        let rng = SrRng::new(17);
        let fast = FloatFastF64::new(fmt, rounding, rng).unwrap();
        let got = fast.quantize_f32_dyn(x, index);
        let want = fmt.quantize(x as f64, rounding, &rng, index) as f32;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "fmt {fmt} mode {rounding} x {x} ({:#010x}) index {index}: fast {got} ref {want}",
            x.to_bits()
        );
    }

    fn assert_f64_matches(fmt: FloatFormat, rounding: Rounding, x: f64, index: u64) {
        let rng = SrRng::new(23);
        let fast = FloatFastF64::new(fmt, rounding, rng).unwrap();
        let got = fast.quantize_dyn(x, index);
        let want = fmt.quantize(x, rounding, &rng, index);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "fmt {fmt} mode {rounding} x {x} ({:#018x}) index {index}: fast {got} ref {want}",
            x.to_bits()
        );
    }

    #[test]
    fn dense_f32_sweep_small_formats() {
        // Walk contiguous bit patterns around 1.0, the subnormal
        // boundary and the saturation boundary for several formats.
        for fmt in [
            FloatFormat::e5m2(),
            FloatFormat::e4m3(),
            FloatFormat::e6m5(),
            FloatFormat::e5m2().without_subnormals(),
            FloatFormat::e4m3().with_infinities(),
        ] {
            let anchors = [
                1.0f32.to_bits(),
                (fmt.min_normal() as f32).to_bits(),
                (fmt.max_value() as f32).to_bits().saturating_sub(64),
            ];
            for rounding in MODES {
                for &anchor in &anchors {
                    for delta in 0..128u32 {
                        let bits = anchor.wrapping_add(delta);
                        let x = f32::from_bits(bits);
                        assert_f32_matches(fmt, rounding, x, delta as u64);
                        assert_f32_matches(fmt, rounding, -x, 1000 + delta as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn special_values_delegate_correctly() {
        let fmt = FloatFormat::e5m2();
        for rounding in MODES {
            for x in [
                0.0f32,
                -0.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE / 4.0, // carrier subnormal
                1.0e-30,                 // far below min_exp
                f32::MAX,
            ] {
                let rng = SrRng::new(3);
                let fast = FloatFastF64::new(fmt, rounding, rng).unwrap();
                let got = fast.quantize_f32_dyn(x, 5);
                let want = fmt.quantize(x as f64, rounding, &rng, 5) as f32;
                assert_eq!(got.to_bits(), want.to_bits(), "mode {rounding} x {x}");
            }
        }
    }

    #[test]
    fn f64_accumulator_formats_match() {
        for fmt in [
            FloatFormat::e6m5(),
            FloatFormat::e5m10(),
            FloatFormat::e8m23(),
        ] {
            for rounding in MODES {
                for i in 0..2000u64 {
                    // Accumulator-like sums: spread across magnitudes
                    // and signs, plus exact representables.
                    let x = ((i as f64) - 1000.0) * 0.0371 + (i as f64) * 1.0e-6;
                    assert_f64_matches(fmt, rounding, x, i);
                }
                assert_f64_matches(fmt, rounding, fmt.max_value() * 1.001, 1);
                assert_f64_matches(fmt, rounding, -fmt.max_value() * 1.001, 2);
                assert_f64_matches(fmt, rounding, fmt.max_value(), 3);
            }
        }
    }

    #[test]
    fn wide_mantissa_formats_are_overflow_check_only() {
        // man_bits >= carrier mantissa: ts <= 0 path.
        let fmt = FloatFormat::new(5, 30).unwrap();
        for rounding in MODES {
            for x in [1.5f32, -2.75, 60000.0, -70000.0, 1.0e-3] {
                assert_f32_matches(fmt, rounding, x, 9);
            }
        }
    }

    #[test]
    fn no_round_yields_no_kernel() {
        let rng = SrRng::new(0);
        assert!(FloatFastF64::new(FloatFormat::e6m5(), Rounding::NoRound, rng).is_none());
    }

    #[test]
    fn slice_matches_scalar_events() {
        let fmt = FloatFormat::e6m5();
        let rng = SrRng::new(77);
        let fast = FloatFastF64::new(fmt, Rounding::stochastic(), rng).unwrap();
        let src: Vec<f32> = (0..512).map(|i| ((i as f32) - 256.0) * 0.173).collect();
        let mut fastv = src.clone();
        fast.quantize_slice_tier::<{ mode::SR }>(&mut fastv, 4096, SimdTier::Off);
        for (i, (&got, &x)) in fastv.iter().zip(&src).enumerate() {
            let want = fmt.quantize(x as f64, Rounding::stochastic(), &rng, 4096 + i as u64);
            assert_eq!(got.to_bits(), (want as f32).to_bits(), "i {i}");
        }
    }

    #[test]
    fn sr_zero_random_bits_floors() {
        let fmt = FloatFormat::e5m2();
        let mode = Rounding::Stochastic { random_bits: 0 };
        for x in [1.1f32, -1.1, 3.9, -3.9] {
            assert_f32_matches(fmt, mode, x, 0);
        }
    }
}
