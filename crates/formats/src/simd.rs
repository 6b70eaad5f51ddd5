//! Kernel-tier selection for the lane-parallel quantize and MAC paths,
//! and the vector width both vector tiers are written against.
//!
//! The hot loops in this crate (the [kernels](crate::Kernel)
//! [`crate::FloatFastF64`] and [`crate::FixedFastF64`] and their one
//! `f32` slice loop) and in
//! `mpt-arith`'s MAC GEMM loop nests exist in three implementations
//! that produce **bit-identical** results:
//!
//! | tier       | implementation                                        |
//! |------------|-------------------------------------------------------|
//! | `Off`      | the scalar loops: one element per step, also what serves the vector tiers' tails, their handed-back lanes and every MAC or slice `f32` lanes cannot carry, and the only tier off x86_64 |
//! | `Avx2`     | the lane kernels at [`Avx2`](crate::simd_avx2::Avx2): 8 `f32` lanes, AVX2 + FMA, blend-vector masks, SplitMix64 from `vpmuludq` |
//! | `Avx512`   | the same lane kernels at [`Avx512`](crate::simd_avx512::Avx512): 16 `f32` lanes, AVX-512 F + DQ + VL, k-masks, `vpmullq` for the SR hash |
//!
//! The lane kernels are written once, generic over [`Width`]: one
//! `f32` lane quantizer per format family
//! ([`QuantVec`](crate::lanes::QuantVec) for floats,
//! [`FixedVec`](crate::lanes::FixedVec) for fixed point), one operand
//! slice loop, and `mpt-arith`'s MAC nest. Both vector tiers run all
//! three at their own width, for every slice and MAC whose formats
//! `f32` lanes carry (every row of the paper's Table II); everything
//! else runs the scalar loops.
//!
//! [`active_tier`] resolves the process-wide tier **once**: the
//! `MPT_SIMD` environment knob
//! (`auto`/`off`/`avx2`/`avx512`) combined with
//! `is_x86_feature_detected!` runtime dispatch. `auto` (the default)
//! picks the widest tier the host supports.
//! Benches and differential tests bypass the ambient tier through the
//! explicit `*_tier` entry points
//! ([`crate::Quantizer::quantize_slice_f32_tier`],
//! `mpt_arith::qgemm_with_tier`) so several tiers can be compared
//! within one process.
//!
//! Bit-identity across tiers is not incidental: every lane computes
//! the exact same integer/float operation sequence as the scalar
//! kernel (IEEE 754 arithmetic is fully specified, and the
//! stochastic-rounding stream is a pure function of `(seed, event
//! index)`), lanes that leave the provable fast regime fall back to
//! the scalar oracle per element, and reductions never reassociate —
//! see `DESIGN.md` §6 "Lane-parallel kernels & dispatch".

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use crate::fast::Kernel;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::__m128i;

/// One of the three bit-identical kernel implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Scalar loops (the only tier off x86_64).
    Off,
    /// The lane kernels on 8 `f32` lanes, AVX2 + FMA (x86_64 with
    /// runtime detection only).
    Avx2,
    /// The lane kernels on 16 `f32` lanes, AVX-512 F + DQ + VL (x86_64
    /// with runtime detection only).
    Avx512,
}

impl SimdTier {
    /// Every tier, narrowest first. Safe to iterate on any host: an
    /// explicit-tier entry point asked for a tier the CPU cannot
    /// execute runs the next narrower one it can (`Avx512` → `Avx2` →
    /// `Off`), which is bit-identical anyway — so differential
    /// tests loop over this and cover the fall-backs where a tier is
    /// missing. [`available`](Self::available) is the prefix the host
    /// really executes.
    pub const ALL: [SimdTier; 3] = [SimdTier::Off, SimdTier::Avx2, SimdTier::Avx512];

    /// Stable lower-case name (`off`/`avx2`/`avx512`) — the
    /// values `MPT_SIMD` accepts and the telemetry dispatch counters
    /// use.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Off => "off",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    /// Every tier the current host can execute, widest last.
    pub fn available() -> &'static [SimdTier] {
        let count = match widest_supported_tier() {
            SimdTier::Avx512 => 3,
            SimdTier::Avx2 => 2,
            SimdTier::Off => 1,
        };
        &Self::ALL[..count]
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The most SR random bits the `f32` lane quantizers take: their
/// draws are compared on 32-bit lanes.
pub const MAX_RANDOM_BITS: u32 = 31;

/// `true` when the host CPU supports what the `Avx2` tier uses: AVX2,
/// and FMA for the MAC nest's exact-product test (runtime detection;
/// always `false` off x86_64).
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the host CPU supports what the `Avx512` tier uses:
/// AVX-512 F, DQ (`vpmullq`, 256-bit lane halves) and VL (mask
/// intrinsics on 16-bit masks), on top of the `Avx2` tier's features,
/// which it falls back to (runtime detection; always `false` off
/// x86_64).
pub fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_supported()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The widest tier the host supports — what `MPT_SIMD=auto` resolves
/// to.
pub fn widest_supported_tier() -> SimdTier {
    if avx512_supported() {
        SimdTier::Avx512
    } else if avx2_supported() {
        SimdTier::Avx2
    } else {
        SimdTier::Off
    }
}

/// Parses one `MPT_SIMD` value. `auto` (and the empty string) defer
/// to runtime detection; unknown values return `Err` with the
/// offending string.
pub fn parse_tier(value: &str) -> Result<SimdTier, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(widest_supported_tier()),
        "off" | "scalar" => Ok(SimdTier::Off),
        "avx2" if avx2_supported() => Ok(SimdTier::Avx2),
        "avx512" if avx512_supported() => Ok(SimdTier::Avx512),
        tier @ ("avx2" | "avx512") => Err(format!(
            "MPT_SIMD={tier} requested but the host CPU lacks it; falling back to `{}`",
            widest_supported_tier()
        )),
        other => Err(format!(
            "unknown MPT_SIMD value `{other}` (expected auto|off|avx2|avx512); \
             falling back to `auto`"
        )),
    }
}

/// The process-wide kernel tier, resolved once from `MPT_SIMD` plus
/// runtime CPU detection (see module docs). Invalid or unsupported
/// requests warn on stderr and degrade to the widest *supported*
/// tier rather than aborting — a mis-set knob must never take down a
/// training run.
pub fn active_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let requested = std::env::var("MPT_SIMD").unwrap_or_default();
        match parse_tier(&requested) {
            Ok(tier) => tier,
            Err(msg) => {
                eprintln!("mpt-formats: {msg}");
                widest_supported_tier()
            }
        }
    })
}

/// One vector width of the lane kernels: its vector, mask and hash
/// types and the operations the quantizers ([`QuantVec`],
/// [`FixedVec`]), the slice loop and `mpt-arith`'s MAC nest perform on
/// them. [`Avx512`](crate::simd_avx512::Avx512) has 16 `f32` lanes and
/// k-masks, [`Avx2`](crate::simd_avx2::Avx2) 8 lanes and blend-vector
/// masks.
///
/// The operations are the intrinsics of the width, one each, except for
/// the steps AVX-512 does in one instruction that AVX2 spells out: the
/// unsigned compare ([`lt_u`](Width::lt_u), which is also the float
/// fast-regime range test), the sign merge
/// ([`merge_sign`](Width::merge_sign), one `vpternlogd`), the masked
/// adds, ors and moves, and packing the SR draws
/// ([`draws`](Width::draws)). Their 16-lane impls are that one
/// instruction and their 8-lane impls the AVX2 sequence.
///
/// [`QuantVec`]: crate::lanes::QuantVec
/// [`FixedVec`]: crate::lanes::FixedVec
///
/// # Safety
///
/// Every `unsafe` method requires the host to support the width
/// ([`supported`](Width::supported)). The entry points
/// ([`quantize_slice`](Width::quantize_slice) here, the MAC nest's in
/// `mpt-arith`) enable the width's target features; every operation is
/// `#[inline(always)]` and compiles into them. Called from anywhere
/// else they are correct but each intrinsic is an out-of-line call.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub trait Width: Copy {
    /// Lanes per vector.
    const N: usize;
    /// `N` `f32` lanes.
    type V: Copy;
    /// The same lanes as 32-bit integers.
    type I: Copy;
    /// A lane mask.
    type K: Copy;
    /// The 64-bit SR hash inputs of `N / 2` lanes.
    type H: Copy;

    /// Whether the host supports the width.
    fn supported() -> bool;
    /// The slice loop of `kernel`'s lane quantizer at this width, under
    /// the width's target features.
    /// # Safety
    /// The host must support the width, and `f32` lanes must carry
    /// `kernel` ([`Kernel::f32_lanes`]).
    unsafe fn quantize_slice<L: Kernel, const MODE: u8>(
        kernel: &L,
        values: &mut [f32],
        base_index: u64,
    );

    /// The mask of lanes `0..n`, `n ≤ N`.
    /// # Safety
    /// The host must support the width.
    unsafe fn prefix(n: usize) -> Self::K;
    /// Whether `k` has no lane set.
    /// # Safety
    /// The host must support the width.
    unsafe fn none(k: Self::K) -> bool;
    /// `k`, one bit per lane.
    /// # Safety
    /// The host must support the width.
    unsafe fn bits(k: Self::K) -> u32;
    /// `a & b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn and(a: Self::K, b: Self::K) -> Self::K;
    /// `!a & b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn andn(a: Self::K, b: Self::K) -> Self::K;
    /// `a | b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn or(a: Self::K, b: Self::K) -> Self::K;
    /// `a ^ b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn xor(a: Self::K, b: Self::K) -> Self::K;

    /// `x` in every lane.
    /// # Safety
    /// The host must support the width.
    unsafe fn splat(x: f32) -> Self::V;
    /// Loads the lanes of `k` from `p` and zeroes the others, which are
    /// not read.
    /// # Safety
    /// The host must support the width.
    unsafe fn load(k: Self::K, p: *const f32) -> Self::V;
    /// Stores the lanes of `k` to `p`; the others are not written.
    /// # Safety
    /// The host must support the width.
    unsafe fn store(k: Self::K, p: *mut f32, v: Self::V);
    /// Loads `N` lanes from `p`.
    /// # Safety
    /// The host must support the width.
    unsafe fn loadu(p: *const f32) -> Self::V;
    /// Stores `N` lanes to `p`.
    /// # Safety
    /// The host must support the width.
    unsafe fn storeu(p: *mut f32, v: Self::V);
    /// `a · b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// `a + b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// `a − b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// `a · b − c`, rounded once.
    /// # Safety
    /// The host must support the width.
    unsafe fn fmsub(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `|a|`.
    /// # Safety
    /// The host must support the width.
    unsafe fn abs(a: Self::V) -> Self::V;
    /// `min(a, b)` (`b` where either is NaN).
    /// # Safety
    /// The host must support the width.
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    /// `max(a, b)` (`b` where either is NaN).
    /// # Safety
    /// The host must support the width.
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// `a` rounded to an integer under `_MM_FROUND_*` mode `R`.
    /// # Safety
    /// The host must support the width.
    unsafe fn round<const R: i32>(a: Self::V) -> Self::V;
    /// The lanes of `k` where compare predicate `P` holds for `a`, `b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn cmp<const P: i32>(k: Self::K, a: Self::V, b: Self::V) -> Self::K;
    /// `b` in the lanes of `k`, `a` in the others.
    /// # Safety
    /// The host must support the width.
    unsafe fn select(a: Self::V, k: Self::K, b: Self::V) -> Self::V;
    /// `a + b` in the lanes of `k`, `a` in the others.
    /// # Safety
    /// The host must support the width.
    unsafe fn mask_add(a: Self::V, k: Self::K, b: Self::V) -> Self::V;
    /// `+0.0` in the lanes of `k`, `a` in the others.
    /// # Safety
    /// The host must support the width.
    unsafe fn clear(k: Self::K, a: Self::V) -> Self::V;

    /// The bits of `a`.
    /// # Safety
    /// The host must support the width.
    unsafe fn to_bits(a: Self::V) -> Self::I;
    /// The lanes whose bits are `a`.
    /// # Safety
    /// The host must support the width.
    unsafe fn from_bits(a: Self::I) -> Self::V;
    /// `x` in every lane.
    /// # Safety
    /// The host must support the width.
    unsafe fn splat_i(x: u32) -> Self::I;
    /// `a & b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn and_i(a: Self::I, b: Self::I) -> Self::I;
    /// `!a & b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn andn_i(a: Self::I, b: Self::I) -> Self::I;
    /// `a + b` (wrapping).
    /// # Safety
    /// The host must support the width.
    unsafe fn add_i(a: Self::I, b: Self::I) -> Self::I;
    /// `a − b` (wrapping).
    /// # Safety
    /// The host must support the width.
    unsafe fn sub_i(a: Self::I, b: Self::I) -> Self::I;
    /// `a << count` (0 for counts of 32 or more).
    /// # Safety
    /// The host must support the width.
    unsafe fn sll_i(a: Self::I, count: __m128i) -> Self::I;
    /// `a >> count`, logical (0 for counts of 32 or more).
    /// # Safety
    /// The host must support the width.
    unsafe fn srl_i(a: Self::I, count: __m128i) -> Self::I;
    /// The lanes where `a == b`.
    /// # Safety
    /// The host must support the width.
    unsafe fn eq_i(a: Self::I, b: Self::I) -> Self::K;
    /// The lanes where `a > b`, signed.
    /// # Safety
    /// The host must support the width.
    unsafe fn gt_i(a: Self::I, b: Self::I) -> Self::K;
    /// The lanes where `a < b`, unsigned.
    /// # Safety
    /// The host must support the width.
    unsafe fn lt_u(a: Self::I, b: Self::I) -> Self::K;
    /// The lanes where `a & b` is not zero; `a & b` must have bit 31
    /// clear.
    /// # Safety
    /// The host must support the width.
    unsafe fn test_i(a: Self::I, b: Self::I) -> Self::K;
    /// `b` in the lanes of `k`, `a` in the others.
    /// # Safety
    /// The host must support the width.
    unsafe fn select_i(a: Self::I, k: Self::K, b: Self::I) -> Self::I;
    /// `a + b` in the lanes of `k`, `a` in the others.
    /// # Safety
    /// The host must support the width.
    unsafe fn mask_add_i(a: Self::I, k: Self::K, b: Self::I) -> Self::I;
    /// `a | b` in the lanes of `k`, `a` in the others.
    /// # Safety
    /// The host must support the width.
    unsafe fn mask_or_i(a: Self::I, k: Self::K, b: Self::I) -> Self::I;
    /// Bits 30..0 of `magnitude` and bit 31 of `sign`; `magnitude` must
    /// have bit 31 clear.
    /// # Safety
    /// The host must support the width.
    unsafe fn merge_sign(magnitude: Self::I, sign: Self::I) -> Self::I;
    /// Each lane's SR draw from its hash input (lanes `0..N/2` in
    /// `lo`, the rest in `hi`): bits 63..33 of the SplitMix64 word of
    /// [`crate::sr::hash::mix`], at bits 30..0. The word's last step
    /// `z ^ (z >> 31)` changes bits 32 and below only, so it is skipped.
    /// Every draw of `rb ≤` [`MAX_RANDOM_BITS`] bits is the lane's top
    /// `rb` bits.
    /// # Safety
    /// The host must support the width.
    unsafe fn draws(lo: Self::H, hi: Self::H) -> Self::I;
    /// `(y − t) · scale`, computed in `f64` and truncated to an
    /// integer; the result must lie in `[0, 2^32)`.
    /// # Safety
    /// The host must support the width.
    unsafe fn sr_fraction(y: Self::V, t: Self::V, scale: f64) -> Self::I;

    /// Loads `N / 2` 64-bit values.
    /// # Safety
    /// The host must support the width.
    unsafe fn load64(p: *const u64) -> Self::H;
    /// `x` in every 64-bit lane.
    /// # Safety
    /// The host must support the width.
    unsafe fn splat64(x: u64) -> Self::H;
    /// `(part + step) ^ seed` per 64-bit lane (wrapping): a hash input.
    /// # Safety
    /// The host must support the width.
    unsafe fn hash(part: Self::H, step: Self::H, seed: Self::H) -> Self::H;
}

/// The body of a [`Width`] impl: the slice entry point under target
/// features `$features`, then the operations, each written
/// `fn name(args) -> ret = expr;` and always inlined.
#[cfg(target_arch = "x86_64")]
macro_rules! width_impl {
    (
        features = $features:literal;
        $(fn $name:ident $(<const $c:ident: $ct:ty>)? ($($arg:ident: $ty:ty),*) -> $ret:ty
            = $body:expr;)*
    ) => {
        #[target_feature(enable = $features)]
        unsafe fn quantize_slice<L: $crate::fast::Kernel, const MODE: u8>(
            kernel: &L,
            values: &mut [f32],
            base_index: u64,
        ) {
            $crate::lanes::quantize_slice::<Self, L, MODE>(kernel, values, base_index)
        }

        $(
            #[inline(always)]
            unsafe fn $name $(<const $c: $ct>)? ($($arg: $ty),*) -> $ret {
                $body
            }
        )*
    };
}
#[cfg(target_arch = "x86_64")]
pub(crate) use width_impl;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for &tier in SimdTier::available() {
            assert_eq!(parse_tier(tier.name()), Ok(tier));
            assert_eq!(parse_tier(&tier.name().to_uppercase()), Ok(tier));
        }
    }

    #[test]
    fn unsupported_vector_tiers_error_naming_the_fallback() {
        for (name, supported) in [("avx2", avx2_supported()), ("avx512", avx512_supported())] {
            if !supported {
                let msg = parse_tier(name).unwrap_err();
                assert!(msg.contains(widest_supported_tier().name()), "{msg}");
            }
        }
    }

    #[test]
    fn auto_and_empty_pick_the_widest_supported() {
        assert_eq!(parse_tier("auto"), Ok(widest_supported_tier()));
        assert_eq!(parse_tier(""), Ok(widest_supported_tier()));
    }

    #[test]
    fn unknown_values_error() {
        // `portable` was a tier once; it gets no alias.
        for value in ["sse9", "portable"] {
            let msg = parse_tier(value).unwrap_err();
            assert!(msg.contains("(expected auto|off|avx2|avx512)"), "{msg}");
        }
    }

    #[test]
    fn available_ends_with_the_widest() {
        let avail = SimdTier::available();
        assert_eq!(avail.first(), Some(&SimdTier::Off));
        assert_eq!(avail.last(), Some(&widest_supported_tier()));
        assert_eq!(avail, &SimdTier::ALL[..avail.len()]);
        assert_eq!(avail.contains(&SimdTier::Avx2), avx2_supported());
        assert_eq!(avail.contains(&SimdTier::Avx512), avx512_supported());
    }

    /// The tier resolves once, and a leg that pins `MPT_SIMD` to a tier
    /// the host executes runs that tier, not a narrower one it
    /// degraded to (say, `avx2` on a runner without FMA).
    #[test]
    fn active_tier_is_stable() {
        // CI's kernel-dispatch legs run this with `--nocapture` to log
        // which nest they exercised.
        println!("MPT_SIMD resolved to `{}`", active_tier());
        assert_eq!(active_tier(), active_tier());
        let requested = std::env::var("MPT_SIMD").unwrap_or_default();
        let pinned = SimdTier::available()
            .iter()
            .find(|tier| tier.name() == requested.trim().to_ascii_lowercase());
        if let Some(&tier) = pinned {
            assert_eq!(active_tier(), tier, "MPT_SIMD={requested}");
        }
    }
}
