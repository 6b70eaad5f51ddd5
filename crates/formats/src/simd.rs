//! Kernel-tier selection for the lane-parallel quantize and MAC paths.
//!
//! The hot loops in this crate ([`crate::FloatFastF32`] /
//! [`crate::FloatFastF64`], [`crate::FixedFastF32`] /
//! [`crate::FixedFastF64`]) and in `mpt-arith`'s MAC GEMM loop nests
//! exist in three implementations that produce **bit-identical**
//! results:
//!
//! | tier       | implementation                                        |
//! |------------|-------------------------------------------------------|
//! | `Off`      | the scalar loops: one element per step, also what serves the vector tiers' tails, their handed-back lanes and every MAC `f32` lanes cannot carry, and the only tier off x86_64 |
//! | `Avx2`     | AVX2 + FMA intrinsics on 8 `f32` lanes: the MAC nest and the operand-slice quantizers, blend-vector masks, SplitMix64 from `vpmuludq` |
//! | `Avx512`   | AVX-512 (F + DQ + VL) intrinsics for the MAC nest: the same nest on 16 `f32` lanes, k-mask compares, native `vpmullq` for the SR hash; the *slice* quantizers under this tier run the `Avx2` kernels |
//!
//! The MAC nest is one design at two widths: both vector tiers run it
//! for every MAC whose two stages `f32` lanes carry (every row of the
//! paper's Table II), and every other MAC runs the scalar nest.
//!
//! [`active_tier`] resolves the process-wide tier **once**: the
//! `MPT_SIMD` environment knob
//! (`auto`/`off`/`avx2`/`avx512`) combined with
//! `is_x86_feature_detected!` runtime dispatch. `auto` (the default)
//! picks the widest tier the host supports.
//! Benches and differential tests bypass the ambient tier through the
//! explicit `*_tier` entry points
//! ([`crate::FloatFastF32::quantize_slice_tier`],
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

/// One of the three bit-identical kernel implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Scalar loops (the only tier off x86_64).
    Off,
    /// AVX2 + FMA intrinsics: the MAC nest on 8 `f32` lanes and the
    /// slice quantizers (x86_64 with runtime detection only).
    Avx2,
    /// The AVX-512 (F + DQ + VL) MAC nest on 16 `f32` lanes over the
    /// AVX2 slice quantizers (x86_64 with runtime detection only).
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
/// AVX-512 F, DQ (`vpmullq`, sign-bit masks, 256-bit lane halves) and
/// VL (mask intrinsics on 16-bit masks), on top of the `Avx2` tier's
/// features for the slice quantizers (runtime detection; always
/// `false` off x86_64).
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
