//! Kernel selection and the scalar cache-blocked GEMM loop nest.
//!
//! [`gemm_into_tier`] inspects the MAC configuration **once** per GEMM:
//! it asks each stage's [`Quantizer`] for its fast kernel, lifts the
//! kernel and its rounding mode into a monomorphized [`KernelStage`]
//! ([`with_kernel!`]) and runs the loop nest of the requested tier over
//! the pair. `mpt-formats` alone decides which kernel a quantizer has
//! ([`Quantizer::fast_kernel`]) and whether `f32` lanes carry it
//! ([`Kernel::f32_lanes`]):
//!
//! | MAC configuration (`mul × acc`)               | stages                         | nest |
//! |-----------------------------------------------|--------------------------------|------|
//! | fused (`NR` mul) × float or fixed             | `Fused × KernelStage<FloatFastF64, M>`, `Fused × KernelStage<FixedFastF64, M>` | tier |
//! | fixed × fixed — the paper's unfused `FXP4.4 × FXP8.8` | `KernelStage<FixedFastF64, M>` at both | tier |
//! | unfused float × float                         | `KernelStage<FloatFastF64, M>` at both | tier |
//! | block FP at either stage, `NR` accumulator, unfused float × fixed or fixed × float, fixed point wider than 52 bits, floats as fine as `f64` | [`Quantizer`] (the scalar oracle) at both stages | [`gemm_scalar`] only |
//!
//! [`Quantizer`]: mpt_formats::Quantizer
//! [`Quantizer::fast_kernel`]: mpt_formats::Quantizer::fast_kernel
//!
//! "Tier" is [`gemm_scalar`] on `off`. On `avx2` and `avx512` it is
//! the one lane nest (`simd_fused::gemm_lanes`) at 8 and 16 `f32` lanes
//! when `f32` lanes carry both stages — floats with at most 8 exponent
//! and 22 mantissa bits, fixed point of at most 24 bits, SR with at
//! most 31 random bits: every row of the paper's Table II — and
//! [`gemm_scalar`] for the rest (SR with 32 or more random bits,
//! `E8M23` or wider-exponent accumulators, fixed point wider than 24
//! bits, and GEMMs whose coordinates leave the fields of
//! [`sr_event_index`](crate::sr_event_index)).
//!
//! There is one loop nest per design, generic over the two stages and
//! the observer, decided from the [`MacConfig`] alone, once per GEMM;
//! the last row of the table is the scalar nest instantiated with the
//! oracle stage, not a nest of its own.
//!
//! The scalar nest is `i / j-tile / k / j` ordered: for each output
//! row, a `J_TILE`-wide chunk of the output and of each `B` row stays
//! hot in L1 while the `k` reduction streams through. The lane nest is
//! `j-strip / i / k`: a 32-column strip's accumulators live in
//! registers for the whole reduction, as `f32` blocks whose every step
//! is proved exact or settled through the scalar body (see
//! `simd_fused`). In both every output element accumulates over `k` in
//! ascending order — the order the scalar reference uses, so results
//! are bit-identical by construction (each element sees the same
//! sequence of [`mac_round`] operations with the same event indices).
//!
//! Zero skipping matches [`mac_step`](crate::mac_step)'s
//! `product == 0` short-circuit exactly: a whole `A`-zero row of work
//! is skipped only when `B` is known finite (otherwise `0 × inf` must
//! still produce the NaN the reference produces).
//!
//! The nests are generic over a [`MacObserver`] for the telemetry
//! numerics counters: [`NoTally`] monomorphizes to exactly the
//! uninstrumented loop, [`mpt_telemetry::QuantTally`] classifies every multiplier
//! and accumulator rounding into thread-local tallies flushed once
//! per kernel call. [`gemm_into_tier`] picks the variant with a single
//! `telemetry::enabled()` check per GEMM, so the disabled path costs
//! one relaxed atomic load.

use crate::mac::{mac_round, MacConfig};
use crate::stage::{Fused, KernelStage, MacObserver, NoTally, Stage};
use mpt_formats::{with_kernel, with_mode, FastKernel, Kernel, SimdTier};

/// Output/B-row chunk width: 256 f32 = 1 KiB per row chunk, so the
/// output chunk plus the streaming B chunk sit comfortably in L1.
const J_TILE: usize = 256;

/// One GEMM tile as the loop nests see it: `out += A · B` with `out`
/// starting at zero, quantized operands in `ad`/`bd`, rounding events
/// indexed by global coordinates `(i + row_offset, j + col_offset, k)`.
pub(crate) struct Gemm<'a> {
    pub(crate) out: &'a mut [f32],
    pub(crate) ad: &'a [f32],
    pub(crate) bd: &'a [f32],
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) m: usize,
    pub(crate) row_offset: usize,
    pub(crate) col_offset: usize,
    /// `product == 0` skipping can only be hoisted to whole-row
    /// granularity when B holds no inf/NaN (0 × inf = NaN must not be
    /// skipped). One O(km) scan amortized over O(nkm) work.
    pub(crate) b_all_finite: bool,
}

/// A stage every tier's nest can run (the lane nest needs its vector
/// forms on top of [`Stage`]).
#[cfg(target_arch = "x86_64")]
use crate::simd_fused::VecStage as LaneStage;
/// A stage every tier's nest can run.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) trait LaneStage: Stage {}
#[cfg(not(target_arch = "x86_64"))]
impl<S: Stage> LaneStage for S {}

/// Computes `out += A · B` under `mac` (with `out` starting at zero),
/// quantized operands already in `ad`/`bd`, indexing rounding events
/// by global coordinates `(i + row_offset, j + col_offset, k)`, on the
/// nest of kernel tier `tier`.
///
/// Bit-identical to the scalar reference loop for all configurations
/// and tiers, with telemetry enabled or not.
#[allow(clippy::too_many_arguments)] // flat GEMM signature: dims + offsets
pub(crate) fn gemm_into_tier(
    out: &mut [f32],
    ad: &[f32],
    bd: &[f32],
    n: usize,
    k: usize,
    m: usize,
    mac: &MacConfig,
    row_offset: usize,
    col_offset: usize,
    tier: SimdTier,
) {
    debug_assert_eq!(out.len(), n * m);
    debug_assert_eq!(ad.len(), n * k);
    debug_assert_eq!(bd.len(), k * m);
    let b_all_finite = bd.iter().all(|v| v.is_finite());
    let gemm = Gemm {
        out,
        ad,
        bd,
        n,
        k,
        m,
        row_offset,
        col_offset,
        b_all_finite,
    };
    if mpt_telemetry::enabled() {
        let mut mul_tally = mac.mul.telemetry_tally();
        let mut acc_tally = mac.acc.telemetry_tally();
        // Dispatch counter: which nest ran this GEMM
        // (`kernel.tier.off|avx2|avx512` for the lane stages,
        // `kernel.tier.generic` for the scalar-oracle stages).
        let label = dispatch(gemm, mac, tier, &mut mul_tally, &mut acc_tally);
        mpt_telemetry::counter(&format!("kernel.tier.{label}")).incr();
        // Flush once per kernel call (per row band); empty tallies
        // (fused multipliers, identity stages) are free.
        mul_tally.flush(&format!("mul:{}", mac.mul));
        acc_tally.flush(&format!("acc:{}", mac.acc));
    } else {
        dispatch(gemm, mac, tier, &mut NoTally, &mut NoTally);
    }
}

/// Resolves both stages of `mac` and runs the matching nest; returns
/// the `kernel.tier.*` label of what ran.
fn dispatch<T: MacObserver>(
    gemm: Gemm<'_>,
    mac: &MacConfig,
    tier: SimdTier,
    mul_obs: &mut T,
    acc_obs: &mut T,
) -> &'static str {
    use FastKernel::{Fixed, Float};
    let ran = match (mac.is_fused(), mac.mul.fast_kernel(), mac.acc.fast_kernel()) {
        (true, _, Some(acc)) => with_kernel!(acc, acc, A => {
            gemm_tier(gemm, &Fused, &KernelStage::<_, A>(acc), tier, mul_obs, acc_obs)
        }),
        (false, Some(Float(mul)), Some(Float(acc))) => {
            gemm_pair(gemm, mul, acc, tier, mul_obs, acc_obs)
        }
        (false, Some(Fixed(mul)), Some(Fixed(acc))) => {
            gemm_pair(gemm, mul, acc, tier, mul_obs, acc_obs)
        }
        // A stage without a fast kernel, or an unfused pairing across
        // families (float × fixed: nothing in the paper or the repo
        // trains it, so it is not worth 64 more instantiations of
        // each nest), sends the whole MAC to the oracle stages.
        (fused, ..) => {
            if fused {
                gemm_scalar(gemm, &Fused, &mac.acc, mul_obs, acc_obs);
            } else {
                gemm_scalar(gemm, &mac.mul, &mac.acc, mul_obs, acc_obs);
            }
            return "generic";
        }
    };
    ran.name()
}

/// [`gemm_tier`] over an unfused MAC whose stages are kernels of one
/// family, both rounding modes lifted into the stages' types.
fn gemm_pair<K: Kernel, T: MacObserver>(
    gemm: Gemm<'_>,
    mul: K,
    acc: K,
    tier: SimdTier,
    mul_obs: &mut T,
    acc_obs: &mut T,
) -> SimdTier {
    let nr = || unreachable!("NR has no fast kernel");
    with_mode!(
        mul.rounding(),
        M => with_mode!(
            acc.rounding(),
            A => gemm_tier(
                gemm,
                &KernelStage::<K, M>(mul),
                &KernelStage::<K, A>(acc),
                tier,
                mul_obs,
                acc_obs
            ),
            nr()
        ),
        nr()
    )
}

/// The tier switch, over any stage pair; returns the tier whose nest
/// ran. The vector tiers run the lane nest where it carries the MAC and
/// the scalar nest elsewhere; off x86_64 (unreachable through
/// `active_tier`, but expressible through the explicit-tier API) they
/// run the scalar nest.
fn gemm_tier<M: LaneStage, A: LaneStage, T: MacObserver>(
    gemm: Gemm<'_>,
    mul: &M,
    acc: &A,
    tier: SimdTier,
    mul_obs: &mut T,
    acc_obs: &mut T,
) -> SimdTier {
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 => {
            crate::simd_fused::gemm_lanes(gemm, mul, acc, tier, mul_obs, acc_obs)
        }
        _ => {
            gemm_scalar(gemm, mul, acc, mul_obs, acc_obs);
            SimdTier::Off
        }
    }
}

/// The scalar loop nest: one [`mac_round`] per non-zero product. The
/// `Off` tier, and where the vector tiers send what `f32` lanes do not
/// carry or the CPU lacks.
pub(crate) fn gemm_scalar<M: Stage, A: Stage, T: MacObserver>(
    g: Gemm<'_>,
    mul: &M,
    acc: &A,
    mul_obs: &mut T,
    acc_obs: &mut T,
) {
    for i in 0..g.n {
        let gi = i + g.row_offset;
        let arow = &g.ad[i * g.k..(i + 1) * g.k];
        let orow = &mut g.out[i * g.m..(i + 1) * g.m];
        let mut j0 = 0;
        while j0 < g.m {
            let j1 = (j0 + J_TILE).min(g.m);
            for (kk, &av) in arow.iter().enumerate() {
                if av == 0.0 && g.b_all_finite {
                    continue;
                }
                let av = av as f64;
                let brow = &g.bd[kk * g.m..kk * g.m + g.m];
                for j in j0..j1 {
                    let product = av * brow[j] as f64;
                    if product == 0.0 {
                        continue;
                    }
                    let gj = j + g.col_offset;
                    orow[j] = mac_round(orow[j], product, mul, acc, gi, gj, kk, mul_obs, acc_obs);
                }
            }
            j0 = j1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_formats::{BlockFpFormat, FixedFormat, FloatFormat, Quantizer, Rounding};

    /// Dispatches a tiny GEMM under `mac` on `tier` and returns the
    /// `kernel.tier.*` label of what ran.
    fn label_of(mac: MacConfig, tier: SimdTier) -> &'static str {
        let (ad, bd) = ([1.0f32, 0.5, -0.25, 2.0], [0.5f32, -1.0, 1.5, 0.25]);
        let mut out = [0.0f32; 4];
        let gemm = Gemm {
            out: &mut out,
            ad: &ad,
            bd: &bd,
            n: 2,
            k: 2,
            m: 2,
            row_offset: 0,
            col_offset: 0,
            b_all_finite: true,
        };
        dispatch(gemm, &mac, tier, &mut NoTally, &mut NoTally)
    }

    #[test]
    fn float_and_fixed_stages_run_the_tier_nests() {
        let (rn, rz, ro, nr) = (
            Rounding::Nearest,
            Rounding::TowardZero,
            Rounding::ToOdd,
            Rounding::NoRound,
        );
        let e5m2 = |r| Quantizer::float(FloatFormat::e5m2(), r);
        let e6m5 = |r| Quantizer::float(FloatFormat::e6m5(), r);
        let e5m10 = |r| Quantizer::float(FloatFormat::e5m10(), r);
        let fxp44 = |r| Quantizer::fixed(FixedFormat::fxp4_4(), r);
        let fxp88 = |r| Quantizer::fixed(FixedFormat::fxp8_8(), r);
        for &tier in SimdTier::available() {
            for mac in [
                MacConfig::fp8_fp12_sr(),
                MacConfig::fp8_fp16_rn(),
                MacConfig::new(
                    e5m2(nr),
                    Quantizer::float(FloatFormat::new(8, 7).unwrap(), rn),
                ),
                MacConfig::fp8_fp12(Rounding::Stochastic { random_bits: 31 }),
                MacConfig::fxp4_4(rn),
                MacConfig::fxp4_4(rz),
                MacConfig::fxp4_4(ro),
                MacConfig::fxp4_4(Rounding::stochastic()),
                MacConfig::new(fxp44(nr), fxp88(rn)),
                MacConfig::new(e5m2(nr), fxp88(Rounding::stochastic())),
                MacConfig::new(e5m2(rn), e6m5(ro)),
                MacConfig::new(e5m2(Rounding::stochastic()), e5m10(rz)),
            ] {
                assert_eq!(label_of(mac, tier), tier.name(), "{mac}");
            }
        }
    }

    /// Lane-stage MACs the `f32` lanes cannot carry run the scalar nest
    /// on every tier, and say so: more SR bits than the 32-bit draw
    /// compare holds, an accumulator as fine as `f32` (no `f32` lane
    /// plan), one whose exponent range exceeds `f32`'s, fixed point
    /// wider than 24 bits, and ablation_fma's fused-into-E8M23 row.
    #[test]
    fn macs_beyond_f32_lanes_run_the_scalar_nest() {
        let nr = Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound);
        let rn = Rounding::Nearest;
        for &tier in SimdTier::available() {
            for mac in [
                MacConfig::fp8_fp12(Rounding::Stochastic { random_bits: 32 }),
                MacConfig::fp8_fp12(Rounding::Stochastic { random_bits: 53 }),
                MacConfig::fxp4_4(Rounding::Stochastic { random_bits: 32 }),
                MacConfig::new(nr, Quantizer::float(FloatFormat::e8m23(), rn)),
                MacConfig::new(nr, Quantizer::float(FloatFormat::new(9, 10).unwrap(), rn)),
                MacConfig::new(nr, Quantizer::fixed(FixedFormat::new(16, 16).unwrap(), rn)),
            ] {
                assert_eq!(label_of(mac, tier), "off", "{mac}");
            }
        }
    }

    #[test]
    fn stages_without_a_lane_kernel_run_the_oracle_nest() {
        let rn = Rounding::Nearest;
        let bfp = Quantizer::new(BlockFpFormat::new(3, 4).unwrap(), rn);
        let e6m5 = Quantizer::float(FloatFormat::e6m5(), rn);
        let wide_fixed = Quantizer::fixed(FixedFormat::new(32, 32).unwrap(), rn);
        let f64_like = Quantizer::float(FloatFormat::new(11, 52).unwrap(), rn);
        let nr = Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound);
        for mac in [
            MacConfig::new(nr, bfp),
            MacConfig::new(bfp, e6m5),
            MacConfig::new(nr, nr),
            MacConfig::new(e6m5, nr),
            MacConfig::new(nr, wide_fixed),
            MacConfig::new(wide_fixed, e6m5),
            MacConfig::new(nr, f64_like),
            // Unfused across families.
            MacConfig::new(e6m5, Quantizer::fixed(FixedFormat::fxp8_8(), rn)),
            MacConfig::new(Quantizer::fixed(FixedFormat::fxp4_4(), rn), e6m5),
        ] {
            for &tier in SimdTier::available() {
                assert_eq!(label_of(mac, tier), "generic", "{mac}");
            }
        }
    }
}
