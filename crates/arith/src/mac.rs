//! The configurable multiply-accumulate unit.
//!
//! [`MacConfig`] describes one hardware MAC: the format/rounding of
//! the multiplier output and of the accumulator. [`mac_step`] performs
//! one reduction step with bit-accurate semantics and is shared by the
//! CPU emulation GEMM ([`crate::qgemm()`]) and the systolic-array
//! simulator in `mpt-fpga`, which is what guarantees the two paths
//! agree bit-for-bit.

use crate::stage::{Fused, MacObserver, NoTally, Stage};
use mpt_formats::{FixedFormat, FloatFormat, Quantizer, Rounding};
use std::fmt;

/// Stage of a MAC operation, used to separate the stochastic-rounding
/// event streams of the multiplier and the adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacStage {
    /// Rounding of the multiplier output.
    Multiply,
    /// Rounding of the accumulator after an addition.
    Accumulate,
}

impl MacStage {
    fn tag(self) -> u64 {
        match self {
            MacStage::Multiply => 0,
            MacStage::Accumulate => 1,
        }
    }
}

/// Computes the stochastic-rounding event index for reduction step
/// `(i, j, k)` at `stage`.
///
/// The index is a pure function of the *logical* coordinates of the
/// MAC operation (output row, output column, reduction step), not of
/// any loop ordering or padding, so emulation and the systolic
/// schedule draw identical random bits. Supports `i < 2^22` and
/// `j, k < 2^20`.
#[inline]
pub fn sr_event_index(i: usize, j: usize, k: usize, stage: MacStage) -> u64 {
    debug_assert!(i < (1 << 22) && j < (1 << 20) && k < (1 << 20));
    ((i as u64) << 42) | ((j as u64) << 22) | ((k as u64) << 2) | stage.tag()
}

/// Computes the rounding-event index for quantizing *input* element
/// `(row, col)` of a GEMM operand.
///
/// Input quantizers draw from their own seeded streams (distinct from
/// the MAC streams indexed by [`sr_event_index`]), so this packing
/// only has to be collision-free within one operand: row in the high
/// 32 bits, column in the low 32. Every input-quantization site —
/// [`crate::quantize_matrix`], the reference kernel, and the
/// slice-quantization fast path (which indexes `base + j`
/// contiguously along a row) — uses this one helper, so partitioned
/// tiles, padded operands and the FPGA simulator all draw identical
/// bits. Supports `row, col < 2^32`.
#[inline]
pub fn input_event_index(row: usize, col: usize) -> u64 {
    debug_assert!(
        (row as u64) < (1 << 32) && (col as u64) < (1 << 32),
        "input coordinates ({row}, {col}) exceed 32-bit packing"
    );
    ((row as u64) << 32) | col as u64
}

/// Configuration of one MAC unit: multiplier-output quantizer and
/// accumulator quantizer.
///
/// A multiplier with [`Rounding::NoRound`] models a **fused** MAC: the
/// exact product feeds the adder (the paper's `E5M2-NR` multiplier
/// rows in Table II). Any other multiplier rounding models a discrete
/// multiply-then-round unit.
///
/// # Example
///
/// ```
/// use mpt_arith::MacConfig;
///
/// let mac = MacConfig::fp8_fp12_sr();
/// assert_eq!(mac.to_string(), "E5M2-NR x E6M5-SR");
/// assert!(mac.is_fused());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacConfig {
    /// Quantizer applied to each product (`NR` = fused).
    pub mul: Quantizer,
    /// Quantizer applied to the accumulator after each addition.
    pub acc: Quantizer,
}

impl MacConfig {
    /// Creates a MAC from multiplier and accumulator quantizers.
    pub fn new(mul: Quantizer, acc: Quantizer) -> Self {
        MacConfig { mul, acc }
    }

    /// Full-precision baseline: `E8M23-RN × E8M23-RN` (paper Table II
    /// baseline row).
    pub fn fp32() -> Self {
        MacConfig::new(
            Quantizer::float(FloatFormat::e8m23(), Rounding::Nearest),
            Quantizer::float(FloatFormat::e8m23(), Rounding::Nearest),
        )
    }

    /// The paper's headline configuration: fused FP8 multiplier
    /// (`E5M2-NR`) with FP12 stochastic-rounding accumulator
    /// (`E6M5-SR`, 10 random bits). This is the format the FPGA
    /// accelerator of Section V-C implements.
    pub fn fp8_fp12_sr() -> Self {
        MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound),
            Quantizer::float(FloatFormat::e6m5(), Rounding::stochastic()),
        )
    }

    /// Fused FP8 multiplier with an FP12 accumulator under `rounding`
    /// (the `E6M5-{RZ,RO,RN,SR}` rows of Table II).
    pub fn fp8_fp12(rounding: Rounding) -> Self {
        MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound),
            Quantizer::float(FloatFormat::e6m5(), rounding),
        )
    }

    /// Fused FP8 multiplier with FP16 `E5M10-RN` accumulator
    /// (Table II's highest-accuracy custom row).
    pub fn fp8_fp16_rn() -> Self {
        MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound),
            Quantizer::float(FloatFormat::e5m10(), Rounding::Nearest),
        )
    }

    /// Fixed-point MAC: `FXP4.4` multiplier under `rounding` with an
    /// `FXP8.8` round-to-nearest accumulator (Table II's FXP rows).
    pub fn fxp4_4(rounding: Rounding) -> Self {
        MacConfig::new(
            Quantizer::fixed(FixedFormat::fxp4_4(), rounding),
            Quantizer::fixed(FixedFormat::fxp8_8(), Rounding::Nearest),
        )
    }

    /// `true` when the multiplier output feeds the adder unrounded
    /// (an FMA-style fused MAC).
    pub fn is_fused(&self) -> bool {
        matches!(self.mul.rounding(), Rounding::NoRound)
    }

    /// `true` when every stage passes FP32 through unchanged, allowing
    /// kernels to take the fast uncquantized path.
    pub fn is_identity(&self) -> bool {
        self.mul.is_identity() && self.acc.is_identity()
    }

    /// Reseeds the stochastic streams of both stages, deriving
    /// distinct sub-seeds so multiplier and accumulator never share
    /// random bits.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.mul = self.mul.with_seed(seed.wrapping_mul(2).wrapping_add(1));
        self.acc = self.acc.with_seed(seed.wrapping_mul(2).wrapping_add(2));
        self
    }

    /// The wider of the two stage formats, in bits — what the HBM
    /// packing model uses for accumulator traffic.
    pub fn acc_bit_width(&self) -> u32 {
        self.acc.format().bit_width()
    }
}

impl fmt::Display for MacConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x {}", self.mul, self.acc)
    }
}

/// Performs one MAC reduction step with bit-accurate semantics:
/// `round_acc(acc + round_mul(a · b))` at logical coordinates
/// `(i, j, k)`.
///
/// `a` and `b` are assumed already quantized to their operand formats;
/// their product is exact in `f64`. The result is the new accumulator
/// value as an `f32` carrier holding a value representable in the
/// accumulator format.
#[inline]
pub fn mac_step(acc: f32, a: f32, b: f32, mac: &MacConfig, i: usize, j: usize, k: usize) -> f32 {
    mac_step_with(acc, a, b, mac, i, j, k, &mut NoTally, &mut NoTally)
}

/// [`mac_step`] under observation: the same arithmetic (it *is* the
/// same code — [`mac_step`] passes the zero-sized [`NoTally`]), with
/// the multiplier rounding shown to `mul_obs` and the accumulator
/// rounding to `acc_obs`. A fused multiplier never rounds, so it is
/// never shown; zero products bypass both stages.
#[inline]
#[allow(clippy::too_many_arguments)] // mac_step's signature + two observers
pub fn mac_step_with<T: MacObserver>(
    acc: f32,
    a: f32,
    b: f32,
    mac: &MacConfig,
    i: usize,
    j: usize,
    k: usize,
    mul_obs: &mut T,
    acc_obs: &mut T,
) -> f32 {
    let product = a as f64 * b as f64; // exact for low-precision operands
    if product == 0.0 {
        // Adding an exact zero cannot change the accumulator, which is
        // already representable in the accumulator format (inductively:
        // it starts at 0 and every step returns a quantized value), so
        // every rounding mode — including SR — returns it unchanged.
        // This keeps zero-padded tiles and ReLU-sparse operands cheap.
        return acc;
    }
    if mac.is_fused() {
        mac_round(acc, product, &Fused, &mac.acc, i, j, k, mul_obs, acc_obs)
    } else {
        mac_round(acc, product, &mac.mul, &mac.acc, i, j, k, mul_obs, acc_obs)
    }
}

/// The one MAC body: rounds the non-zero exact `product` through the
/// multiplier stage, adds it to `acc`, rounds the sum through the
/// accumulator stage. [`mac_step_with`] instantiates it with the
/// scalar-oracle stages; the scalar GEMM nest and the lane nests'
/// tails with their monomorphized ones.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_round<M: Stage, A: Stage, T: MacObserver>(
    acc: f32,
    product: f64,
    mul_stage: &M,
    acc_stage: &A,
    i: usize,
    j: usize,
    k: usize,
    mul_obs: &mut T,
    acc_obs: &mut T,
) -> f32 {
    let product = if M::IDENTITY {
        product
    } else {
        let rounded = mul_stage.quantize(product, sr_event_index(i, j, k, MacStage::Multiply));
        mul_obs.record(product, rounded);
        rounded
    };
    let sum = acc as f64 + product;
    let rounded = acc_stage.quantize(sum, sr_event_index(i, j, k, MacStage::Accumulate));
    acc_obs.record(sum, rounded);
    // When two NaNs meet in `acc + product`, which one the sum keeps
    // follows the operand order the compiler emits, so every caller's
    // NaN is made the one canonical NaN.
    if rounded.is_nan() {
        f32::NAN
    } else {
        rounded as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_indices_are_unique() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..8 {
            for j in 0..8 {
                for k in 0..8 {
                    for stage in [MacStage::Multiply, MacStage::Accumulate] {
                        assert!(seen.insert(sr_event_index(i, j, k, stage)));
                    }
                }
            }
        }
    }

    #[test]
    fn fp32_mac_matches_native() {
        let mac = MacConfig::fp32();
        let mut acc = 0.0f32;
        let mut native = 0.0f32;
        for k in 0..32 {
            let a = (k as f32 * 0.37).sin();
            let b = (k as f32 * 0.91).cos();
            acc = mac_step(acc, a, b, &mac, 0, 0, k);
            native += a * b;
        }
        assert!((acc - native).abs() < 1e-5);
    }

    #[test]
    fn fused_mac_skips_product_rounding() {
        // With a fused FP8 multiplier and a wide accumulator, the
        // product 1.25 * 1.25 = 1.5625 (not E5M2-representable) must
        // survive into the accumulator.
        let mac = MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound),
            Quantizer::float(FloatFormat::e8m23(), Rounding::Nearest),
        );
        let acc = mac_step(0.0, 1.25, 1.25, &mac, 0, 0, 0);
        assert_eq!(acc, 1.5625);
    }

    #[test]
    fn unfused_mac_rounds_product() {
        let mac = MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
            Quantizer::float(FloatFormat::e8m23(), Rounding::Nearest),
        );
        // 1.5625 rounds to 1.5 in E5M2 (RN, candidates 1.5 and 1.75).
        let acc = mac_step(0.0, 1.25, 1.25, &mac, 0, 0, 0);
        assert_eq!(acc, 1.5);
    }

    #[test]
    fn accumulator_stagnation_with_rn() {
        // The classic low-precision pathology the paper's SR rows
        // address: adding a value below half a ULP of a large
        // accumulator is lost entirely under RN.
        let mac = MacConfig::fp8_fp12(Rounding::Nearest);
        let acc = 64.0f32; // E6M5 ULP at 64 is 2.0
        let got = mac_step(acc, 0.5, 0.5, &mac, 0, 0, 0); // +0.25 < ULP/2
        assert_eq!(got, 64.0, "RN swallowed the small addend");
    }

    #[test]
    fn stochastic_escapes_stagnation_in_expectation() {
        let mac = MacConfig::fp8_fp12_sr();
        let acc = 64.0f32;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|k| mac_step(acc, 0.5, 0.5, &mac, 0, 0, k) as f64)
            .sum::<f64>()
            / n as f64;
        // E[result] = 64.25: SR rounds up to 66 with prob 0.125.
        assert!((mean - 64.25).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn seeding_changes_stochastic_results() {
        let a = MacConfig::fp8_fp12_sr().with_seed(1);
        let b = MacConfig::fp8_fp12_sr().with_seed(2);
        let ra: Vec<f32> = (0..64)
            .map(|k| mac_step(10.0, 0.3, 0.7, &a, 0, 0, k))
            .collect();
        let rb: Vec<f32> = (0..64)
            .map(|k| mac_step(10.0, 0.3, 0.7, &b, 0, 0, k))
            .collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn fixed_point_mac_saturates() {
        let mac = MacConfig::fxp4_4(Rounding::Nearest);
        // FXP8.8 accumulator max is ~127.996; repeated large products
        // saturate rather than wrap.
        let mut acc = 0.0f32;
        for k in 0..100 {
            acc = mac_step(acc, 7.9, 7.9, &mac, 0, 0, k);
        }
        assert!(acc <= FixedFormat::fxp8_8().max_value() as f32 + 1e-6);
        assert!(acc > 120.0);
    }

    #[test]
    fn display_and_predicates() {
        assert_eq!(MacConfig::fp32().to_string(), "E8M23-RN x E8M23-RN");
        assert!(MacConfig::fp32().is_identity());
        assert!(!MacConfig::fp8_fp12_sr().is_identity());
        assert!(MacConfig::fp8_fp12_sr().is_fused());
        assert!(!MacConfig::fxp4_4(Rounding::Nearest).is_fused());
    }

    #[test]
    fn tallied_step_is_bit_identical_to_mac_step() {
        // Every configuration family, specials included: observing
        // the step must never change it.
        let configs = [
            MacConfig::fp8_fp12_sr().with_seed(5),
            MacConfig::fp8_fp12(Rounding::Nearest),
            MacConfig::fxp4_4(Rounding::TowardZero),
            MacConfig::new(
                Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
                Quantizer::float(FloatFormat::e6m5(), Rounding::ToOdd),
            ),
        ];
        let specials = [0.0f32, -0.0, 1.0, -7.3, 1.0e30, f32::INFINITY, f32::NAN];
        for mac in &configs {
            let mut mul_t = mac.mul.telemetry_tally();
            let mut acc_t = mac.acc.telemetry_tally();
            for (k, &a) in specials.iter().enumerate() {
                for (j, &b) in specials.iter().enumerate() {
                    let acc = (j as f32 - 3.0) * 1.7;
                    let plain = mac_step(acc, a, b, mac, 1, j, k);
                    let tallied = mac_step_with(acc, a, b, mac, 1, j, k, &mut mul_t, &mut acc_t);
                    assert_eq!(
                        plain.to_bits(),
                        tallied.to_bits(),
                        "{mac} diverged on a={a} b={b} acc={acc}"
                    );
                }
            }
        }
    }

    #[test]
    fn tallied_step_counts_stages() {
        let mac = MacConfig::fxp4_4(Rounding::Nearest); // unfused: both stages round
        let mut mul_t = mac.mul.telemetry_tally();
        let mut acc_t = mac.acc.telemetry_tally();
        mac_step_with(0.0, 1.3, 1.7, &mac, 0, 0, 0, &mut mul_t, &mut acc_t);
        assert!(!mul_t.is_empty(), "unfused multiplier stage must tally");
        assert!(!acc_t.is_empty());

        let fused = MacConfig::fp8_fp12_sr();
        let mut mul_f = fused.mul.telemetry_tally();
        let mut acc_f = fused.acc.telemetry_tally();
        mac_step_with(0.0, 1.25, 1.25, &fused, 0, 0, 0, &mut mul_f, &mut acc_f);
        assert!(mul_f.is_empty(), "fused multiplier never rounds");
        assert!(!acc_f.is_empty());

        // Zero products bypass both quantizers.
        let mut mul_z = fused.mul.telemetry_tally();
        let mut acc_z = fused.acc.telemetry_tally();
        mac_step_with(3.0, 0.0, 5.0, &fused, 0, 0, 0, &mut mul_z, &mut acc_z);
        assert!(mul_z.is_empty() && acc_z.is_empty());
    }

    #[test]
    fn acc_bit_width_reports_accumulator() {
        assert_eq!(MacConfig::fp8_fp12_sr().acc_bit_width(), 12);
        assert_eq!(MacConfig::fxp4_4(Rounding::Nearest).acc_bit_width(), 16);
    }
}
