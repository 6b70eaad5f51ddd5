//! The custom-precision GEMM emulation kernel.
//!
//! This mirrors the paper's Figure 2 computation flow for one GEMM:
//! quantize the inputs, run every MAC in the configured formats, and
//! cast the result back to FP32.

use crate::kernels::gemm_into_tier;
use crate::mac::{input_event_index, mac_step, MacConfig};
use crate::shape::GemmShape;
use mpt_formats::simd::active_tier;
use mpt_formats::{Quantizer, SimdTier};
use mpt_tensor::{ShapeError, Tensor};
use std::fmt;

/// Full configuration of a custom-precision GEMM: input quantizers
/// for both operands plus the MAC unit configuration.
///
/// # Example
///
/// ```
/// use mpt_arith::QGemmConfig;
///
/// let cfg = QGemmConfig::fp8_fp12_sr().with_seed(42);
/// assert!(cfg.to_string().contains("E6M5-SR"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QGemmConfig {
    /// Quantizer applied to every element of `A` before compute.
    pub quant_a: Quantizer,
    /// Quantizer applied to every element of `B` before compute.
    pub quant_b: Quantizer,
    /// The MAC unit configuration.
    pub mac: MacConfig,
}

impl QGemmConfig {
    /// Creates a config from operand quantizers and a MAC.
    pub fn new(quant_a: Quantizer, quant_b: Quantizer, mac: MacConfig) -> Self {
        QGemmConfig {
            quant_a,
            quant_b,
            mac,
        }
    }

    /// Builds a config whose operand quantizers match the MAC's
    /// multiplier *format* with round-to-nearest input quantization —
    /// the convention used throughout the paper's experiments (inputs
    /// are quantized to the multiplier's operand format before the
    /// GEMM).
    pub fn for_mac(mac: MacConfig) -> Self {
        let fmt = mac.mul.format();
        let input = Quantizer::new(fmt, mpt_formats::Rounding::Nearest);
        QGemmConfig {
            quant_a: input,
            quant_b: input,
            mac,
        }
    }

    /// Full-precision FP32 GEMM (the emulation baseline).
    pub fn fp32() -> Self {
        QGemmConfig::for_mac(MacConfig::fp32())
    }

    /// The paper's headline configuration: FP8 (`E5M2`) operands,
    /// fused multiplier, FP12 `E6M5-SR` accumulator.
    pub fn fp8_fp12_sr() -> Self {
        QGemmConfig::for_mac(MacConfig::fp8_fp12_sr())
    }

    /// Reseeds every stochastic stream in the configuration with
    /// sub-seeds derived from `seed`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.quant_a = self.quant_a.with_seed(seed.wrapping_mul(4).wrapping_add(1));
        self.quant_b = self.quant_b.with_seed(seed.wrapping_mul(4).wrapping_add(2));
        self.mac = self.mac.with_seed(seed);
        self
    }

    /// `true` if the whole pipeline passes FP32 through unchanged.
    pub fn is_identity(&self) -> bool {
        self.quant_a.is_identity() && self.quant_b.is_identity() && self.mac.is_identity()
    }
}

impl fmt::Display for QGemmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A:{} B:{} MAC:{}", self.quant_a, self.quant_b, self.mac)
    }
}

/// Computes `A · B` under `cfg`: `(n, k) × (k, m) → (n, m)`.
///
/// Inputs are quantized element-wise (rounding events indexed by flat
/// position), then each output element is reduced over `k` in
/// ascending order through [`mac_step`]. The result tensor carries
/// FP32 values each exactly representable in the accumulator format.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank-2 or the inner
/// dimensions differ.
///
/// # Example
///
/// ```
/// use mpt_arith::{qgemm, QGemmConfig};
/// use mpt_tensor::Tensor;
///
/// let a = Tensor::from_fn(vec![2, 3], |i| i as f32 * 0.25);
/// let b = Tensor::from_fn(vec![3, 2], |i| 1.0 - i as f32 * 0.125);
/// // The paper's headline pipeline: FP8 operands, FP12-SR MAC.
/// let c = qgemm(&a, &b, &QGemmConfig::fp8_fp12_sr())?;
/// assert_eq!(c.shape(), &[2, 2]);
/// # Ok::<(), mpt_tensor::ShapeError>(())
/// ```
pub fn qgemm(a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
    qgemm_with_tier(a, b, cfg, 0, 0, active_tier())
}

/// [`qgemm`] with logical coordinate offsets and an explicit SIMD tier
/// instead of the ambient `MPT_SIMD` selection.
///
/// `row_offset`/`col_offset` let a caller compute one tile of a
/// partitioned GEMM while indexing stochastic-rounding events by
/// *global* output coordinates, preserving bit-equality with the
/// unpartitioned emulation.
///
/// Every tier is bit-identical (the lane kernels replay the scalar
/// operation and SR event sequence exactly), so the tier parameter
/// exists purely for in-process comparison: differential tests pin
/// `off == avx2 == avx512` without re-spawning the process per
/// `MPT_SIMD` value. A tier the CPU lacks runs the next narrower one.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`qgemm`].
pub fn qgemm_with_tier(
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
    row_offset: usize,
    col_offset: usize,
    tier: SimdTier,
) -> Result<Tensor, ShapeError> {
    // Validated and short-cut here as well as in `mac_gemm`: operand
    // quantization panics on a non-matrix, and an identity quantizer
    // would clone each operand for nothing.
    GemmShape::of_product(a, b, "qgemm")?;
    if cfg.is_identity() {
        return a.matmul(b);
    }
    let aq = quantize_matrix_tier(a, &cfg.quant_a, row_offset, 0, tier);
    let bq = quantize_matrix_tier(b, &cfg.quant_b, 0, col_offset, tier);
    mac_gemm(&aq, &bq, cfg, row_offset, col_offset, tier, "qgemm")
}

/// [`qgemm`] minus the input-quantization stage: `aq`/`bq` have
/// **already** been quantized with `cfg`'s operand quantizers at
/// global coordinates `(0, 0)` (see [`quantize_matrix`]), so only the
/// MAC pipeline runs — the ambient-tier kernel [`qgemm`] itself uses.
///
/// The identity shortcut is taken on the *whole* `cfg`, exactly as in
/// [`qgemm`]: a fully-identity pipeline is the plain FP32 GEMM, while
/// quantized operands feeding an identity MAC still step through the
/// fused MAC. (Re-running [`qgemm`] on the quantized operands with
/// identity input quantizers would get that second case wrong.)
///
/// This is the functional half of the `mpt-fpga` simulator, whose
/// operand cache holds quantized carriers.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`qgemm`].
pub fn qgemm_prequantized(
    aq: &Tensor,
    bq: &Tensor,
    cfg: &QGemmConfig,
) -> Result<Tensor, ShapeError> {
    mac_gemm(aq, bq, cfg, 0, 0, active_tier(), "qgemm_prequantized")
}

/// The MAC pipeline over already-quantized operands: what
/// [`qgemm_with_tier`] and [`qgemm_prequantized`] share once the
/// inputs are in the operand format.
fn mac_gemm(
    aq: &Tensor,
    bq: &Tensor,
    cfg: &QGemmConfig,
    row_offset: usize,
    col_offset: usize,
    tier: SimdTier,
    op: &'static str,
) -> Result<Tensor, ShapeError> {
    let GemmShape { n, k, m } = GemmShape::of_product(aq, bq, op)?;
    if cfg.is_identity() {
        // Fast path: plain FP32 GEMM in the same reduction order.
        return aq.matmul(bq);
    }
    let mut out = vec![0.0f32; n * m];
    gemm_into_tier(
        &mut out,
        aq.data(),
        bq.data(),
        n,
        k,
        m,
        &cfg.mac,
        row_offset,
        col_offset,
        tier,
    );
    Tensor::from_vec(vec![n, m], out)
}

/// The scalar reference kernel: per-element input quantization through
/// [`Quantizer::quantize_f32`] and a plain `i/j/k` loop of
/// [`mac_step`] calls — no slice fast paths, no kernel selection, no
/// cache blocking.
///
/// This is the **oracle** the optimized [`qgemm_with_tier`] path is
/// property-tested against bit-for-bit; it is not used by the training
/// stack. Kept deliberately simple so its correctness is auditable by
/// inspection against the paper's MAC pipeline.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`qgemm`].
pub fn qgemm_reference(
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
    row_offset: usize,
    col_offset: usize,
) -> Result<Tensor, ShapeError> {
    let GemmShape { n, k, m } = GemmShape::of_product(a, b, "qgemm_reference")?;
    if cfg.is_identity() {
        return a.matmul(b);
    }

    let mut ad = a.data().to_vec();
    if !cfg.quant_a.is_identity() {
        for i in 0..n {
            for kk in 0..k {
                ad[i * k + kk] = cfg
                    .quant_a
                    .quantize_f32(ad[i * k + kk], input_event_index(i + row_offset, kk));
            }
        }
    }
    let mut bd = b.data().to_vec();
    if !cfg.quant_b.is_identity() {
        for kk in 0..k {
            for j in 0..m {
                bd[kk * m + j] = cfg
                    .quant_b
                    .quantize_f32(bd[kk * m + j], input_event_index(kk, j + col_offset));
            }
        }
    }

    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        let gi = i + row_offset;
        for j in 0..m {
            let gj = j + col_offset;
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = mac_step(acc, ad[i * k + kk], bd[kk * m + j], &cfg.mac, gi, gj, kk);
            }
            out[i * m + j] = acc;
        }
    }
    Tensor::from_vec(vec![n, m], out)
}

/// Quantizes a matrix operand, indexing each element's rounding event
/// by its *global* `(row, col)` coordinate (packed by
/// [`input_event_index`]) so partitioned tiles match the monolithic
/// computation bit-for-bit.
///
/// Under stochastic rounding, rows are quantized one by one through
/// the slice fast path ([`Quantizer::quantize_slice_f32`]); a row's
/// events are the contiguous indices
/// `input_event_index(row, col_offset) + j`, which equal
/// `input_event_index(row, col_offset + j)` because columns occupy the
/// low 32 bits (bounds are debug-asserted). Every other rounding mode
/// never reads the event index and every format is element-wise
/// (block FP quantizes blocks of one here), so the whole matrix goes
/// through as a single slice: one kernel set-up and one scalar tail
/// instead of one per row.
///
/// Exposed for the systolic-array simulator in `mpt-fpga`, which must
/// quantize operands identically to the emulation kernel.
///
/// # Panics
///
/// Panics if `t` is not a matrix.
pub fn quantize_matrix(t: &Tensor, q: &Quantizer, row_offset: usize, col_offset: usize) -> Tensor {
    quantize_matrix_tier(
        t,
        q,
        row_offset,
        col_offset,
        mpt_formats::simd::active_tier(),
    )
}

/// [`quantize_matrix`] with an explicit SIMD tier (bit-identical to
/// every other tier; see [`qgemm_with_tier`]).
pub fn quantize_matrix_tier(
    t: &Tensor,
    q: &Quantizer,
    row_offset: usize,
    col_offset: usize,
    tier: SimdTier,
) -> Tensor {
    if q.is_identity() {
        return t.clone();
    }
    let (r, c) = t.as_matrix().expect("operand is a matrix");
    debug_assert!(
        col_offset as u64 + c as u64 <= 1 << 32,
        "column range [{col_offset}, {col_offset}+{c}) exceeds 32-bit event packing"
    );
    let mut out = t.clone();
    let data = out.data_mut();
    if !q.rounding().is_stochastic() {
        q.quantize_slice_f32_tier(data, 0, tier);
        return out;
    }
    for i in 0..r {
        let base = input_event_index(i + row_offset, col_offset);
        q.quantize_slice_f32_tier(&mut data[i * c..(i + 1) * c], base, tier);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_formats::{FloatFormat, Rounding};

    #[test]
    fn fp32_config_matches_reference_matmul() {
        let a = Tensor::from_fn(vec![7, 5], |i| ((i * 13) % 9) as f32 * 0.37 - 1.2);
        let b = Tensor::from_fn(vec![5, 6], |i| ((i * 7) % 11) as f32 * 0.21 - 0.9);
        let q = qgemm(&a, &b, &QGemmConfig::fp32()).unwrap();
        let r = a.matmul(&b).unwrap();
        assert_eq!(q, r, "identity config must take the exact same path");
    }

    #[test]
    fn shape_validation() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 5]);
        assert!(qgemm(&a, &b, &QGemmConfig::fp32()).is_err());
    }

    #[test]
    fn quantized_inputs_are_used() {
        // 1.1 quantizes to 1.0 in E5M2 under RN (1.1 is closer to 1.0
        // than 1.25); the product must therefore be exactly 1.0.
        let cfg = QGemmConfig::for_mac(MacConfig::new(
            Quantizer::float(FloatFormat::e5m2(), Rounding::NoRound),
            Quantizer::identity(),
        ));
        let a = Tensor::from_vec(vec![1, 1], vec![1.1]).unwrap();
        let b = Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap();
        assert_eq!(qgemm(&a, &b, &cfg).unwrap().item(), 1.0);
    }

    #[test]
    fn accumulator_format_bounds_output() {
        // With an E6M5 accumulator, outputs are E6M5-representable.
        let cfg = QGemmConfig::for_mac(MacConfig::fp8_fp12(Rounding::Nearest));
        let a = Tensor::from_fn(vec![4, 16], |i| ((i % 7) as f32 - 3.0) * 0.25);
        let b = Tensor::from_fn(vec![16, 4], |i| ((i % 5) as f32 - 2.0) * 0.25);
        let c = qgemm(&a, &b, &cfg).unwrap();
        let e6m5 = FloatFormat::e6m5();
        for &v in c.data() {
            assert!(e6m5.is_representable(v as f64), "{v} not E6M5");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(99);
        let a = Tensor::from_fn(vec![6, 9], |i| ((i * 31 % 23) as f32 - 11.0) * 0.13);
        let b = Tensor::from_fn(vec![9, 5], |i| ((i * 17 % 19) as f32 - 9.0) * 0.11);
        let c1 = qgemm(&a, &b, &cfg).unwrap();
        let c2 = qgemm(&a, &b, &cfg).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Tensor::from_fn(vec![6, 9], |i| ((i * 31 % 23) as f32 - 11.0) * 0.13);
        let b = Tensor::from_fn(vec![9, 5], |i| ((i * 17 % 19) as f32 - 9.0) * 0.11);
        let c1 = qgemm(&a, &b, &QGemmConfig::fp8_fp12_sr().with_seed(1)).unwrap();
        let c2 = qgemm(&a, &b, &QGemmConfig::fp8_fp12_sr().with_seed(2)).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn row_partition_with_offsets_matches_monolithic() {
        // Split A into two row blocks, compute each with the proper
        // row offset, and compare against the full GEMM — the property
        // the FPGA multicore partitioning depends on.
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(7);
        let a = Tensor::from_fn(vec![8, 10], |i| ((i * 29 % 31) as f32 - 15.0) * 0.07);
        let b = Tensor::from_fn(vec![10, 6], |i| ((i * 23 % 27) as f32 - 13.0) * 0.09);
        let full = qgemm(&a, &b, &cfg).unwrap();
        let tier = active_tier();
        let top = qgemm_with_tier(&a.slice_rows(0, 4).unwrap(), &b, &cfg, 0, 0, tier).unwrap();
        let bot = qgemm_with_tier(&a.slice_rows(4, 8).unwrap(), &b, &cfg, 4, 0, tier).unwrap();
        let stitched = Tensor::concat_rows(&[top, bot]).unwrap();
        assert_eq!(full, stitched);
    }

    #[test]
    fn zero_padding_k_preserves_result() {
        // Appending zero columns to A and zero rows to B (the HBM
        // packing padding) must not change any output bit, including
        // under stochastic rounding.
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let a = Tensor::from_fn(vec![5, 7], |i| ((i * 11 % 13) as f32 - 6.0) * 0.2);
        let b = Tensor::from_fn(vec![7, 4], |i| ((i * 19 % 17) as f32 - 8.0) * 0.1);
        let plain = qgemm(&a, &b, &cfg).unwrap();
        let ap = a.pad_to(5, 12).unwrap();
        let bp = b.pad_to(12, 4).unwrap();
        let padded = qgemm(&ap, &bp, &cfg).unwrap();
        assert_eq!(plain, padded, "k-padding changed bits");
    }

    #[test]
    fn zero_padding_nm_preserves_cropped_result() {
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let a = Tensor::from_fn(vec![5, 7], |i| ((i * 11 % 13) as f32 - 6.0) * 0.2);
        let b = Tensor::from_fn(vec![7, 4], |i| ((i * 19 % 17) as f32 - 8.0) * 0.1);
        let plain = qgemm(&a, &b, &cfg).unwrap();
        let ap = a.pad_to(8, 7).unwrap();
        let bp = b.pad_to(7, 6).unwrap();
        let padded = qgemm(&ap, &bp, &cfg).unwrap().crop_to(5, 4).unwrap();
        assert_eq!(plain, padded, "n/m-padding changed bits");
    }

    #[test]
    fn dispatch_counter_records_tier() {
        // The `kernel.tier.*` dispatch counter ticks once per GEMM
        // when telemetry is on. Pin it through the Off tier, which
        // ambient-tier GEMMs from concurrently running tests never
        // touch (`MPT_SIMD` is unset here, so ambient != off only on
        // hosts with a vector tier; the >= guard keeps this sound
        // either way).
        let was_enabled = mpt_telemetry::enabled();
        mpt_telemetry::enable();
        let before = mpt_telemetry::counter("kernel.tier.off").get();
        let a = Tensor::from_fn(vec![3, 4], |i| i as f32 * 0.5 - 2.0);
        let b = Tensor::from_fn(vec![4, 3], |i| 1.0 - i as f32 * 0.25);
        qgemm_with_tier(&a, &b, &QGemmConfig::fp8_fp12_sr(), 0, 0, SimdTier::Off).unwrap();
        let after = mpt_telemetry::counter("kernel.tier.off").get();
        if !was_enabled {
            mpt_telemetry::disable();
        }
        assert!(after > before, "dispatch counter did not tick");
    }

    #[test]
    fn display_shows_all_stages() {
        let s = QGemmConfig::fp8_fp12_sr().to_string();
        assert!(s.contains("A:E5M2-RN"), "{s}");
        assert!(s.contains("MAC:E5M2-NR x E6M5-SR"), "{s}");
    }
}
