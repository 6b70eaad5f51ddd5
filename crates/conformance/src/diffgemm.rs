//! Differential GEMM oracle: all execution paths, one verdict.
//!
//! For a grid of formats (E4M3 / E5M2 / fixed point / block FP) ×
//! rounding modes (RN / RZ / SR / RO / NR) × shapes (including
//! degenerate and non-tile-aligned ones), [`check_all_paths`] asserts
//! that every execution path produces the *same bits* as the scalar
//! oracle [`mpt_arith::qgemm_reference`]:
//!
//! * the dispatched fast kernels ([`mpt_arith::qgemm()`]),
//! * the row bands of [`mpt_arith::qgemm_parallel`] at 1/2/4/8
//!   threads,
//! * the systolic-array simulator
//!   ([`mpt_fpga::Accelerator::execute`], functional result from the
//!   tiered kernel, latency from the closed form) **and** its
//!   structural oracle
//!   ([`mpt_fpga::Accelerator::execute_structural`], every PE stepped
//!   through the padded, partitioned tile schedule) — equal bit for
//!   bit *and* cycle for cycle,
//! * the staged/cached executor
//!   ([`mpt_fpga::PipelinedExecutor::launch`]), both on a cold
//!   operand cache and on a warm one (the second launch replays from
//!   resident packed operands).

use crate::corpus::Corpus;
use crate::digest::{bits_equal, first_divergence};
use mpt_arith::{qgemm, qgemm_parallel, qgemm_reference, qgemm_with_tier, MacConfig, QGemmConfig};
use mpt_formats::{
    BlockFpFormat, FixedFormat, FloatFormat, NumberFormat, Quantizer, Rounding, SimdTier,
};
use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig, DEFAULT_CACHE_BUDGET};
use mpt_tensor::Tensor;

/// Thread counts every parallel-path check runs at.
pub const PARALLEL_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One differential case: a named configuration and a GEMM shape.
#[derive(Debug, Clone)]
pub struct DiffCase {
    /// Human-readable `family-rounding` label plus shape.
    pub name: String,
    /// The custom-precision pipeline under test.
    pub cfg: QGemmConfig,
    /// Output rows.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns.
    pub m: usize,
    /// Operand-corpus seed.
    pub seed: u64,
}

impl DiffCase {
    /// Builds the operands and runs [`check_all_paths`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first path that
    /// diverged from the scalar oracle.
    pub fn run(&self) -> Result<(), String> {
        let mut corpus = Corpus::new(self.seed);
        let a = corpus.matrix(self.n, self.k, -2.0, 2.0);
        let b = corpus.matrix(self.k, self.m, -2.0, 2.0);
        check_all_paths(&self.name, &a, &b, &self.cfg)
    }
}

/// The full format × rounding grid: every operand family of the
/// paper (FP8 `E4M3`, FP8 `E5M2`, `FXP4.4`, block FP) under each of
/// the five rounding modes (RN, RZ, SR, RO, NR), with the matching
/// wider accumulator and a fused multiplier — plus, as a fifth
/// family, the paper's *unfused* fixed-point topology: an
/// `FXP4.4-{RN,RZ,SR,RO,NR}` multiplier rounding every product into
/// an `FXP8.8-RN` accumulator (`NR` makes it fused × fixed), which is
/// what the ResNet-20 FXP runs actually train. 5 × 5 = 25 named
/// configurations.
pub fn format_rounding_grid() -> Vec<(String, QGemmConfig)> {
    let roundings = [
        Rounding::Nearest,
        Rounding::TowardZero,
        Rounding::stochastic(),
        Rounding::ToOdd,
        Rounding::NoRound,
    ];
    let families: Vec<(&str, NumberFormat, NumberFormat)> = vec![
        (
            "e4m3xe5m10",
            FloatFormat::e4m3().into(),
            FloatFormat::e5m10().into(),
        ),
        (
            "e5m2xe6m5",
            FloatFormat::e5m2().into(),
            FloatFormat::e6m5().into(),
        ),
        (
            "fxp4.4xfxp8.8",
            FixedFormat::fxp4_4().into(),
            FixedFormat::fxp8_8().into(),
        ),
        (
            "bfp3xe6m5",
            BlockFpFormat::new(3, 4).expect("valid BFP").into(),
            FloatFormat::e6m5().into(),
        ),
    ];
    let mut grid = Vec::new();
    for (fi, (fname, op_fmt, acc_fmt)) in families.into_iter().enumerate() {
        for (ri, rounding) in roundings.into_iter().enumerate() {
            let input = Quantizer::new(op_fmt, rounding);
            // Fused multiplier (NR output) feeding an accumulator in
            // the same rounding mode — the paper's MAC topology.
            let mul = Quantizer::new(op_fmt, Rounding::NoRound);
            let acc = Quantizer::new(acc_fmt, rounding);
            let cfg = QGemmConfig::new(input, input, MacConfig::new(mul, acc))
                .with_seed(0x5eed_0000 + (fi * 16 + ri) as u64);
            grid.push((format!("{fname}-{}", rounding.mnemonic()), cfg));
        }
    }
    for (ri, rounding) in roundings.into_iter().enumerate() {
        let cfg = QGemmConfig::for_mac(MacConfig::fxp4_4(rounding))
            .with_seed(0x5eed_0000 + (4 * 16 + ri) as u64);
        grid.push((format!("fxp4.4*fxp8.8rn-{}", rounding.mnemonic()), cfg));
    }
    grid
}

/// Ordinary shapes: small, square, non-tile-aligned (primes), and
/// tile-aligned.
pub fn standard_shapes() -> &'static [(usize, usize, usize)] {
    &[(5, 4, 6), (8, 8, 8), (13, 29, 7), (16, 8, 12), (3, 1, 5)]
}

/// Degenerate shapes: zero-row/column/depth outputs, `K = 1`, and the
/// 1×1×1 scalar GEMM.
pub fn degenerate_shapes() -> &'static [(usize, usize, usize)] {
    &[(0, 5, 3), (4, 0, 3), (4, 1, 3), (5, 7, 0), (1, 1, 1)]
}

/// Asserts `qgemm_reference ≡ qgemm ≡ qgemm (every SIMD tier) ≡
/// qgemm_parallel(1/2/4/8) ≡ fpga::sim::execute ≡ fpga structural
/// oracle ≡ pipelined launch (cold and warm cache)`, bit-for-bit, on
/// the given operands — and that the simulator's closed-form latency
/// equals the oracle's counted one.
///
/// # Errors
///
/// Returns a description naming the diverging path, the element index
/// and both bit patterns.
pub fn check_all_paths(
    name: &str,
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
) -> Result<(), String> {
    let reference =
        qgemm_reference(a, b, cfg, 0, 0).map_err(|e| format!("{name}: reference failed: {e}"))?;

    let compare = |label: &str, c: &Tensor| -> Result<(), String> {
        if bits_equal(&reference, c) {
            return Ok(());
        }
        if reference.shape() != c.shape() {
            return Err(format!(
                "{name}: path `{label}` shape {:?} != reference {:?}",
                c.shape(),
                reference.shape()
            ));
        }
        let (i, rb, cb) = first_divergence(&reference, c).expect("shapes equal but bits differ");
        Err(format!(
            "{name}: path `{label}` diverges from qgemm_reference at flat index {i}: \
             reference bits {rb:#010x} ({}), path bits {cb:#010x} ({})",
            f32::from_bits(rb),
            f32::from_bits(cb),
        ))
    };

    let fast = qgemm(a, b, cfg).map_err(|e| format!("{name}: qgemm failed: {e}"))?;
    compare("qgemm (fast kernels)", &fast)?;

    // Every SIMD tier explicitly, independent of the ambient
    // `MPT_SIMD` selection (a tier the host cannot execute falls back
    // to the next narrower one, which must also match).
    for tier in SimdTier::ALL {
        let tiered = qgemm_with_tier(a, b, cfg, 0, 0, tier)
            .map_err(|e| format!("{name}: qgemm tier {} failed: {e}", tier.name()))?;
        compare(&format!("qgemm (tier {})", tier.name()), &tiered)?;
    }

    for threads in PARALLEL_THREAD_COUNTS {
        let par = qgemm_parallel(a, b, cfg, threads)
            .map_err(|e| format!("{name}: qgemm_parallel x{threads} failed: {e}"))?;
        compare(&format!("qgemm_parallel x{threads}"), &par)?;
    }

    let acc = Accelerator::new(SaConfig::new(4, 4, 2).expect("valid config"), 300.0);
    let (fpga, latency) = acc
        .execute(a, b, cfg)
        .map_err(|e| format!("{name}: fpga execute failed: {e}"))?;
    compare("fpga::sim::execute", &fpga)?;

    // The structural oracle: what licenses `execute` to take its
    // result from the kernel and its latency from `timing_only`.
    let (structural, counted) = acc
        .execute_structural(a, b, cfg)
        .map_err(|e| format!("{name}: fpga structural oracle failed: {e}"))?;
    compare("fpga::sim::execute_structural", &structural)?;
    if counted != latency {
        return Err(format!(
            "{name}: closed-form latency {latency:?} != structurally counted {counted:?}"
        ));
    }

    let mut px = PipelinedExecutor::new(acc, DEFAULT_CACHE_BUDGET);
    let (cold, _) = px
        .launch(a, b, cfg)
        .map_err(|e| format!("{name}: pipelined cold launch failed: {e}"))?;
    compare("fpga pipelined (cold cache)", &cold)?;
    let (warm, _) = px
        .launch(a, b, cfg)
        .map_err(|e| format!("{name}: pipelined warm launch failed: {e}"))?;
    compare("fpga pipelined (warm cache)", &warm)?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_twenty_five_named_configs() {
        let grid = format_rounding_grid();
        assert_eq!(grid.len(), 25);
        // Every family × every mnemonic appears exactly once.
        for mn in ["RN", "RZ", "SR", "RO", "NR"] {
            assert_eq!(
                grid.iter().filter(|(n, _)| n.ends_with(mn)).count(),
                5,
                "{mn} missing from grid"
            );
        }
        // The fifth family is the only one whose multiplier rounds.
        let unfused = grid.iter().filter(|(_, c)| !c.mac.is_fused()).count();
        assert_eq!(unfused, 4, "FXP4.4-{{RN,RZ,SR,RO}} x FXP8.8-RN");
    }

    #[test]
    fn sr_configs_have_distinct_seeds() {
        let grid = format_rounding_grid();
        let sr: Vec<&QGemmConfig> = grid
            .iter()
            .filter(|(n, _)| n.ends_with("SR"))
            .map(|(_, c)| c)
            .collect();
        let mut corpus = Corpus::new(1);
        let a = corpus.matrix(6, 8, -2.0, 2.0);
        let b = corpus.matrix(8, 5, -2.0, 2.0);
        let c0 = qgemm(&a, &b, sr[0]).unwrap();
        let c1 = qgemm(&a, &b, &sr[0].with_seed(0x600d)).unwrap();
        assert_ne!(c0, c1, "reseeding must change the SR stream");
    }
}
