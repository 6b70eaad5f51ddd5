//! Multi-threaded custom-precision GEMM over row bands.
//!
//! Emulating custom precision on CPUs is the slow path the paper
//! calls out ("training tasks on CPU can be notably slow",
//! Section III). This module splits the output into at most `threads`
//! contiguous row bands and computes them inside one
//! [`std::thread::scope`]: band 0 on the caller, the rest on threads
//! that live exactly as long as the call.
//!
//! Because every rounding event is indexed by logical coordinates
//! (see [`crate::sr_event_index`]), the result is bit-identical to
//! the sequential kernel for any thread count: each band runs the
//! kernel with its first row as `row_offset`. Operands are quantized
//! once (with global coordinates) and shared read-only by all bands,
//! and each band writes its own slice of the output in place.

use crate::kernels::gemm_into_tier;
use crate::qgemm::{qgemm, quantize_matrix, QGemmConfig};
use crate::shape::GemmShape;
use mpt_formats::simd::active_tier;
use mpt_tensor::{ShapeError, Tensor};
use std::sync::OnceLock;

/// The machine's available parallelism, resolved once per process
/// (`available_parallelism` is a syscall; GEMM call sites ask for this
/// on every invocation).
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Computes `A · B` under `cfg` over up to `threads` row bands on
/// scoped threads.
///
/// Bit-identical to [`crate::qgemm()`] — bands are computed with their
/// global row offsets so stochastic rounding draws the same bits, and
/// operands are quantized once with global coordinates. A band that
/// panics re-raises on the caller when the scope joins.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as
/// [`crate::qgemm()`].
pub fn qgemm_parallel(
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
    threads: usize,
) -> Result<Tensor, ShapeError> {
    let GemmShape { n, k, m } = GemmShape::of_product(a, b, "qgemm_parallel")?;
    let threads = threads.max(1).min(n.max(1));
    // Fast exit: anything that degenerates to sequential execution
    // (one thread, empty output, identity config) runs on the caller
    // thread through the direct kernel, with no spawn: one kernel call
    // (`tests/parallel_bands.rs` counts them).
    if threads == 1 || n == 0 || m == 0 || cfg.is_identity() {
        return qgemm(a, b, cfg);
    }

    let aq = quantize_matrix(a, &cfg.quant_a, 0, 0);
    let bq = quantize_matrix(b, &cfg.quant_b, 0, 0);
    let (ad, bd, mac, tier) = (aq.data(), bq.data(), &cfg.mac, active_tier());
    let band_rows = n.div_ceil(threads);
    // Rows `r0..` of the output, written in place.
    let band = |r0: usize, out: &mut [f32]| {
        let rows = out.len() / m;
        let a_rows = &ad[r0 * k..(r0 + rows) * k];
        gemm_into_tier(out, a_rows, bd, rows, k, m, mac, r0, 0, tier);
    };
    let mut out = vec![0.0f32; n * m];
    std::thread::scope(|s| {
        let mut bands = out.chunks_mut(band_rows * m);
        let first = bands.next().expect("n > 0");
        for (i, rest) in bands.enumerate() {
            s.spawn(move || band((i + 1) * band_rows, rest));
        }
        band(0, first);
    });
    Tensor::from_vec(vec![n, m], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacConfig;
    use mpt_formats::Rounding;

    fn operands(n: usize, k: usize, m: usize) -> (Tensor, Tensor) {
        (
            Tensor::from_fn(vec![n, k], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05),
            Tensor::from_fn(vec![k, m], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04),
        )
    }

    #[test]
    fn parallel_matches_sequential_fp32() {
        let (a, b) = operands(33, 17, 9);
        let cfg = QGemmConfig::fp32();
        let seq = qgemm(&a, &b, &cfg).unwrap();
        for threads in [1, 2, 3, 8] {
            assert_eq!(qgemm_parallel(&a, &b, &cfg, threads).unwrap(), seq);
        }
    }

    #[test]
    fn parallel_matches_sequential_stochastic() {
        // The important case: SR results must not depend on threading.
        // 19 rows split unevenly at every thread count below; `n = 1`
        // is a single band.
        let fxp4_4_sr = QGemmConfig::for_mac(MacConfig::fxp4_4(Rounding::stochastic()));
        for cfg in [QGemmConfig::fp8_fp12_sr(), fxp4_4_sr] {
            let cfg = cfg.with_seed(1234);
            for n in [1, 19] {
                let (a, b) = operands(n, 23, 11);
                let seq = qgemm(&a, &b, &cfg).unwrap();
                for threads in [2, 4, 7] {
                    assert_eq!(
                        qgemm_parallel(&a, &b, &cfg, threads).unwrap(),
                        seq,
                        "{cfg}, n={n}, threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let (a, b) = operands(3, 5, 4);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
        assert_eq!(
            qgemm_parallel(&a, &b, &cfg, 64).unwrap(),
            qgemm(&a, &b, &cfg).unwrap()
        );
    }

    #[test]
    fn empty_matrix() {
        let a = Tensor::zeros(vec![0, 5]);
        let b = Tensor::zeros(vec![5, 4]);
        let c = qgemm_parallel(&a, &b, &QGemmConfig::fp32(), 4).unwrap();
        assert_eq!(c.shape(), &[0, 4]);
    }

    #[test]
    fn empty_columns() {
        let a = Tensor::zeros(vec![3, 5]);
        let b = Tensor::zeros(vec![5, 0]);
        let c = qgemm_parallel(&a, &b, &QGemmConfig::fp8_fp12_sr(), 4).unwrap();
        assert_eq!(c.shape(), &[3, 0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros(vec![4, 5]);
        let b = Tensor::zeros(vec![6, 4]);
        assert!(qgemm_parallel(&a, &b, &QGemmConfig::fp32(), 2).is_err());
    }
}
