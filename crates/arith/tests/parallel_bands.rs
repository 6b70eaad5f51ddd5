//! How many kernel calls `qgemm_parallel` makes, counted by the
//! `kernel.tier.*` dispatch counters, which tick once per
//! `gemm_into_tier` call (once per row band). The counters are global,
//! so this binary holds this one test and nothing else enables
//! telemetry while it counts.

use mpt_arith::{qgemm, qgemm_parallel, QGemmConfig};
use mpt_tensor::Tensor;

/// Sum of the dispatch counters over every nest a GEMM can run.
fn kernel_calls() -> u64 {
    ["off", "avx2", "avx512", "generic"]
        .iter()
        .map(|t| mpt_telemetry::counter(&format!("kernel.tier.{t}")).get())
        .sum()
}

/// Kernel calls made by one `qgemm_parallel` call, and its result.
fn counted(a: &Tensor, b: &Tensor, cfg: &QGemmConfig, threads: usize) -> (u64, Tensor) {
    let before = kernel_calls();
    mpt_telemetry::enable();
    let c = qgemm_parallel(a, b, cfg, threads).unwrap();
    mpt_telemetry::disable();
    (kernel_calls() - before, c)
}

#[test]
fn one_thread_is_one_kernel_call_and_each_band_is_one_more() {
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(7);
    assert!(!cfg.is_identity());
    // `n` = 3 and 7 split into exactly `threads` bands at 2 and 3
    // threads (7 rows at 3 threads: 3 + 3 + 1).
    for n in [3, 7] {
        let a = Tensor::from_fn(vec![n, 19], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05);
        let b = Tensor::from_fn(vec![19, 11], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04);
        let direct = qgemm(&a, &b, &cfg).unwrap();
        // The caller-thread fast exit: the direct kernel, unsplit.
        let (calls, c) = counted(&a, &b, &cfg, 1);
        assert_eq!(calls, 1, "n={n}, threads=1");
        assert_eq!(c, direct);
        for threads in [2, 3] {
            let (calls, c) = counted(&a, &b, &cfg, threads);
            assert_eq!(calls, threads.min(n) as u64, "n={n}, threads={threads}");
            assert_eq!(c, direct, "n={n}, threads={threads}");
        }
    }
}
