//! Quantized-GEMM emulation throughput: the cost of bit-accurate
//! custom-precision GEMM versus the plain FP32 fast path, and the
//! scaling of the multi-threaded kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpt_arith::{
    default_threads, qgemm, qgemm_parallel, qgemm_reference, qgemm_with_tier, MacConfig,
    QGemmConfig,
};
use mpt_formats::{Rounding, SimdTier};
use mpt_tensor::Tensor;

fn operands(n: usize, k: usize, m: usize) -> (Tensor, Tensor) {
    (
        Tensor::from_fn(vec![n, k], |i| ((i * 37 % 101) as f32 - 50.0) * 0.01),
        Tensor::from_fn(vec![k, m], |i| ((i * 43 % 97) as f32 - 48.0) * 0.012),
    )
}

fn bench_configs(c: &mut Criterion) {
    let (a, b) = operands(64, 64, 64);
    let mut group = c.benchmark_group("qgemm_64cubed");
    group.throughput(Throughput::Elements((64 * 64 * 64) as u64));
    let cases: Vec<(&str, QGemmConfig)> = vec![
        ("fp32_fast_path", QGemmConfig::fp32()),
        (
            "fp8_fp12_rn",
            QGemmConfig::for_mac(MacConfig::fp8_fp12(Rounding::Nearest)),
        ),
        ("fp8_fp12_sr", QGemmConfig::fp8_fp12_sr()),
        (
            "fp8_fp12_rz",
            QGemmConfig::for_mac(MacConfig::fp8_fp12(Rounding::TowardZero)),
        ),
        (
            "fp8_fp16_rn",
            QGemmConfig::for_mac(MacConfig::fp8_fp16_rn()),
        ),
        (
            "fxp44_rn",
            QGemmConfig::for_mac(MacConfig::fxp4_4(Rounding::Nearest)),
        ),
    ];
    for (name, cfg) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |bch, cfg| {
            bch.iter(|| qgemm(&a, &b, cfg).expect("conforming"))
        });
    }
    group.finish();
}

/// Asserts every kernel tier equals `qgemm_reference` bit for bit on
/// this GEMM (so a throughput row can never come from a kernel that
/// diverged) and returns the oracle's result.
fn assert_tiers_match_oracle(a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Tensor {
    let oracle = qgemm_reference(a, b, cfg, 0, 0).expect("conforming");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for &tier in SimdTier::available() {
        let out = qgemm_with_tier(a, b, cfg, 0, 0, tier).expect("conforming");
        assert_eq!(
            bits(&out),
            bits(&oracle),
            "{cfg}: tier {tier} diverges from qgemm_reference; refusing to bench it"
        );
    }
    oracle
}

/// Fast dispatched kernels versus the scalar reference loop on the
/// headline shape/config — the speedup the kernel layer buys, per
/// SIMD tier. Bit-equality of every measured path against the scalar
/// oracle is asserted *inside this bench* before timing starts (in
/// addition to `tests/kernel_equivalence.rs`), so a throughput row
/// can never come from a kernel that diverged.
///
/// Row meanings:
/// * `fp8_fp12_sr_fast` — the scalar-dispatch fast kernel
///   (`MPT_SIMD=off` tier), the pre-SIMD baseline;
/// * `fp8_fp12_sr_simd` — the AVX2 tier (the scalar one again where
///   the host lacks AVX2);
/// * `fp8_fp12_sr_avx512` — the AVX-512 tier, only on hosts that have
///   it (skipped with a printed reason elsewhere);
/// * `fp8_fp12_sr_parallel` / `fp8_fp12_sr_parallel_t1` —
///   `qgemm_parallel` on the *ambient* tier (`MPT_SIMD`, default
///   `auto`), at `default_threads()` row bands and at one thread (the
///   caller-thread fast exit, gated to within 1% of the direct kernel
///   of the same tier by `scripts/bench_qgemm.sh`);
/// * `fxp44_rn` / `fxp44_sr` (`_avx512`) — the paper's unfused
///   fixed-point MAC (`FXP4.4-{RN,SR}` multiplier, `FXP8.8-RN`
///   accumulator) on the same two tiers, with `fxp44_rn_reference` as
///   its scalar baseline.
fn bench_kernels(c: &mut Criterion) {
    let (a, b) = operands(128, 96, 96);
    let cfg = QGemmConfig::fp8_fp12_sr();
    // An explicit `Avx2` request runs the scalar nest where the CPU
    // lacks AVX2.
    let simd_tier = SimdTier::Avx2;
    let avx512 = SimdTier::available().contains(&SimdTier::Avx512);
    if !avx512 {
        println!("skipping the *_avx512 rows: this host lacks AVX-512 F + DQ + VL");
    }

    // Bit-equality preflight: every path measured below must equal
    // the scalar oracle exactly.
    let oracle = assert_tiers_match_oracle(&a, &b, &cfg);
    for threads in [1, default_threads()] {
        let out = qgemm_parallel(&a, &b, &cfg, threads).expect("conforming");
        assert_eq!(
            out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            oracle
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "qgemm_parallel (x{threads}) diverges from qgemm_reference; refusing to bench it"
        );
    }

    let mut group = c.benchmark_group("qgemm_kernels_128x96x96");
    group.throughput(Throughput::Elements((128 * 96 * 96) as u64));
    group.bench_function("fp8_fp12_sr_reference", |bch| {
        bch.iter(|| qgemm_reference(&a, &b, &cfg, 0, 0).expect("conforming"))
    });
    group.bench_function("fp8_fp12_sr_fast", |bch| {
        bch.iter(|| qgemm_with_tier(&a, &b, &cfg, 0, 0, SimdTier::Off).expect("conforming"))
    });
    group.bench_function("fp8_fp12_sr_simd", |bch| {
        bch.iter(|| qgemm_with_tier(&a, &b, &cfg, 0, 0, simd_tier).expect("conforming"))
    });
    if avx512 {
        group.bench_function("fp8_fp12_sr_avx512", |bch| {
            bch.iter(|| qgemm_with_tier(&a, &b, &cfg, 0, 0, SimdTier::Avx512).expect("conforming"))
        });
    }
    group.bench_function("fp8_fp12_sr_parallel", |bch| {
        bch.iter(|| qgemm_parallel(&a, &b, &cfg, default_threads()).expect("conforming"))
    });
    group.bench_function("fp8_fp12_sr_parallel_t1", |bch| {
        bch.iter(|| qgemm_parallel(&a, &b, &cfg, 1).expect("conforming"))
    });
    // Operands scaled to span the FXP4.4 range, saturation included.
    let (a, b) = (a.map(|v| v * 6.0), b.map(|v| v * 6.0));
    let fxp = |rounding| QGemmConfig::for_mac(MacConfig::fxp4_4(rounding)).with_seed(7);
    for (name, cfg) in [
        ("fxp44_rn", fxp(Rounding::Nearest)),
        ("fxp44_sr", fxp(Rounding::stochastic())),
    ] {
        assert_tiers_match_oracle(&a, &b, &cfg);
        group.bench_function(name, |bch| {
            bch.iter(|| qgemm_with_tier(&a, &b, &cfg, 0, 0, simd_tier).expect("conforming"))
        });
        if avx512 {
            group.bench_function(format!("{name}_avx512"), |bch| {
                bch.iter(|| {
                    qgemm_with_tier(&a, &b, &cfg, 0, 0, SimdTier::Avx512).expect("conforming")
                })
            });
        }
    }
    let cfg = fxp(Rounding::Nearest);
    group.bench_function("fxp44_rn_reference", |bch| {
        bch.iter(|| qgemm_reference(&a, &b, &cfg, 0, 0).expect("conforming"))
    });
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    let (a, b) = operands(128, 96, 96);
    let cfg = QGemmConfig::fp8_fp12_sr();
    let mut group = c.benchmark_group("qgemm_parallel_128x96x96");
    group.throughput(Throughput::Elements((128 * 96 * 96) as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |bch, &t| {
            bch.iter(|| qgemm_parallel(&a, &b, &cfg, t).expect("conforming"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_configs, bench_kernels, bench_threads
}
criterion_main!(benches);
