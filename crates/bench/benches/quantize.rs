//! Quantizer throughput across formats and rounding modes — the cost
//! of bit-accurate emulation that motivates the FPGA path (paper
//! Section III: "Emulating custom precision operators introduces
//! significant latency overhead"). Times
//! `Quantizer::quantize_slice_f32`, the slice entry `quantize_matrix`
//! runs on every GEMM operand, on the ambient `MPT_SIMD` tier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpt_formats::{FixedFormat, FloatFormat, Quantizer, Rounding};

fn bench_quantize(c: &mut Criterion) {
    let data: Vec<f32> = (0..4096)
        .map(|i| ((i * 37 % 1001) as f32 - 500.0) * 0.013)
        .collect();
    let mut group = c.benchmark_group("quantize_4k");
    group.throughput(Throughput::Elements(data.len() as u64));

    let cases: Vec<(&str, Quantizer)> = vec![
        (
            "e5m2_rn",
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        ),
        (
            "e5m2_rz",
            Quantizer::float(FloatFormat::e5m2(), Rounding::TowardZero),
        ),
        (
            "e5m2_ro",
            Quantizer::float(FloatFormat::e5m2(), Rounding::ToOdd),
        ),
        (
            "e5m2_sr10",
            Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()),
        ),
        (
            "e6m5_sr10",
            Quantizer::float(FloatFormat::e6m5(), Rounding::stochastic()),
        ),
        (
            "e5m10_rn",
            Quantizer::float(FloatFormat::e5m10(), Rounding::Nearest),
        ),
        (
            "fxp44_rn",
            Quantizer::fixed(FixedFormat::fxp4_4(), Rounding::Nearest),
        ),
        (
            "fxp88_sr",
            Quantizer::fixed(FixedFormat::fxp8_8(), Rounding::stochastic()),
        ),
        ("identity_fp32", Quantizer::identity()),
    ];
    for (name, q) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &q, |b, q| {
            b.iter(|| {
                let mut buf = data.clone();
                q.quantize_slice_f32(&mut buf, 0);
                buf
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_quantize
}
criterion_main!(benches);
