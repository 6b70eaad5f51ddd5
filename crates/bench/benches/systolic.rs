//! Systolic-array simulator cost, per simulated MAC.
//!
//! `functional_sim` is what every backend pays per launch: operand
//! quantization, the tiered emulation kernel and the closed-form
//! timing. `structural_oracle` is the per-PE schedule the conformance
//! suite holds it to — the price the simulator paid on every launch
//! before the two were split. The group's throughput is the logical
//! MAC count, so each row's rate reads as simulated MMAC/s of host
//! time (host ns per simulated MAC = 1000 / rate; `mean_ns / elements`
//! in the `MPT_BENCH_JSON` lines).
//!
//! It stays for one reason: it is the one timer of
//! `Accelerator::execute_structural`, the conformance oracle, which no
//! workload runs. No `BENCH_*.json` records it; run it by hand with
//! `cargo bench -p mpt-bench --bench systolic`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpt_arith::{qgemm, GemmShape, QGemmConfig};
use mpt_fpga::{Accelerator, SaConfig};
use mpt_tensor::Tensor;

fn bench_simulation(c: &mut Criterion) {
    let shape = GemmShape::new(48, 64, 32);
    let a = Tensor::from_fn(vec![48, 64], |i| ((i * 37 % 101) as f32 - 50.0) * 0.01);
    let b = Tensor::from_fn(vec![64, 32], |i| ((i * 43 % 97) as f32 - 48.0) * 0.012);
    let cfg = QGemmConfig::fp8_fp12_sr();
    let mut group = c.benchmark_group("systolic_48x64x32");
    group.throughput(Throughput::Elements(shape.macs() as u64));

    group.bench_function("emulation_kernel", |bch| {
        bch.iter(|| qgemm(&a, &b, &cfg).expect("conforming"))
    });
    for (n, m, cores) in [(4, 4, 2), (8, 8, 2), (8, 8, 10)] {
        let acc = Accelerator::new(SaConfig::new(n, m, cores).expect("valid"), 250.0);
        let geometry = format!("{n}x{m}x{cores}");
        group.bench_with_input(
            BenchmarkId::new("functional_sim", &geometry),
            &acc,
            |bch, acc| bch.iter(|| acc.execute(&a, &b, &cfg).expect("conforming")),
        );
        group.bench_with_input(
            BenchmarkId::new("structural_oracle", &geometry),
            &acc,
            |bch, acc| bch.iter(|| acc.execute_structural(&a, &b, &cfg).expect("conforming")),
        );
    }
    let acc = Accelerator::new(SaConfig::new(8, 8, 4).expect("valid"), 250.0);
    group.bench_function("timing_only_closed_form", |bch| {
        bch.iter(|| acc.timing_only(shape, 8))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_simulation
}
criterion_main!(benches);
