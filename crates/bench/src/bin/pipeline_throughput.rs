//! Eager vs pipelined FPGA execution on a replayed LeNet5 training
//! step: wall-clock, operand-cache effect, and modeled (overlap-aware)
//! hardware latency.
//!
//! The same per-iteration GEMM sequence (all forward and backward
//! products of one LeNet5 step) is replayed twice, and the report says
//! which traffic each figure stands for:
//!
//! * **frozen** — identical operands every iteration: the steady
//!   state of evaluation / inference serving, where weights (and
//!   here activations too) stay resident and warm iterations hit the
//!   operand cache on every lookup;
//! * **fresh** — operands regenerated every iteration, cache hit
//!   ratio 0: the training case (every activation, gradient and
//!   transpose of a step is new), which is what the `lenet_fpga`
//!   workload of `BENCHMARK.json` measures.
//!
//! Each replay goes through two executors, interleaved iteration by
//! iteration so both see the same host:
//!
//! * **eager** — [`FpgaBackend`], every launch re-quantizes both
//!   operands;
//! * **pipelined** — [`FpgaBackend::pipelined`], launches are staged
//!   and operands served from the packed-operand cache.
//!
//! Both produce bit-identical results (asserted). A JSON report
//! goes to `$MPT_BENCH_JSON` (default `BENCH_pipeline.json`); its
//! count fields (`cold_packs` … `cache_hits`) describe the frozen
//! replay.
//!
//! ```text
//! cargo run --release -p mpt-bench --bin pipeline_throughput
//! ```

use mpt_arith::{GemmBackend, GemmShape, QGemmConfig};
use mpt_bench::scale::{run_scale, RunScale};
use mpt_core::matching::iteration_latency;
use mpt_fpga::{Accelerator, CacheStats, FpgaBackend, SaConfig};
use mpt_models::ModelDesc;
use mpt_tensor::Tensor;
use std::time::Instant;

fn operands(shape: GemmShape, seed: u64) -> (Tensor, Tensor) {
    let gen = |rows: usize, cols: usize, tag: u64| {
        Tensor::from_fn(vec![rows, cols], |i| {
            let x = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
    };
    (
        gen(shape.n, shape.k, seed * 2 + 1),
        gen(shape.k, shape.m, seed * 2 + 2),
    )
}

/// What one replay measured.
struct Replay {
    eager_wall: f64,
    pipelined_wall: f64,
    /// Pipelined backend's cache counters after the first iteration
    /// and after the last.
    cold: CacheStats,
    total: CacheStats,
    /// The pipelined backend's modeled clock, per iteration.
    accounted_eager: f64,
    accounted_pipelined: f64,
}

/// Replays `workload` for `iters` iterations through the two
/// executors. `fresh` regenerates every operand each iteration
/// (outside the timed regions); otherwise iteration 0's are reused.
fn replay(
    workload: &[GemmShape],
    cfg: &QGemmConfig,
    acc: &Accelerator,
    iters: usize,
    fresh: bool,
) -> Replay {
    let eager = FpgaBackend::new(acc.clone());
    let pipelined = FpgaBackend::new(acc.clone()).pipelined();
    let (mut eager_wall, mut pipelined_wall) = (0.0, 0.0);
    let mut cold = None;
    let mut ops: Vec<(Tensor, Tensor)> = Vec::new();
    for it in 0..iters {
        if fresh || it == 0 {
            let base = (it * workload.len()) as u64;
            ops = workload
                .iter()
                .enumerate()
                .map(|(i, &s)| operands(s, base + i as u64))
                .collect();
        }

        let t0 = Instant::now();
        let golden: Vec<Tensor> = ops
            .iter()
            .map(|(a, b)| eager.gemm(a, b, cfg).expect("conforming"))
            .collect();
        eager_wall += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let staged: Vec<Tensor> = ops
            .iter()
            .map(|(a, b)| pipelined.gemm(a, b, cfg).expect("conforming"))
            .collect();
        pipelined.step_boundary();
        pipelined_wall += t0.elapsed().as_secs_f64();
        assert_eq!(staged, golden, "pipelined diverged from eager");
        if it == 0 {
            cold = pipelined.cache_stats();
        }
    }
    Replay {
        eager_wall,
        pipelined_wall,
        cold: cold.expect("pipelined mode, at least one iteration"),
        total: pipelined.cache_stats().expect("pipelined mode"),
        accounted_eager: pipelined.elapsed_s() / iters as f64,
        accounted_pipelined: pipelined.pipelined_elapsed_s() / iters as f64,
    }
}

fn print_wall(label: &str, traffic: &str, r: &Replay) {
    println!(
        "{label} replay — {traffic} ({} hits / {} misses):",
        r.total.hits, r.total.misses
    );
    println!("  eager     {:>8.3} s", r.eager_wall);
    println!(
        "  pipelined {:>8.3} s   ({:.2}x)",
        r.pipelined_wall,
        r.eager_wall / r.pipelined_wall
    );
}

fn main() {
    let telemetry = mpt_telemetry::init_from_env();
    let (batch, iters) = match run_scale() {
        RunScale::Quick => (1, 12),
        RunScale::Default => (2, 12),
        RunScale::Full => (8, 24),
    };
    let model = ModelDesc::lenet5(batch);
    let workload = model.training_gemms();
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(17);
    let sa = SaConfig::new(8, 8, 4).expect("valid");
    let freq = 298.0;
    let acc = Accelerator::new(sa, freq);
    println!(
        "LeNet5 step replay: batch {batch}, {} GEMMs/iter x {iters} iters on {sa}@{freq}MHz\n",
        workload.len()
    );

    let frozen = replay(&workload, &cfg, &acc, iters, false);
    let fresh = replay(&workload, &cfg, &acc, iters, true);
    let images_built = frozen.total.images_built + fresh.total.images_built;
    assert_eq!(images_built, 0, "fault-free launches build no HBM image");

    // Frozen-replay cache effect. Eager packs every operand every
    // iteration; the cache packs only on cold misses. Ratios are per
    // whole run.
    let (cold, total) = (frozen.cold, frozen.total);
    let warm_packs = total.packs - cold.packs;
    let warm_bytes = total.bytes_packed - cold.bytes_packed;
    let eager_packs = cold.packs * iters as u64;
    let eager_bytes = cold.bytes_packed * iters as u64;
    let pack_reduction = eager_packs as f64 / total.packs.max(1) as f64;
    let bytes_reduction = eager_bytes as f64 / total.bytes_packed.max(1) as f64;

    // Modeled hardware latency for one iteration: eager stage sums vs
    // the overlap-aware pipeline recurrence.
    let modeled = iteration_latency(&workload, sa, freq, 8);
    let (modeled_eager, modeled_pipelined) = (modeled.estimated_s, modeled.pipelined_s);

    println!("host wall-clock ({iters} iters):");
    print_wall("frozen", "serving / evaluation", &frozen);
    print_wall("fresh ", "training", &fresh);
    println!("\noperand cache over the frozen replay (modeled pack-stage work):");
    println!(
        "  cold iter: {} packs, {} bytes; warm iters: {} packs, {} bytes",
        cold.packs, cold.bytes_packed, warm_packs, warm_bytes
    );
    println!(
        "  vs eager ({eager_packs} packs, {eager_bytes} bytes): \
         {pack_reduction:.1}x fewer packs, {bytes_reduction:.1}x fewer bytes"
    );
    println!("  HBM images built (either replay): {images_built}");
    println!("\nmodeled hardware latency per iteration:");
    println!("  eager     {:>12.6} s  (perf model)", modeled_eager);
    println!(
        "  pipelined {:>12.6} s  (overlap-aware, {:.2}x)",
        modeled_pipelined,
        modeled_eager / modeled_pipelined
    );
    println!(
        "  accounted {:>12.6} s eager / {:>.6} s overlapped (cycle-level clock, frozen)",
        frozen.accounted_eager, frozen.accounted_pipelined
    );
    println!(
        "  accounted {:>12.6} s eager / {:>.6} s overlapped (cycle-level clock, fresh)",
        fresh.accounted_eager, fresh.accounted_pipelined
    );

    let path =
        std::env::var("MPT_BENCH_JSON").unwrap_or_else(|_| "BENCH_pipeline.json".to_string());
    let walls = |tag: &str, r: &Replay| {
        format!(
            "  \"{tag}_eager_wall_s\": {:.6},\n  \"{tag}_pipelined_wall_s\": {:.6},\n",
            r.eager_wall, r.pipelined_wall,
        )
    };
    let json = format!(
        "{{\n  \"workload\": \"lenet5\",\n  \"batch\": {batch},\n  \
         \"gemms_per_iter\": {gemms},\n  \"iters\": {iters},\n  \
         \"config\": \"{sa}@{freq}MHz\",\n{frozen_walls}{fresh_walls}  \
         \"fresh_cache_hits\": {fresh_hits},\n  \"fresh_cache_misses\": {fresh_misses},\n  \
         \"images_built\": {images_built},\n  \
         \"cold_packs\": {cold_packs},\n  \"cold_bytes\": {cold_bytes},\n  \
         \"warm_packs\": {warm_packs},\n  \"warm_bytes\": {warm_bytes},\n  \
         \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \
         \"pack_reduction\": {pack_reduction:.2},\n  \
         \"bytes_reduction\": {bytes_reduction:.2},\n  \
         \"modeled_eager_s\": {modeled_eager:.9},\n  \
         \"modeled_pipelined_s\": {modeled_pipelined:.9},\n  \
         \"accounted_eager_s\": {accounted_eager:.9},\n  \
         \"accounted_pipelined_s\": {accounted_pipelined:.9}\n}}\n",
        gemms = workload.len(),
        frozen_walls = walls("frozen", &frozen),
        fresh_walls = walls("fresh", &fresh),
        fresh_hits = fresh.total.hits,
        fresh_misses = fresh.total.misses,
        cold_packs = cold.packs,
        cold_bytes = cold.bytes_packed,
        hits = total.hits,
        misses = total.misses,
        accounted_eager = frozen.accounted_eager,
        accounted_pipelined = frozen.accounted_pipelined,
    );
    std::fs::write(&path, json).expect("write bench JSON");
    println!("\nwrote {path}");
    if telemetry {
        println!("\n{}", mpt_telemetry::Snapshot::capture().render_table());
        mpt_telemetry::sink::flush();
    }
}
