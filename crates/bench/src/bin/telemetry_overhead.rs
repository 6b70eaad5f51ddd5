//! Disabled-telemetry overhead microbenchmark.
//!
//! The telemetry contract is "cheap when off": with collection
//! disabled, `Quantizer::quantize_slice_f32` pays exactly one relaxed
//! atomic load over the raw monomorphized `FloatFastF32` kernel it
//! dispatches to. This diagnostic measures both on the same buffer
//! and reports the relative overhead; with `--check` it exits
//! non-zero when the overhead exceeds the 2% budget. CI runs the
//! check so an accidentally hot disabled path fails the build.
//!
//! ```text
//! cargo run --release -p mpt-bench --bin telemetry_overhead -- --check
//! ```

use mpt_formats::{FloatFastF32, FloatFormat, Quantizer, Rounding, SrRng};
use std::time::Instant;

const SLICE: usize = 4096;
const REPS_PER_SAMPLE: usize = 200;
const SAMPLES: usize = 30;
/// Most the disabled-telemetry wrapper may cost over the raw kernel.
const BUDGET_PCT: f64 = 2.0;

/// Best-of-N time for one full pass (REPS_PER_SAMPLE slice
/// quantizations). Minimum, not mean: scheduler noise only ever adds
/// time, so the minimum is the cleanest estimate of the true cost.
fn best_sample_s(mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..REPS_PER_SAMPLE {
            run();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    mpt_telemetry::disable();
    let format = FloatFormat::e4m3();
    let rounding = Rounding::Nearest;
    let quantizer = Quantizer::new(format, rounding);
    let fast =
        FloatFastF32::new(format, rounding, SrRng::new(0)).expect("e4m3-RN has a fast kernel");

    let input: Vec<f32> = (0..SLICE)
        .map(|i| ((i * 37 % 1013) as f32 - 500.0) * 0.013)
        .collect();
    let mut buf = input.clone();

    // Interleave? No — best-of-30 per side is stable enough, and the
    // two loops touch identical memory so neither gets a cache edge.
    let baseline_s = best_sample_s(|| {
        buf.copy_from_slice(&input);
        fast.quantize_slice_dyn(&mut buf, 0);
        std::hint::black_box(&buf);
    });
    let wrapped_s = best_sample_s(|| {
        buf.copy_from_slice(&input);
        quantizer.quantize_slice_f32(&mut buf, 0);
        std::hint::black_box(&buf);
    });

    let elems = (SLICE * REPS_PER_SAMPLE) as f64;
    let overhead_pct = (wrapped_s / baseline_s - 1.0) * 100.0;
    println!("disabled-telemetry overhead, {SLICE}-element E4M3-RN slice quantization:");
    println!(
        "  raw FloatFastF32 kernel:   {:8.2} Melem/s",
        elems / baseline_s / 1e6
    );
    println!(
        "  Quantizer (telemetry off): {:8.2} Melem/s",
        elems / wrapped_s / 1e6
    );
    println!("  overhead: {overhead_pct:+.2}%  (budget {BUDGET_PCT:.1}%)");

    if check && overhead_pct > BUDGET_PCT {
        eprintln!(
            "FAIL: disabled-path overhead {overhead_pct:.2}% exceeds {BUDGET_PCT:.1}% budget"
        );
        std::process::exit(1);
    }
    if check {
        println!("OK: within budget");
    }
}
