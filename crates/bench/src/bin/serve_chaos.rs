//! Load test: N concurrent clients against the serving front-end
//! while every fault site fires.
//!
//! Each client checks every completed response bit-for-bit against
//! the eager CPU reference — the run *asserts* zero corrupted
//! responses, that the circuit breaker demonstrably trips to the CPU
//! fallback and recovers, and that at least one request was shed by
//! admission control and one cancelled at its deadline (the chaos
//! must actually exercise the machinery it claims to). A JSON report
//! with the queue high-water mark, rejected/degraded/completed counts
//! and the p50/p99 of each class's `serve:latency:<class>` span lines —
//! the records `mpt-report` reads from the same log — goes to
//! `$MPT_BENCH_JSON` (default `target/serve_chaos.json`). This
//! is the *fault* soak: its latencies are those of a storm on a
//! handful of shapes; the `serve_closed` workload of `benchmark/` is
//! where serving latency is measured.
//!
//! ```text
//! MPT_FAULT_SEED=42 cargo run --release -p mpt-bench --bin serve_chaos
//! ```

use mpt_arith::{qgemm, QGemmConfig};
use mpt_bench::quantile_ns;
use mpt_bench::scale::{run_scale, RunScale};
use mpt_faults::{FaultPlan, FaultSite, Injector, RetryPolicy, Trigger};
use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig, DEFAULT_CACHE_BUDGET};
use mpt_serving::{
    BreakerState, GemmService, RequestClass, ServeConfig, ServeResult, BATCH_MAX, QUEUE_CAP,
};
use mpt_telemetry::json::{self, Value};
use mpt_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The chaos schedule: every site armed. The two sticky sites force
/// back-to-back retry exhaustions on launches 1 and 2, so the breaker
/// trip → cooldown → half-open-probe → recovery arc runs
/// deterministically at the head of the storm; the probability /
/// EveryNth sites keep firing throughout.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(1))
        .with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(2))
        .with(FaultSite::HbmCorruption, Trigger::EveryNth(7))
        .with(FaultSite::BitstreamLoad, Trigger::Probability(0.02))
        .with(FaultSite::QueueOverload, Trigger::EveryNth(11))
        .with(FaultSite::DeadlineExceeded, Trigger::EveryNth(6))
}

fn operands(n: usize, k: usize, m: usize, tag: u64) -> (Tensor, Tensor) {
    let gen = |rows: usize, cols: usize, t: u64| {
        Tensor::from_fn(vec![rows, cols], |i| {
            let x = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(t.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
    };
    (gen(n, k, tag * 2 + 1), gen(k, m, tag * 2 + 2))
}

fn main() {
    mpt_telemetry::init_from_env();
    mpt_telemetry::enable();
    let seed: u64 = std::env::var("MPT_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let (clients, requests_per_client) = match run_scale() {
        RunScale::Quick => (4, 25),
        RunScale::Default => (8, 50),
        RunScale::Full => (16, 200),
    };
    let serve_cfg = ServeConfig {
        retry: RetryPolicy::no_delay(3),
    };
    println!(
        "serve_chaos: {clients} clients x {requests_per_client} requests, \
         seed {seed}, queue cap {QUEUE_CAP}, batch max {BATCH_MAX}\n"
    );

    let acc = Accelerator::new(SaConfig::new(8, 8, 4).expect("valid"), 298.0);
    let service = GemmService::start(
        serve_cfg,
        PipelinedExecutor::new(acc, DEFAULT_CACHE_BUDGET),
        Some(Injector::new(chaos_plan(seed))),
    );

    let corrupted = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for client in 0..clients as u64 {
        let h = service.handle();
        let corrupted = Arc::clone(&corrupted);
        workers.push(std::thread::spawn(move || {
            // Client 0 is the "trainer": no deadlines, must always be
            // served. The rest are inference clients with deadlines.
            let class = if client == 0 {
                RequestClass::Training
            } else {
                RequestClass::Inference
            };
            let cfg = QGemmConfig::fp8_fp12_sr().with_seed(17);
            for round in 0..requests_per_client as u64 {
                // A handful of shapes so rounds mix shapes.
                let shape_tag = (client + round) % 4;
                let (a, b) = operands(
                    8 + shape_tag as usize * 4,
                    16,
                    6 + shape_tag as usize * 2,
                    shape_tag,
                );
                let want = qgemm(&a, &b, &cfg).expect("conforming");
                let deadline = match class {
                    RequestClass::Training => None,
                    RequestClass::Inference => Some(Instant::now() + Duration::from_secs(30)),
                };
                match h
                    .call(&a, &b, &cfg, class, deadline)
                    .expect("conforming operands")
                {
                    ServeResult::Done { out, .. } => {
                        if out != want {
                            corrupted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    ServeResult::DeadlineExceeded => {
                        assert!(
                            matches!(class, RequestClass::Inference),
                            "training requests carry no deadline"
                        );
                    }
                    other => panic!("unexpected terminal result: {other:?}"),
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let h = service.handle();
    let (completed, rejected, degraded, deadline_exceeded) = h.stats().snapshot();
    let coalesced = h.stats().coalesced.load(Ordering::Relaxed);
    let transitions = h.breaker_transitions();
    let trips = transitions
        .iter()
        .filter(|t| t.to == BreakerState::Open)
        .count();
    let recoveries = transitions
        .iter()
        .filter(|t| t.to == BreakerState::Closed)
        .count();
    let corrupted = corrupted.load(Ordering::Relaxed);
    let queue_high_water = h.stats().queue_high_water.load(Ordering::Relaxed);
    service.shutdown();

    // The run's hard assertions: chaos may shed or delay work, never
    // corrupt it — and it must actually exercise the machinery.
    assert_eq!(corrupted, 0, "a response diverged from the CPU reference");
    assert!(trips >= 1, "the sticky sites must trip the breaker");
    assert!(recoveries >= 1, "the breaker must recover via a probe");
    assert!(degraded >= 1, "exhausted launches must degrade, not fail");
    assert!(
        deadline_exceeded >= 1,
        "the DeadlineExceeded site must fire"
    );

    // Enqueue → response, from the dispatcher's span lines per class;
    // a full buffer would silently shorten the sample.
    assert_eq!(
        mpt_telemetry::sink::dropped_events(),
        0,
        "the event buffer overflowed"
    );
    let events: Vec<Value> = mpt_telemetry::sink::buffered_events()
        .iter()
        .filter_map(|l| json::parse(l).ok())
        .collect();
    let p50_p99_us = |class: RequestClass| {
        let name = format!("serve:latency:{}", class.name());
        let mut durs: Vec<u64> = events
            .iter()
            .filter(|e| {
                e.get("type").and_then(Value::as_str) == Some("span")
                    && e.get("name").and_then(Value::as_str) == Some(name.as_str())
            })
            .filter_map(|e| e.get("dur_ns").and_then(Value::as_u64))
            .collect();
        assert!(!durs.is_empty(), "no {name} span lines");
        durs.sort_unstable();
        (
            quantile_ns(&durs, 0.50) / 1e3,
            quantile_ns(&durs, 0.99) / 1e3,
        )
    };
    let (t_p50, t_p99) = p50_p99_us(RequestClass::Training);
    let (i_p50, i_p99) = p50_p99_us(RequestClass::Inference);
    assert!(queue_high_water >= 1, "every request passed the queue");

    println!("completed {completed}, rejected {rejected}, degraded {degraded}, ");
    println!("deadline_exceeded {deadline_exceeded}, coalesced {coalesced}, corrupted 0");
    println!("breaker: {trips} trip(s), {recoveries} recover(y/ies)");
    println!("queue high-water {queue_high_water}");
    println!("latency us: training p50 {t_p50:.1} p99 {t_p99:.1}, inference p50 {i_p50:.1} p99 {i_p99:.1}");
    println!("wall {wall_s:.3} s, {:.0} req/s", completed as f64 / wall_s);

    let path =
        std::env::var("MPT_BENCH_JSON").unwrap_or_else(|_| "target/serve_chaos.json".to_string());
    let json = format!(
        "{{\n  \"clients\": {clients},\n  \
         \"requests_per_client\": {requests_per_client},\n  \
         \"fault_seed\": {seed},\n  \
         \"serve_completed\": {completed},\n  \
         \"serve_rejected\": {rejected},\n  \
         \"serve_degraded\": {degraded},\n  \
         \"serve_deadline_exceeded\": {deadline_exceeded},\n  \
         \"serve_coalesced\": {coalesced},\n  \
         \"serve_corrupted\": {corrupted},\n  \
         \"breaker_trips\": {trips},\n  \
         \"breaker_recoveries\": {recoveries},\n  \
         \"queue_high_water\": {queue_high_water},\n  \
         \"training_p50_us\": {t_p50:.2},\n  \
         \"training_p99_us\": {t_p99:.2},\n  \
         \"inference_p50_us\": {i_p50:.2},\n  \
         \"inference_p99_us\": {i_p99:.2},\n  \
         \"wall_s\": {wall_s:.6},\n  \
         \"throughput_rps\": {rps:.2}\n}}\n",
        rps = completed as f64 / wall_s,
    );
    std::fs::write(&path, json).expect("write bench JSON");
    println!("\nwrote {path}");
    mpt_telemetry::sink::flush();
}
