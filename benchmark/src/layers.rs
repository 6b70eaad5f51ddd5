//! Per-layer measurements taken from outside: replays of recorded
//! GEMMs through each crate's public functions, and small fixed
//! micro-measurements that do not depend on the workload.
//!
//! A replay re-runs, in isolation, one piece of what a backend does
//! inside `gemm` (operand quantization, the MAC kernel, HBM packing,
//! the simulator's compute). The pieces are measured independently of
//! the live GEMM spans, so `budget.unaccounted_pct` — live span time
//! minus the sum of the replayed pieces — is a real check, not an
//! identity.

use crate::report::Report;
use crate::stats;
use crate::train::{accelerator, CapturedGemm};
use mpt_arith::{qgemm, qgemm_parallel, quantize_matrix_tier, GemmBackend, GemmShape, QGemmConfig};
use mpt_core::select_accelerator;
use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
use mpt_formats::{FixedFormat, FloatFormat, NumberFormat, Quantizer, Rounding};
use mpt_fpga::{
    estimate_gemm, FpgaBackend, HbmImage, OperandCache, SynthesisDb, DEFAULT_CACHE_BUDGET,
};
use mpt_models::ModelDesc;
use mpt_tensor::Tensor;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Repetitions of each replay; the median total is reported.
const REPLAY_REPS: usize = 9;

/// Milliseconds `f` takes.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Median milliseconds of `reps` runs of `f`.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ms(&mut f).1).collect();
    stats::median(&samples)
}

/// Replayed cost of a set of GEMMs, each figure a total over the set
/// in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// The same GEMMs through the workload's own backend: what the
    /// pieces below have to add up to.
    pub backend_ms: f64,
    /// `quantize_matrix_tier` on every non-identity operand.
    pub quantize_ms: f64,
    /// `qgemm` on the pre-quantized operands with identity input
    /// quantizers: the MAC kernel alone (CPU workloads).
    pub kernel_ms: f64,
    /// `Accelerator::execute_quantized` (FPGA workloads).
    pub sim_compute_ms: f64,
    /// `HbmImage::pack` of every packable operand (FPGA workloads).
    pub pack_ms: f64,
    /// `HbmImage::unpack` of the same images. The executor models
    /// this stage's time but does not execute it, so it is off the
    /// timed path today and outside the budget sum.
    pub unpack_ms: f64,
    /// `OperandCache::get_or_pack` over every operand minus the
    /// quantize and pack it contains: fingerprinting, hit confirmation,
    /// residency copies, eviction.
    pub cache_lookup_ms: f64,
    /// Backend time the pieces on its path do not explain: the median
    /// over repetitions of `backend − (quantize + kernel)` on the CPU,
    /// `backend − (cache pass + simulated compute)` on the simulator.
    pub unexplained_ms: f64,
    /// Multiply-accumulates in the set.
    pub macs: u64,
    /// Mean simulated latency per GEMM from `timing_only`.
    pub timing_only_us_per_gemm: f64,
    /// Mean relative error of `estimate_gemm` against the simulator's
    /// `timing_only`, percent. The performance model is validated
    /// against the simulator only; there is no hardware measurement
    /// in this repository.
    pub model_error_pct: f64,
}

/// Mirrors `mpt_fpga::cache`'s rule for which operands get an HBM
/// image: dense float and fixed formats narrower than f32, rounded
/// onto the format's lattice.
fn packable(q: &Quantizer) -> bool {
    let format = q.format();
    !matches!(q.rounding(), Rounding::NoRound)
        && matches!(format, NumberFormat::Float(_) | NumberFormat::Fixed(_))
        && !format.is_f32_superset()
}

/// Replays `gemms` through the public pieces of the layers below
/// `GemmBackend::gemm`, and through a fresh instance of the workload's
/// own backend (`make_backend`). `fpga` selects which compute piece
/// runs. `prewarm` GEMMs are launched first, untimed, so operands they
/// share with `gemms` are cache-resident as they are in the live run
/// (serving's resident weights). Every repetition times all pieces
/// back to back, so a slow spell of the host scales the whole path and
/// its pieces alike.
pub fn replay_gemms(
    gemms: &[CapturedGemm],
    prewarm: &[CapturedGemm],
    make_backend: &dyn Fn() -> Rc<dyn GemmBackend>,
    fpga: bool,
) -> Replay {
    let tier = mpt_formats::simd::active_tier();
    let acc = accelerator();
    let warm_cache = || {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        for g in prewarm {
            cache.get_or_pack(&g.a, &g.cfg.quant_a).expect("matrix");
            cache.get_or_pack(&g.b, &g.cfg.quant_b).expect("matrix");
        }
        cache
    };

    // One entry per operand: the CPU backend quantizes every operand
    // of every call; the pipelined backend only those its cache misses.
    let mut probe = warm_cache();
    let operands: Vec<(&Tensor, Quantizer, bool)> = gemms
        .iter()
        .flat_map(|g| [(&g.a, g.cfg.quant_a), (&g.b, g.cfg.quant_b)])
        .map(|(t, q)| {
            let missed = !fpga || !probe.get_or_pack(t, &q).expect("matrix").hit;
            (t, q, missed)
        })
        .collect();
    let quantized: Vec<Tensor> = operands
        .iter()
        .map(|(t, q, _)| quantize_matrix_tier(t, q, 0, 0, tier))
        .collect();
    // The FPGA-side pieces (pack, unpack, cache) are timed only for
    // workloads whose backend runs them; elsewhere they read 0.
    let packed = |(_, q, missed): &(&Tensor, Quantizer, bool)| fpga && *missed && packable(q);
    let images: Vec<HbmImage> = operands
        .iter()
        .zip(&quantized)
        .filter(|(o, _)| packed(o))
        .map(|((_, q, _), t)| HbmImage::pack(t, q.format()).expect("operands are matrices"))
        .collect();

    // Every repetition walks the GEMMs once and times all six pieces
    // of each GEMM back to back, so that a piece and the whole it is
    // part of sample the same few milliseconds of the host.
    let mut samples: [Vec<f64>; 6] = Default::default();
    for _ in 0..REPLAY_REPS {
        let backend = make_backend();
        for g in prewarm {
            backend.gemm(&g.a, &g.b, &g.cfg).expect("shapes conform");
        }
        let mut cache = warm_cache();
        let mut totals = [0.0f64; 6];
        let mut images = images.iter();
        for (i, g) in gemms.iter().enumerate() {
            let pair = &operands[2 * i..2 * i + 2];
            let (aq, bq) = (&quantized[2 * i], &quantized[2 * i + 1]);
            let timings = [
                time_ms(|| black_box(backend.gemm(&g.a, &g.b, &g.cfg).expect("shapes conform"))).1,
                time_ms(|| {
                    for (t, q, missed) in pair {
                        if *missed && !q.is_identity() {
                            black_box(quantize_matrix_tier(t, q, 0, 0, tier));
                        }
                    }
                })
                .1,
                time_ms(|| {
                    for (o, t) in pair.iter().zip([aq, bq]).filter(|(o, _)| packed(o)) {
                        black_box(HbmImage::pack(t, o.1.format()).expect("matrix operands"));
                    }
                })
                .1,
                time_ms(|| {
                    for _ in pair.iter().filter(|o| packed(o)) {
                        let image = images.next().expect("one image per packed operand");
                        black_box(image.unpack().expect("freshly packed images verify"));
                    }
                })
                .1,
                time_ms(|| {
                    for (t, q, _) in pair.iter().filter(|_| fpga) {
                        black_box(cache.get_or_pack(t, q).expect("matrix"));
                    }
                })
                .1,
                time_ms(|| {
                    if fpga {
                        black_box(
                            acc.execute_quantized(aq, bq, &g.cfg)
                                .expect("shapes conform"),
                        );
                    } else {
                        let core = QGemmConfig {
                            quant_a: Quantizer::identity(),
                            quant_b: Quantizer::identity(),
                            mac: g.cfg.mac,
                        };
                        black_box(qgemm(aq, bq, &core).expect("shapes conform"));
                    }
                })
                .1,
            ];
            for (total, t) in totals.iter_mut().zip(timings) {
                *total += t;
            }
        }
        backend.step_boundary();
        for (s, t) in samples.iter_mut().zip(totals) {
            s.push(t);
        }
    }
    // What the pieces leave of the backend's time, judged rep by rep:
    // within one rep the host's speed is as good as constant. The
    // cache pass contains the quantize and pack work of its misses.
    let unexplained: Vec<f64> = (0..REPLAY_REPS)
        .map(|i| {
            let [backend, quantize, pack, _, cache_pass, compute] =
                std::array::from_fn(|piece| samples[piece][i]);
            let host_side = if fpga {
                cache_pass.max(quantize + pack)
            } else {
                quantize
            };
            backend - host_side - compute
        })
        .collect();
    let [backend_ms, quantize_ms, pack_ms, unpack_ms, cache_pass_ms, compute_ms] =
        samples.map(|s| stats::median(&s));

    let (mut timing_us, mut err) = (0.0, 0.0);
    for g in gemms {
        let (n, k, m) = g.dims();
        let shape = GemmShape::new(n, k, m);
        let bits = g.cfg.quant_a.format().bit_width();
        let sim = acc.timing_only(shape, bits).total_s;
        let est = estimate_gemm(shape, acc.config(), acc.freq_mhz(), bits, bits).total_s;
        timing_us += sim * 1e6;
        err += (est - sim).abs() / sim;
    }
    let count = gemms.len().max(1) as f64;
    Replay {
        backend_ms,
        quantize_ms,
        kernel_ms: if fpga { 0.0 } else { compute_ms },
        sim_compute_ms: if fpga { compute_ms } else { 0.0 },
        pack_ms,
        unpack_ms,
        cache_lookup_ms: if fpga {
            (cache_pass_ms - quantize_ms - pack_ms).max(0.0)
        } else {
            0.0
        },
        unexplained_ms: stats::median(&unexplained).abs(),
        macs: gemms.iter().map(CapturedGemm::macs).sum(),
        timing_only_us_per_gemm: timing_us / count,
        model_error_pct: 100.0 * err / count,
    }
}

/// Writes a replay's per-unit metrics. `units` is how many units the
/// replayed GEMMs make up; FPGA-side pieces are reported only for
/// workloads that run on the simulator.
pub fn report_replay(report: &mut Report, r: &Replay, units: f64, fpga: bool) {
    report.metric("formats.quantize_ms_per_unit", r.quantize_ms / units);
    if fpga {
        let sim = r.sim_compute_ms / units;
        report.metric("fpga.sim_compute_ms_per_unit", sim);
        report.metric(
            "fpga.host_ns_per_sim_mac",
            r.sim_compute_ms * 1e6 / r.macs as f64,
        );
        report.metric("fpga.pack_ms_per_unit", r.pack_ms / units);
        report.metric("fpga.unpack_ms_per_unit", r.unpack_ms / units);
        report.metric("fpga.cache_lookup_ms_per_unit", r.cache_lookup_ms / units);
        report.metric("fpga.timing_only_us_per_gemm", r.timing_only_us_per_gemm);
        report.metric("fpga.model_error_pct", r.model_error_pct);
    } else {
        report.metric("arith.kernel_ms_per_unit", r.kernel_ms / units);
        report.metric(
            "arith.kernel_mmac_per_s",
            r.macs as f64 / (r.kernel_ms * 1e3),
        );
    }
}

/// Melem/s of `Quantizer::quantize_slice_f32` over 1 Mi elements.
fn quantize_melem_per_s(q: &Quantizer) -> f64 {
    const N: usize = 1 << 20;
    let src: Vec<f32> = (0..N)
        .map(|i| ((i * 2_654_435_761 % 20_011) as f32 - 10_005.0) * 3.1e-4)
        .collect();
    let ms = median_ms(5, || {
        let mut v = src.clone();
        q.quantize_slice_f32(&mut v, 0);
        black_box(v);
    });
    N as f64 / (ms * 1e3)
}

/// The ROADMAP's headline GEMM (128×96×96, FP8×FP12-SR) through
/// `qgemm_parallel` at `threads`; median milliseconds.
fn headline_ms(threads: usize) -> f64 {
    let a = Tensor::from_fn(vec![128, 96], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05);
    let b = Tensor::from_fn(vec![96, 96], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04);
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(7);
    median_ms(15, || {
        black_box(qgemm_parallel(&a, &b, &cfg, threads).expect("shapes conform"));
    })
}

/// Launches through a pipelined backend armed with a fixed fault
/// plan; returns `(faults injected, launches degraded to the CPU)` —
/// exact counts.
fn armed_phase() -> (u64, u64) {
    let plan = FaultPlan::new(0xFA17)
        .with(FaultSite::LaunchTransient, Trigger::Probability(0.2))
        .with(FaultSite::HbmCorruption, Trigger::EveryNth(5))
        .with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(17));
    let backend = FpgaBackend::new(accelerator())
        .pipelined()
        .with_fault_plan(plan)
        .with_retry_policy(RetryPolicy::no_delay(3));
    let a = Tensor::from_fn(vec![16, 64], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
    let b = Tensor::from_fn(vec![64, 24], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
    for _ in 0..32 {
        backend.gemm(&a, &b, &cfg).expect("shapes conform");
    }
    let injected = backend.injector().map_or(0, |i| i.injected_count());
    (injected, backend.fallback_count())
}

/// Metrics that do not depend on the workload: format throughputs,
/// the headline GEMM at one and two threads, accelerator matching,
/// and the armed fault phase.
pub fn shared_metrics(report: &mut Report) {
    let rn = Rounding::Nearest;
    report.metric(
        "formats.e5m2_rn_melem_per_s",
        quantize_melem_per_s(&Quantizer::float(FloatFormat::e5m2(), rn)),
    );
    report.metric(
        "formats.e6m5_sr_melem_per_s",
        quantize_melem_per_s(&Quantizer::float(
            FloatFormat::e6m5(),
            Rounding::stochastic(),
        )),
    );
    report.metric(
        "formats.fxp44_rn_melem_per_s",
        quantize_melem_per_s(&Quantizer::fixed(FixedFormat::fxp4_4(), rn)),
    );

    let (t1, t2) = (headline_ms(1), headline_ms(2));
    report.metric("arith.headline_t1_ms", t1);
    report.metric("arith.headline_t2_ms", t2);
    report.metric("arith.t2_speedup_x", t1 / t2);

    let gemms = ModelDesc::lenet5(32).training_gemms();
    let db = SynthesisDb::u55();
    report.metric(
        "core.matching_ms",
        median_ms(3, || {
            black_box(select_accelerator(&gemms, &db, 8));
        }),
    );

    let (retries, degraded) = armed_phase();
    report.metric("faults.armed_retries", retries as f64);
    report.metric("faults.armed_degraded", degraded as f64);
}
