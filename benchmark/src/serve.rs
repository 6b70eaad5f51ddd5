//! `serve_closed`: a closed-loop client in front of `GemmService`.
//!
//! One generator thread keeps a sliding window of outstanding
//! `ServeHandle::submit` calls — the repository's clients (the trainer
//! through `ServingBackend`, inference callers) each wait for a reply,
//! which makes a closed loop. One GEMM shape keeps the percentiles
//! from straddling a shape boundary; three of four requests read the
//! `OperandCache` (resident weights), one of four writes it.

use crate::layers;
use crate::report::{Fact, Report};
use crate::spans::Recorder;
use crate::stats;
use crate::train::{
    accelerator, repeat_setup, time_metrics, CapturedGemm, SetupOutcome, ROUNDS, SETUP_REPS,
};
use conformance::digest::{bits_equal, Fnv1a};
use mpt_arith::{qgemm, QGemmConfig};
use mpt_fpga::{PipelinedExecutor, DEFAULT_CACHE_BUDGET};
use mpt_serving::{GemmService, RequestClass, ServeConfig, ServeHandle, ServeResult};
use mpt_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// The one GEMM shape served: `32×120 · 120×84` (LeNet's second fully
/// connected layer at batch 32). The simulator spends ~9 ms of host
/// time on it, which keeps 800 requests inside a run and the queue's
/// own cost visible next to the compute.
pub const SHAPE: (usize, usize, usize) = (32, 120, 84);
/// Outstanding requests the generator keeps in flight.
pub const WINDOW: usize = 4;
/// Resident weight matrices inference requests draw `B` from.
pub const RESIDENT: usize = 4;
/// Every this-many-th reply is compared bit for bit with `qgemm`.
pub const CHECK_EVERY: u64 = 16;
/// Untimed warm-up requests inside set-up.
pub const WARMUP: usize = 100;
/// Timed requests per second of `--seconds` (see
/// `TrainSpec::units_per_second`).
pub const UNITS_PER_SECOND: f64 = 80.0;
/// Requests in a traced run's phases.
pub const TRACED_REQUESTS: usize = 400;
/// Deadline carried by inference-class requests.
const INFERENCE_DEADLINE: Duration = Duration::from_secs(1);

/// SplitMix64: the request mix's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A matrix of uniform values in `[-1, 1)`.
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
            .collect();
        Tensor::from_vec(vec![rows, cols], data).expect("rows*cols values")
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Left operand (always fresh: a cache write).
    pub a: Tensor,
    /// Right operand: a resident weight (cache read) for inference, a
    /// fresh matrix (cache write, eventually an eviction) for training.
    pub b: Tensor,
    /// Service class.
    pub class: RequestClass,
}

/// The seeded request mix.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: SplitMix,
    weights: Vec<Tensor>,
    issued: u64,
    /// Arithmetic of every request.
    pub cfg: QGemmConfig,
}

impl Mix {
    /// The mix for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5E57_E0C1_05ED);
        let weights = (0..RESIDENT)
            .map(|_| rng.matrix(SHAPE.1, SHAPE.2))
            .collect();
        Mix {
            rng,
            weights,
            issued: 0,
            cfg: QGemmConfig::fp8_fp12_sr().with_seed(seed),
        }
    }

    /// One launch per resident weight: run through a fresh cache, they
    /// leave the weights resident as the warm-up does in the service.
    pub fn resident_gemms(&self) -> Vec<CapturedGemm> {
        self.weights
            .iter()
            .map(|w| CapturedGemm {
                a: Tensor::zeros(vec![SHAPE.0, SHAPE.1]),
                b: w.clone(),
                cfg: self.cfg,
                out: Tensor::zeros(vec![SHAPE.0, SHAPE.2]),
            })
            .collect()
    }

    /// The next request: every fourth is training-class.
    pub fn next_request(&mut self) -> Request {
        let i = self.issued;
        self.issued += 1;
        let a = self.rng.matrix(SHAPE.0, SHAPE.1);
        if i % 4 == 3 {
            Request {
                a,
                b: self.rng.matrix(SHAPE.1, SHAPE.2),
                class: RequestClass::Training,
            }
        } else {
            let w = (self.rng.next_u64() % RESIDENT as u64) as usize;
            Request {
                a,
                b: self.weights[w].clone(),
                class: RequestClass::Inference,
            }
        }
    }
}

/// Kept replies (operands and output) that differ from `qgemm` in any
/// bit.
pub fn mismatches(checked: &[CapturedGemm]) -> usize {
    checked
        .iter()
        .filter(|c| {
            let want = qgemm(&c.a, &c.b, &c.cfg).expect("served shapes conform");
            !bits_equal(&want, &c.out)
        })
        .count()
}

/// FNV-1a digest over the checked replies' bits (an exact fact).
pub fn reply_digest(checked: &[CapturedGemm]) -> u64 {
    let mut h = Fnv1a::new();
    for c in checked {
        h.update_f32s(c.out.data());
    }
    h.finish()
}

/// What one request reported.
#[derive(Debug, Clone, Copy)]
pub struct RequestSample {
    /// Milliseconds from its start mark (submit, or due time in the
    /// open loop) to the reply being received.
    pub ms: f64,
    /// Service class.
    pub class: RequestClass,
    /// Rejected, failed, expired, or degraded with no fault armed.
    pub failed: bool,
    /// Start mark.
    pub start: Instant,
    /// When the reply was received.
    pub done: Instant,
}

struct Pending {
    rx: Receiver<ServeResult>,
    start: Instant,
    class: RequestClass,
    check: Option<(Tensor, Tensor)>,
}

/// Outcome of a load phase.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// One sample per request, in completion order.
    pub samples: Vec<RequestSample>,
    /// Replies kept for the deferred bit check.
    pub checked: Vec<CapturedGemm>,
    /// Queue depth seen at each submit.
    pub queue_depths: Vec<f64>,
    /// Open loop only: how late each submit ran against its due time.
    pub generator_lag_ms: Vec<f64>,
}

impl LoadOutcome {
    /// Latencies in milliseconds.
    pub fn ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }

    fn ms_of(&self, class: RequestClass) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.failed).count() as u64
    }

    fn finish(&mut self, p: Pending, result: ServeResult, cfg: &QGemmConfig) {
        let done = Instant::now();
        let failed = match result {
            ServeResult::Done { out, degraded } => {
                if let Some((a, b)) = p.check {
                    self.checked.push(CapturedGemm {
                        a,
                        b,
                        cfg: *cfg,
                        out,
                    });
                }
                degraded
            }
            ServeResult::Rejected { .. }
            | ServeResult::DeadlineExceeded
            | ServeResult::Failed(_) => true,
        };
        self.samples.push(RequestSample {
            ms: done.duration_since(p.start).as_secs_f64() * 1e3,
            class: p.class,
            failed,
            start: p.start,
            done,
        });
    }
}

fn submit(handle: &ServeHandle, mix: &mut Mix, seq: u64, start: Option<Instant>) -> Pending {
    let req = mix.next_request();
    let check = (seq % CHECK_EVERY == CHECK_EVERY - 1).then(|| (req.a.clone(), req.b.clone()));
    let now = Instant::now();
    let deadline = (req.class == RequestClass::Inference).then(|| now + INFERENCE_DEADLINE);
    let rx = handle.submit(req.a, req.b, mix.cfg, req.class, deadline);
    Pending {
        rx,
        start: start.unwrap_or(now),
        class: req.class,
        check,
    }
}

/// Closed loop: keeps [`WINDOW`] requests outstanding until `n` have
/// completed. Replies arrive in submission order (one dispatcher), so
/// the generator always waits on the oldest.
pub fn closed_loop(handle: &ServeHandle, mix: &mut Mix, n: usize) -> LoadOutcome {
    let mut out = LoadOutcome::default();
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let mut submitted = 0usize;
    while out.samples.len() < n {
        while pending.len() < WINDOW && submitted < n {
            out.queue_depths.push(handle.queue_depth() as f64);
            pending.push_back(submit(handle, mix, submitted as u64, None));
            submitted += 1;
        }
        let p = pending.pop_front().expect("window is never empty here");
        let result = p.rx.recv().expect("the service outlives its clients");
        out.finish(p, result, &mix.cfg);
    }
    out
}

/// Open loop: submits request `i` at `i / rate_per_s` regardless of
/// replies, and times each from when it was *due*, so a stall charges
/// the requests queued behind it.
pub fn open_loop(handle: &ServeHandle, mix: &mut Mix, n: usize, rate_per_s: f64) -> LoadOutcome {
    let mut out = LoadOutcome::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let origin = Instant::now();
    let mut submitted = 0usize;
    while out.samples.len() < n {
        let due = origin + Duration::from_secs_f64(submitted as f64 / rate_per_s);
        if submitted < n && Instant::now() >= due {
            out.generator_lag_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            out.queue_depths.push(handle.queue_depth() as f64);
            pending.push_back(submit(handle, mix, submitted as u64, Some(due)));
            submitted += 1;
            continue;
        }
        let polled = pending.front().map(|p| p.rx.try_recv());
        match polled {
            Some(Ok(result)) => {
                let p = pending.pop_front().expect("front was just polled");
                out.finish(p, result, &mix.cfg);
            }
            Some(Err(TryRecvError::Disconnected)) => {
                panic!("the service outlives its clients")
            }
            Some(Err(TryRecvError::Empty)) | None => {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
    out
}

/// A started service with its warm request mix.
pub struct Served {
    /// The service (shut down on drop).
    pub service: GemmService,
    /// The mix, past its warm-up requests.
    pub mix: Mix,
}

/// Builds the executor, starts the service, generates the resident
/// weights and serves the warm-up requests.
pub fn start(seed: u64) -> Served {
    let executor = PipelinedExecutor::new(accelerator(), DEFAULT_CACHE_BUDGET);
    let service = GemmService::start(ServeConfig::default(), executor, None);
    let mut mix = Mix::new(seed);
    closed_loop(&service.handle(), &mut mix, WARMUP);
    Served { service, mix }
}

/// Calibration reps taken before the first round and after each.
const ROUND_CALIBRATION_REPS: usize = 5;

/// Folds the deferred bit checks into `report`: any reply that differs
/// from `qgemm` in one bit makes the run incorrect.
pub fn check_replies(report: &mut Report, checked: &[CapturedGemm]) {
    let bad = mismatches(checked);
    report.correct &= bad == 0;
    report.failed += bad as u64;
    report.fact("replies_checked", Fact::U64(checked.len() as u64));
    report.fact("replies_mismatched", Fact::U64(bad as u64));
    report.fact(
        "exact.reply_digest",
        Fact::Str(crate::train::hex(reply_digest(checked))),
    );
}

/// The reference gate for the served shape: the first checked reply
/// must also equal `qgemm_reference`.
fn reference_gate(report: &mut Report, checked: &[CapturedGemm]) {
    let ok = checked.first().is_some_and(|c| {
        let want =
            mpt_arith::qgemm_reference(&c.a, &c.b, &c.cfg, 0, 0).expect("served shapes conform");
        bits_equal(&want, &c.out)
    });
    report.correct &= ok;
    report.fact("gate.reference_ok", Fact::Bool(ok));
}

/// An untraced run: repeated set-up, then [`ROUNDS`] closed-loop
/// rounds. The window drains at the end of each round and the host's
/// speed is calibrated on the generator thread while the service is
/// idle; a round's latencies and wall time are scaled by the reps on
/// either side of it.
pub fn run_untraced(seed: u64, seconds: u64) -> Report {
    let mut report = Report::new("serve_closed", seed, false);
    let SetupOutcome {
        built: Served { service, mut mix },
        wall_s: setup_wall_s,
        setup_s,
    } = repeat_setup(SETUP_REPS, || start(seed));
    let handle = service.handle();
    let total = crate::train::timed_units(UNITS_PER_SECOND, seconds);

    let (mut unit_ms, mut wall_ms) = (Vec::new(), Vec::new());
    let (mut round_s, mut wall_round_s) = (Vec::new(), Vec::new());
    let mut checked = Vec::new();
    let mut reps = crate::host::calibrate(ROUND_CALIBRATION_REPS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let load = closed_loop(&handle, &mut mix, total / ROUNDS);
        let wall = t.elapsed().as_secs_f64();
        let after = crate::host::calibrate(ROUND_CALIBRATION_REPS);
        reps.extend_from_slice(&after);
        let slowdown = crate::host::slowdown(&reps);
        reps = after;

        report.failed += load.failed();
        wall_ms.extend(load.ms());
        unit_ms.extend(load.ms().iter().map(|ms| ms / slowdown));
        wall_round_s.push(wall);
        round_s.push(wall / slowdown);
        checked.extend(load.checked);
    }
    let stats_after = handle.stats().snapshot();
    service.shutdown();

    report.attempted = unit_ms.len() as u64;
    report.correct &= report.failed == 0;
    check_replies(&mut report, &checked);
    reference_gate(&mut report, &checked);
    report.metric("setup_s", stats::median(&setup_s));
    report.fact("wall.setup_s", Fact::F64(stats::median(&setup_wall_s)));
    time_metrics(&mut report, (&unit_ms, &round_s), (&wall_ms, &wall_round_s));
    report.fact("warmup_units", Fact::U64(WARMUP as u64));
    report.fact("window", Fact::U64(WINDOW as u64));
    report.fact("served_completed", Fact::U64(stats_after.0));
    report.fact("served_rejected", Fact::U64(stats_after.1));
    report.fact("served_deadline_exceeded", Fact::U64(stats_after.3));
    report.metric("peak_rss_mb", crate::host::peak_rss_mb());
    report
}

/// Runs a load phase and returns it with its median latency at the
/// reference host speed (calibration reps right before and after it),
/// for comparing phases the host's drift would otherwise separate.
fn phase_p50(run: impl FnOnce() -> LoadOutcome) -> (LoadOutcome, f64) {
    let mut reps = crate::host::calibrate(ROUND_CALIBRATION_REPS);
    let load = run();
    reps.extend(crate::host::calibrate(ROUND_CALIBRATION_REPS));
    let p50 = stats::percentile(&load.ms(), 0.5) / crate::host::slowdown(&reps);
    (load, p50)
}

/// A traced run: the closed loop with one span per request, the same
/// requests launched directly on the caller, an open-loop phase, and
/// the per-layer replays of one window's GEMMs.
pub fn run_traced(seed: u64) -> (Report, Recorder) {
    let mut report = Report::new("serve_closed", seed, true);
    let mut rec = Recorder::new();
    let n = TRACED_REQUESTS;

    let Served { service, mut mix } = start(seed);
    let handle = service.handle();
    // The requests every phase below replays, from one mix state.
    let phase_mix = mix.clone();

    // Untraced and traced closed-loop phases. Request spans are built
    // from timestamps the loop takes anyway, so the traced phase does
    // the same work; the difference between the two is run-to-run
    // noise and is reported as the tracing overhead it bounds.
    let (_, plain_p50) = phase_p50(|| closed_loop(&handle, &mut mix, n));
    let mut mix_t = phase_mix.clone();
    let (load, traced_p50) = phase_p50(|| closed_loop(&handle, &mut mix_t, n));
    let wall_s = load.samples[n - 1]
        .done
        .duration_since(load.samples[0].start)
        .as_secs_f64();
    for (i, s) in load.samples.iter().enumerate() {
        rec.set_unit(i as u64);
        rec.push_closed("serve.request", s.class.name().to_string(), s.start, s.done);
    }
    let ms = load.ms();
    let closed_rate = n as f64 / wall_s;
    report.attempted = n as u64;
    report.failed = load.failed();
    report.correct &= report.failed == 0;
    check_replies(&mut report, &load.checked);
    reference_gate(&mut report, &load.checked);

    report.metric("serving.req_ms_p99", stats::percentile(&ms, 0.99));
    let inf = load.ms_of(RequestClass::Inference);
    let trn = load.ms_of(RequestClass::Training);
    report.metric("serving.inference_ms_p50", stats::percentile(&inf, 0.5));
    report.metric("serving.training_ms_p50", stats::percentile(&trn, 0.5));
    report.metric(
        "serving.queue_depth_p95",
        stats::percentile(&load.queue_depths, 0.95),
    );
    let before_open = handle.stats().snapshot();
    let coalesced = handle
        .stats()
        .coalesced
        .load(std::sync::atomic::Ordering::Relaxed);
    report.metric(
        "serving.coalesced_share",
        coalesced as f64 / before_open.0.max(1) as f64,
    );
    report.fact("closed_rate_per_s", Fact::F64(closed_rate));

    // Telemetry switched on inside the service.
    mpt_telemetry::enable();
    let mut mix_e = phase_mix.clone();
    let (_, enabled_p50) = phase_p50(|| closed_loop(&handle, &mut mix_e, n / 2));
    mpt_telemetry::disable();
    mpt_telemetry::reset();

    // Open loop at 60% of the measured closed-loop rate.
    let mut mix_o = phase_mix.clone();
    let open = open_loop(&handle, &mut mix_o, n, 0.6 * closed_rate);
    report.correct &= open.failed() == 0 && mismatches(&open.checked) == 0;
    let open_ms = open.ms();
    report.metric("serving.open_req_ms_p50", stats::percentile(&open_ms, 0.5));
    report.metric("serving.open_req_ms_p90", stats::percentile(&open_ms, 0.9));
    report.metric(
        "serving.open_generator_lag_ms_p99",
        stats::percentile(&open.generator_lag_ms, 0.99),
    );
    let after = handle.stats().snapshot();
    report.metric("serving.rejected", after.1 as f64);
    report.metric("serving.deadline_exceeded", after.3 as f64);
    service.shutdown();

    // The same requests launched on the caller: no queue, no
    // dispatcher, no coalescing. A fresh executor warmed the same way.
    let mut direct = PipelinedExecutor::new(accelerator(), DEFAULT_CACHE_BUDGET);
    let mut warm = Mix::new(seed);
    for _ in 0..WARMUP {
        let r = warm.next_request();
        direct
            .launch(&r.a, &r.b, &warm.cfg)
            .expect("served shapes conform");
    }
    let cache0 = direct.cache_stats();
    let (hw0, hw_eager0) = (direct.pipelined_elapsed_s(), direct.eager_elapsed_s());
    let mut mix_d = phase_mix.clone();
    let mut direct_ms = Vec::with_capacity(n);
    let mut window_gemms: Vec<CapturedGemm> = Vec::new();
    for i in 0..n {
        let r = mix_d.next_request();
        let t = Instant::now();
        let (out, _) = direct
            .launch(&r.a, &r.b, &mix_d.cfg)
            .expect("served shapes conform");
        direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if i < 4 {
            window_gemms.push(CapturedGemm {
                a: r.a,
                b: r.b,
                cfg: mix_d.cfg,
                out,
            });
        }
    }
    direct.flush();
    let cache1 = direct.cache_stats();
    let per = |x: f64| x / n as f64;
    let lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    let direct_p50 = stats::percentile(&direct_ms, 0.5);
    report.metric("serving.direct_launch_ms_p50", direct_p50);
    report.metric(
        "serving.queue_overhead_ms_p50",
        stats::percentile(&ms, 0.5) - direct_p50,
    );
    report.metric(
        "fpga.cache_hit_ratio",
        (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
    );
    report.metric(
        "fpga.packs_per_unit",
        per((cache1.packs - cache0.packs) as f64),
    );
    report.metric(
        "fpga.bytes_packed_per_unit",
        per((cache1.bytes_packed - cache0.bytes_packed) as f64),
    );
    let hw_us = per((direct.pipelined_elapsed_s() - hw0) * 1e6);
    let hw_eager_us = per((direct.eager_elapsed_s() - hw_eager0) * 1e6);
    report.metric("fpga.sim_hw_us_per_unit", hw_us);
    report.metric("fpga.sim_hw_eager_us_per_unit", hw_eager_us);
    report.metric("fpga.overlap_gain_x", hw_eager_us / hw_us);
    let busy = direct.stage_busy_s();
    report.metric(
        "fpga.stage_busy_share.compute",
        busy[2] / busy.iter().sum::<f64>(),
    );
    let direct_mean = direct_ms.iter().sum::<f64>() / n as f64;
    report.metric("fpga.gemm_ms_per_unit", direct_mean);
    report.metric("fpga.sim_slowdown_x", direct_mean * 1e3 / hw_us);

    // Per-layer replays of one window (3 inference + 1 training).
    let units = window_gemms.len() as f64;
    let replay = layers::replay_gemms(
        &window_gemms,
        &phase_mix.resident_gemms(),
        &|| crate::train::make_backend(crate::train::BackendKind::FpgaPipelined).0,
        true,
    );
    layers::report_replay(&mut report, &replay, units, true);
    report.metric("budget.unit_ms_traced", replay.backend_ms / units);
    report.metric(
        "budget.unaccounted_pct",
        100.0 * replay.unexplained_ms / replay.backend_ms,
    );
    report.metric("budget.units_traced", n as f64);
    report.metric("arith.gemm_calls_per_unit", 1.0);
    report.metric("arith.macs_per_unit", (SHAPE.0 * SHAPE.1 * SHAPE.2) as f64);

    report.metric(
        "telemetry.bench_trace_overhead_pct",
        100.0 * (traced_p50 - plain_p50) / plain_p50,
    );
    report.metric(
        "telemetry.enabled_overhead_pct",
        100.0 * (enabled_p50 - plain_p50) / plain_p50,
    );
    report.metric("telemetry.spans_recorded", rec.spans().len() as f64);

    layers::shared_metrics(&mut report);
    (report, rec)
}
