//! Training workloads: the step loop, its correctness gates, and the
//! timed run.
//!
//! The loop mirrors `mpt_core::train_cnn_with_backend` call for call
//! (the mirror gate pins that), but lives here so each call into a
//! crate can be timed from outside.

use crate::report::{Fact, Report};
use crate::spans::Recorder;
use crate::stats;
use conformance::digest::digest_params;
use mpt_arith::{qgemm_reference, CpuBackend, GemmBackend, MacConfig, QGemmConfig};
use mpt_core::{train_cnn_with_backend, Checkpoint, TrainConfig};
use mpt_data::{synthetic_cifar10_16, synthetic_mnist, Batches, ImageDataset};
use mpt_formats::Rounding;
use mpt_fpga::{Accelerator, FpgaBackend, SaConfig, SynthesisDb};
use mpt_models::{lenet5, ResNet, ResNetKind};
use mpt_nn::{AdaptiveLossScaler, GemmPrecision, Graph, Layer, Optimizer, Parameter, Sgd};
use mpt_tensor::{ShapeError, Tensor};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Steps of the prefix on which the gates compare weight digests.
pub const GATE_STEPS: usize = 4;
/// Rounds a timed run is cut into (throughput is per median round).
pub const ROUNDS: usize = 10;
/// Initial loss scale (the paper's).
const LOSS_SCALE: f32 = 256.0;

/// Which network a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// LeNet-5 on the 1×28×28 MNIST stand-in.
    Lenet,
    /// `ResNetKind::ResNet20Scaled16` on the 3×16×16 CIFAR stand-in.
    Resnet16,
}

/// Which executor a workload's GEMMs run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `CpuBackend::with_threads(1)`.
    Cpu,
    /// `FpgaBackend::new(<8,8,4> @ U55 frequency).pipelined()`.
    FpgaPipelined,
    /// The same accelerator without the staged executor (only the
    /// traced run's eager comparison uses it).
    FpgaEager,
}

/// A training workload's fixed parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSpec {
    /// Workload name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Network.
    pub model: ModelKind,
    /// Executor.
    pub backend: BackendKind,
    /// Mini-batch size.
    pub batch: usize,
    /// Training-set size (an epoch is `samples / batch` steps).
    pub samples: usize,
    /// Untimed warm-up steps inside set-up.
    pub warmup: usize,
    /// Timed steps per second of `--seconds`, sized on the host the
    /// benchmark was defined on. Work is fixed by this constant, never
    /// by how fast the current build happens to run.
    pub units_per_second: f64,
}

/// `lenet_cpu`: the paper's headline config on the fused float path.
pub const LENET_CPU: TrainSpec = TrainSpec {
    name: "lenet_cpu",
    model: ModelKind::Lenet,
    backend: BackendKind::Cpu,
    batch: 32,
    samples: 1024,
    warmup: 4,
    units_per_second: 10.0,
};

/// `lenet_fpga`: the same model, data and seed through the simulator.
pub const LENET_FPGA: TrainSpec = TrainSpec {
    name: "lenet_fpga",
    model: ModelKind::Lenet,
    backend: BackendKind::FpgaPipelined,
    batch: 4,
    samples: 128,
    warmup: 4,
    units_per_second: 10.0,
};

/// `resnet_fxp_cpu`: the generic scalar MAC path, BatchNorm, 3×3
/// im2col.
pub const RESNET_FXP_CPU: TrainSpec = TrainSpec {
    name: "resnet_fxp_cpu",
    model: ModelKind::Resnet16,
    backend: BackendKind::Cpu,
    batch: 4,
    samples: 128,
    warmup: 4,
    units_per_second: 10.0,
};

/// Timed units for a `--seconds` value: a multiple of [`ROUNDS`],
/// never below 100 so p90 keeps ten samples beyond it.
pub fn timed_units(units_per_second: f64, seconds: u64) -> usize {
    let raw = (units_per_second * seconds as f64).round() as usize;
    (raw.div_ceil(ROUNDS) * ROUNDS).max(100)
}

impl TrainSpec {
    /// The workload's GEMM arithmetic, SR streams seeded from `seed`.
    pub fn precision(&self, seed: u64) -> GemmPrecision {
        match self.model {
            ModelKind::Lenet => GemmPrecision::fp8_fp12_sr(),
            ModelKind::Resnet16 => GemmPrecision::for_mac(MacConfig::fxp4_4(Rounding::Nearest)),
        }
        .with_seed(seed)
    }

    fn build_model(&self, prec: GemmPrecision, seed: u64) -> Box<dyn Layer> {
        match self.model {
            ModelKind::Lenet => Box::new(lenet5(prec, seed)),
            ModelKind::Resnet16 => Box::new(ResNet::new(ResNetKind::ResNet20Scaled16, prec, seed)),
        }
    }

    /// `n` synthetic images of the model's input shape.
    pub fn dataset(&self, n: usize, seed: u64) -> ImageDataset {
        match self.model {
            ModelKind::Lenet => synthetic_mnist(n, seed),
            ModelKind::Resnet16 => synthetic_cifar10_16(n, seed),
        }
    }
}

/// The accelerator every FPGA-side measurement uses: `<8,8,4>` at the
/// U55 synthesis database's frequency for it.
pub fn accelerator() -> Accelerator {
    let sa = SaConfig::new(8, 8, 4).expect("<8,8,4> is a valid array");
    let freq = SynthesisDb::u55()
        .frequency(8, 8, 4)
        .expect("<8,8,4> fits the U55");
    Accelerator::new(sa, freq)
}

/// A workload's executor, plus the concrete FPGA handle when there is
/// one (for simulated time, cache counters and the fallback count).
pub fn make_backend(kind: BackendKind) -> (Rc<dyn GemmBackend>, Option<Rc<FpgaBackend>>) {
    match kind {
        BackendKind::Cpu => (Rc::new(CpuBackend::with_threads(1)), None),
        BackendKind::FpgaPipelined => {
            let f = Rc::new(FpgaBackend::new(accelerator()).pipelined());
            (Rc::clone(&f) as Rc<dyn GemmBackend>, Some(f))
        }
        BackendKind::FpgaEager => {
            let f = Rc::new(FpgaBackend::new(accelerator()));
            (Rc::clone(&f) as Rc<dyn GemmBackend>, Some(f))
        }
    }
}

/// One GEMM as the backend saw it, kept for the reference gate and
/// for the traced run's per-layer replays.
#[derive(Debug, Clone)]
pub struct CapturedGemm {
    /// Left operand.
    pub a: Tensor,
    /// Right operand.
    pub b: Tensor,
    /// Arithmetic configuration.
    pub cfg: QGemmConfig,
    /// What the backend returned.
    pub out: Tensor,
}

impl CapturedGemm {
    /// `(n, k, m)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        let (n, k) = self.a.as_matrix().expect("captured operands are matrices");
        let (_, m) = self.b.as_matrix().expect("captured operands are matrices");
        (n, k, m)
    }

    /// Multiply-accumulates.
    pub fn macs(&self) -> u64 {
        let (n, k, m) = self.dims();
        (n * k * m) as u64
    }
}

/// What [`TimedBackend`] keeps of the GEMMs passing through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// Nothing.
    Off,
    /// The first GEMM of each distinct `(shape, config)` — what the
    /// reference gate checks.
    Distinct,
    /// Every GEMM, in call order — one step's worth feeds the traced
    /// run's per-layer replays.
    All,
}

/// A [`GemmBackend`] decorator around the real backend: one span per
/// GEMM while a recorder is attached, a copy of the GEMMs the capture
/// mode selects, and running call and MAC counts. It adds no
/// arithmetic; results pass through.
pub struct TimedBackend {
    inner: Rc<dyn GemmBackend>,
    recorder: RefCell<Option<Rc<RefCell<Recorder>>>>,
    capture: Cell<Capture>,
    captured: RefCell<Vec<CapturedGemm>>,
    calls: Cell<u64>,
    macs: Cell<u64>,
}

impl TimedBackend {
    /// Wraps `inner`; spans and capture start switched off.
    pub fn new(inner: Rc<dyn GemmBackend>) -> Self {
        TimedBackend {
            inner,
            recorder: RefCell::new(None),
            capture: Cell::new(Capture::Off),
            captured: RefCell::new(Vec::new()),
            calls: Cell::new(0),
            macs: Cell::new(0),
        }
    }

    /// Attaches (or detaches) the recorder GEMM spans go to.
    pub fn set_recorder(&self, rec: Option<Rc<RefCell<Recorder>>>) {
        *self.recorder.borrow_mut() = rec;
    }

    /// Sets the capture mode.
    pub fn set_capture(&self, mode: Capture) {
        self.capture.set(mode);
    }

    /// `(GEMM calls, multiply-accumulates)` seen since construction.
    pub fn counts(&self) -> (u64, u64) {
        (self.calls.get(), self.macs.get())
    }

    /// Takes everything captured so far.
    pub fn take_captured(&self) -> Vec<CapturedGemm> {
        std::mem::take(&mut self.captured.borrow_mut())
    }
}

impl GemmBackend for TimedBackend {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        let rec = self.recorder.borrow().clone();
        let span = rec.as_ref().map(|r| {
            let detail = match (a.shape(), b.shape()) {
                (&[n, k], &[_, m]) => format!("{n}x{k}x{m} {cfg}"),
                _ => String::new(),
            };
            r.borrow_mut().open("gemm", detail)
        });
        let out = self.inner.gemm(a, b, cfg);
        if let (Some(r), Some(id)) = (&rec, span) {
            r.borrow_mut().close(id);
        }
        if let (&[n, k], &[_, m]) = (a.shape(), b.shape()) {
            self.calls.set(self.calls.get() + 1);
            self.macs.set(self.macs.get() + (n * k * m) as u64);
        }
        let keep = match self.capture.get() {
            Capture::Off => false,
            Capture::All => true,
            Capture::Distinct => !self
                .captured
                .borrow()
                .iter()
                .any(|g| g.a.shape() == a.shape() && g.b.shape() == b.shape() && g.cfg == *cfg),
        };
        if let (true, Ok(out)) = (keep, &out) {
            self.captured.borrow_mut().push(CapturedGemm {
                a: a.clone(),
                b: b.clone(),
                cfg: *cfg,
                out: out.clone(),
            });
        }
        out
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn step_boundary(&self) {
        self.inner.step_boundary();
    }
}

/// What one training step reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitSample {
    /// Wall milliseconds, batch gather through `step_boundary`.
    pub ms: f64,
    /// The calibration rep taken right after the unit (0 outside the
    /// timed rounds).
    pub calib_ms: f64,
    /// The step returned a non-finite loss or fell back to the CPU
    /// with no fault armed.
    pub failed: bool,
    /// The loss scaler skipped the optimizer step (an overflow — part
    /// of the recipe, not a failure).
    pub skipped: bool,
}

/// Everything set-up builds: data, model, optimizer state, backend.
pub struct Session {
    spec: TrainSpec,
    seed: u64,
    model: Box<dyn Layer>,
    params: Vec<Parameter>,
    opt: Sgd,
    scaler: AdaptiveLossScaler,
    data: Rc<ImageDataset>,
    backend: Rc<dyn GemmBackend>,
    fpga: Option<Rc<FpgaBackend>>,
    epoch: u64,
    calibrate: bool,
    /// Milliseconds `build_model` took.
    pub build_ms: f64,
}

impl Session {
    /// Synthesizes `samples` training images and builds model,
    /// optimizer and loss scaler, all from `seed`. `backend` is where
    /// the GEMMs go; `fpga` is its concrete handle when it has one.
    pub fn new(
        spec: TrainSpec,
        seed: u64,
        samples: usize,
        prec: GemmPrecision,
        backend: Rc<dyn GemmBackend>,
        fpga: Option<Rc<FpgaBackend>>,
    ) -> Self {
        let data = Rc::new(spec.dataset(samples, seed));
        let t = Instant::now();
        let model = spec.build_model(prec, seed);
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        let params = model.parameters();
        Session {
            spec,
            seed,
            model,
            params,
            opt: Sgd::new(0.02, 0.9, 0.0),
            scaler: AdaptiveLossScaler::with_scale(LOSS_SCALE),
            data,
            backend,
            fpga,
            epoch: 0,
            calibrate: false,
            build_ms,
        }
    }

    /// The workload's data, model and arithmetic on `backend`.
    pub fn with_backend(
        spec: TrainSpec,
        seed: u64,
        backend: Rc<dyn GemmBackend>,
        fpga: Option<Rc<FpgaBackend>>,
    ) -> Self {
        Session::new(
            spec,
            seed,
            spec.samples,
            spec.precision(seed),
            backend,
            fpga,
        )
    }

    /// A resumable snapshot of the session as it stands.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            epoch: self.epoch,
            batch_in_epoch: 0,
            loss_sum: 0.0,
            batches: 0,
            samples: 0,
            epoch_losses: Vec::new(),
            scaler: self.scaler.state(),
            optim: self.opt.export_state(&self.params),
            weights: self.params.iter().map(|p| p.value().clone()).collect(),
            config: TrainConfig {
                epochs: 1,
                batch_size: self.spec.batch,
                loss_scale: LOSS_SCALE,
                seed: self.seed,
            },
        }
    }

    /// Trainable parameters.
    pub fn params(&self) -> &[Parameter] {
        &self.params
    }

    /// The concrete FPGA backend, when the workload has one.
    pub fn fpga(&self) -> Option<&FpgaBackend> {
        self.fpga.as_deref()
    }

    /// The backend handle GEMMs go through.
    pub fn backend(&self) -> Rc<dyn GemmBackend> {
        Rc::clone(&self.backend)
    }

    /// The training data.
    pub fn data(&self) -> &ImageDataset {
        &self.data
    }

    /// The model.
    pub fn model(&self) -> &dyn Layer {
        self.model.as_ref()
    }

    /// Takes one calibration rep after every unit from here on (the
    /// timed rounds of an untraced run), or stops.
    pub fn set_calibrate(&mut self, on: bool) {
        self.calibrate = on;
    }

    /// FNV-1a digest of all parameters (names, shapes, bits).
    pub fn digest(&self) -> u64 {
        digest_params(&self.params)
    }

    fn fallbacks(&self) -> u64 {
        self.fpga.as_ref().map_or(0, |f| f.fallback_count())
    }

    /// Runs `n` steps, starting a fresh epoch (shuffle seed
    /// `seed + epoch`, as the trainer) and rolling into further epochs
    /// as needed. With a recorder, each unit and each call in it gets
    /// a span; `unit_base` numbers the first unit.
    pub fn run_steps(
        &mut self,
        n: usize,
        rec: Option<&Rc<RefCell<Recorder>>>,
        unit_base: u64,
    ) -> Vec<UnitSample> {
        let mut out = Vec::with_capacity(n);
        let data = Rc::clone(&self.data);
        while out.len() < n {
            let mut batches = Batches::new(&data, self.spec.batch, self.seed + self.epoch);
            self.epoch += 1;
            while out.len() < n {
                let start = Instant::now();
                let unit = rec.map(|r| {
                    let mut r = r.borrow_mut();
                    r.set_unit(unit_base + out.len() as u64);
                    r.open("unit", String::new())
                });
                let next = phase(rec, "data.batch", || batches.next());
                let Some((images, labels)) = next else {
                    if let (Some(r), Some(id)) = (rec, unit) {
                        r.borrow_mut().close(id);
                    }
                    break;
                };
                let before = self.fallbacks();
                let (finite, stepped) = self.step(images, &labels, rec);
                if let (Some(r), Some(id)) = (rec, unit) {
                    r.borrow_mut().close(id);
                }
                out.push(UnitSample {
                    ms: start.elapsed().as_secs_f64() * 1e3,
                    calib_ms: if self.calibrate {
                        crate::host::calibration_ms()
                    } else {
                        0.0
                    },
                    failed: !finite || self.fallbacks() != before,
                    skipped: !stepped,
                });
            }
        }
        out
    }

    /// One training step, call for call what the trainer's loop body
    /// does. Returns `(loss is finite, optimizer stepped)`.
    fn step(
        &mut self,
        images: Tensor,
        labels: &[usize],
        rec: Option<&Rc<RefCell<Recorder>>>,
    ) -> (bool, bool) {
        phase(rec, "nn.zero_grad", || {
            for p in &self.params {
                p.zero_grad();
            }
        });
        let mut g = Graph::with_backend(true, Rc::clone(&self.backend));
        let (loss, finite) = phase(rec, "nn.fwd", || {
            let x = g.input(images);
            let logits = self.model.forward(&mut g, x);
            let loss = g.cross_entropy(logits, labels);
            let finite = g.value(loss).item().is_finite();
            (loss, finite)
        });
        phase(rec, "nn.bwd", || g.backward(loss, self.scaler.scale()));
        let stepped = phase(rec, "nn.update", || {
            let stepped = self.scaler.unscale_or_skip(&self.params);
            if stepped {
                self.opt.step(&self.params);
            }
            stepped
        });
        phase(rec, "core.step_boundary", || self.backend.step_boundary());
        phase(rec, "nn.tape_drop", || drop(g));
        (finite, stepped)
    }
}

/// Runs `f` inside a span named `name` when a recorder is attached.
fn phase<T>(rec: Option<&Rc<RefCell<Recorder>>>, name: &str, f: impl FnOnce() -> T) -> T {
    let id = rec.map(|r| r.borrow_mut().open(name, String::new()));
    let out = f();
    if let (Some(r), Some(id)) = (rec, id) {
        r.borrow_mut().close(id);
    }
    out
}

/// Outcome of the prefix gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateOutcome {
    /// The step loop through the workload's backend reproduced the
    /// weight digest of `train_cnn_with_backend` on the CPU backend
    /// (mirror gate and backend gate in one comparison), with no CPU
    /// fallback.
    pub digest_ok: bool,
    /// One GEMM per distinct shape equalled `qgemm_reference`.
    pub reference_ok: bool,
    /// Distinct GEMM shapes checked against the reference.
    pub shapes_checked: usize,
    /// GEMM calls per step (exact).
    pub gemm_calls_per_unit: f64,
    /// Multiply-accumulates per step (exact).
    pub macs_per_unit: f64,
}

impl GateOutcome {
    /// All gates passed.
    pub fn ok(&self) -> bool {
        self.digest_ok && self.reference_ok
    }
}

/// Weight digest `train_cnn_with_backend` produces on the gate prefix
/// with the single-threaded CPU backend.
pub fn trainer_prefix_digest(spec: TrainSpec, seed: u64) -> u64 {
    let prec = spec.precision(seed);
    let train = spec.dataset(GATE_STEPS * spec.batch, seed);
    let test = spec.dataset(spec.batch, seed + 1);
    let model = spec.build_model(prec, seed);
    let mut opt = Sgd::new(0.02, 0.9, 0.0);
    train_cnn_with_backend(
        model.as_ref(),
        &mut opt,
        &train,
        &test,
        TrainConfig {
            epochs: 1,
            batch_size: spec.batch,
            loss_scale: LOSS_SCALE,
            seed,
        },
        Rc::new(CpuBackend::with_threads(1)),
    );
    digest_params(&model.parameters())
}

/// Runs the gates: the benchmark's step loop, through `backend`, on a
/// [`GATE_STEPS`]-step prefix must yield `reference_digest`; the first
/// GEMM of every distinct shape must equal `qgemm_reference` bit for
/// bit.
pub fn prefix_gates(
    spec: TrainSpec,
    seed: u64,
    reference_digest: u64,
    backend: Rc<dyn GemmBackend>,
    fpga: Option<Rc<FpgaBackend>>,
) -> GateOutcome {
    let timed = Rc::new(TimedBackend::new(backend));
    timed.set_capture(Capture::Distinct);
    let mut sess = Session::new(
        spec,
        seed,
        GATE_STEPS * spec.batch,
        spec.precision(seed),
        Rc::clone(&timed) as Rc<dyn GemmBackend>,
        fpga,
    );
    let units = sess.run_steps(GATE_STEPS, None, 0);
    let digest_ok = units.iter().all(|u| !u.failed) && sess.digest() == reference_digest;

    let distinct = timed.take_captured();
    let reference_ok = distinct.iter().all(|g| {
        let want = qgemm_reference(&g.a, &g.b, &g.cfg, 0, 0).expect("captured shapes conform");
        conformance::digest::bits_equal(&want, &g.out)
    });
    let (calls, macs) = timed.counts();
    GateOutcome {
        digest_ok,
        reference_ok,
        shapes_checked: distinct.len(),
        gemm_calls_per_unit: calls as f64 / GATE_STEPS as f64,
        macs_per_unit: macs as f64 / GATE_STEPS as f64,
    }
}

/// Result of the repeated set-up.
pub struct SetupOutcome<T> {
    /// What the last repetition built, warmed up and ready to be timed.
    pub built: T,
    /// Wall seconds each repetition took.
    pub wall_s: Vec<f64>,
    /// The same, at the reference host speed.
    pub setup_s: Vec<f64>,
}

/// Repetitions of set-up in one run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Calibration reps taken before and after each set-up repetition.
pub const SETUP_CALIBRATION_REPS: usize = 3;

/// Runs `build` `reps` times, each bracketed by calibration reps that
/// scale its seconds to the reference host speed, and keeps what the
/// last repetition built (the one before is dropped first, so two
/// never coexist).
pub fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> SetupOutcome<T> {
    let (mut wall_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let mut calibration = crate::host::calibrate(SETUP_CALIBRATION_REPS);
        let t = Instant::now();
        built = Some(build());
        let wall = t.elapsed().as_secs_f64();
        calibration.extend(crate::host::calibrate(SETUP_CALIBRATION_REPS));
        wall_s.push(wall);
        setup_s.push(wall / crate::host::slowdown(&calibration));
    }
    SetupOutcome {
        built: built.expect("at least one set-up repetition"),
        wall_s,
        setup_s,
    }
}

/// One set-up of a training workload: data synthesis, model and
/// backend build, warm-up steps (fills `OperandCache`, resolves SIMD
/// dispatch, faults in the allocator).
pub fn setup(spec: TrainSpec, seed: u64) -> Session {
    let (backend, fpga) = make_backend(spec.backend);
    let mut session = Session::with_backend(spec, seed, backend, fpga);
    session.run_steps(spec.warmup, None, 0);
    session
}

/// Exact simulated statistics of the timed steps; identical across
/// runs of one seed, so a simulator speed-up that changes any of them
/// is caught by `compare`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// Simulated pipelined hardware microseconds per unit.
    pub sim_hw_us_per_unit: f64,
    /// Simulated eager-schedule hardware microseconds per unit.
    pub sim_hw_eager_us_per_unit: f64,
    /// Operand packs per unit.
    pub packs_per_unit: f64,
    /// Bytes packed per unit.
    pub bytes_packed_per_unit: f64,
    /// Cache hits ÷ lookups.
    pub cache_hit_ratio: f64,
    /// CPU fallbacks (expected 0: no fault is armed).
    pub fallbacks: u64,
}

/// Snapshot of an FPGA backend's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpgaMark {
    pipelined_s: f64,
    eager_s: f64,
    hits: u64,
    misses: u64,
    packs: u64,
    bytes: u64,
}

impl FpgaMark {
    /// Reads the counters now.
    pub fn take(f: &FpgaBackend) -> Self {
        let c = f.cache_stats().unwrap_or_default();
        FpgaMark {
            pipelined_s: f.pipelined_elapsed_s(),
            eager_s: f.elapsed_s(),
            hits: c.hits,
            misses: c.misses,
            packs: c.packs,
            bytes: c.bytes_packed,
        }
    }

    /// Per-unit statistics accumulated since `self` over `units`.
    pub fn since(&self, f: &FpgaBackend, units: usize) -> SimCounts {
        let now = FpgaMark::take(f);
        let per = |x: f64| x / units as f64;
        let lookups = (now.hits - self.hits) + (now.misses - self.misses);
        SimCounts {
            sim_hw_us_per_unit: per((now.pipelined_s - self.pipelined_s) * 1e6),
            sim_hw_eager_us_per_unit: per((now.eager_s - self.eager_s) * 1e6),
            packs_per_unit: per((now.packs - self.packs) as f64),
            bytes_packed_per_unit: per((now.bytes - self.bytes) as f64),
            cache_hit_ratio: if lookups == 0 {
                0.0
            } else {
                (now.hits - self.hits) as f64 / lookups as f64
            },
            fallbacks: f.fallback_count(),
        }
    }
}

/// Units on either side whose calibration reps scale a unit.
const CALIBRATION_WINDOW: usize = 5;

/// Unit latencies at the reference host speed: each unit's wall
/// milliseconds ÷ the slowdown its neighbourhood's calibration reps
/// show (`reps[i]` was taken right after unit `i`).
pub fn normalise_units(wall_ms: &[f64], reps: &[f64]) -> Vec<f64> {
    wall_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| {
            let lo = i.saturating_sub(CALIBRATION_WINDOW);
            let hi = (i + CALIBRATION_WINDOW + 1).min(reps.len());
            ms / crate::host::slowdown(&reps[lo..hi])
        })
        .collect()
}

/// The timed part of an untraced run.
#[derive(Debug, Clone)]
pub struct TimedOutcome {
    /// One sample per timed step, in order.
    pub units: Vec<UnitSample>,
    /// Simulated statistics over the timed steps (FPGA workloads).
    pub sim: Option<SimCounts>,
}

impl TimedOutcome {
    /// Unit latencies as the wall clock saw them.
    pub fn wall_ms(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.ms).collect()
    }

    /// Unit latencies at the reference host speed.
    pub fn unit_ms(&self) -> Vec<f64> {
        let reps: Vec<f64> = self.units.iter().map(|u| u.calib_ms).collect();
        normalise_units(&self.wall_ms(), &reps)
    }
}

/// Seconds each of [`ROUNDS`] equal rounds spent in its units.
pub fn round_seconds(unit_ms: &[f64]) -> Vec<f64> {
    unit_ms
        .chunks(unit_ms.len() / ROUNDS)
        .map(|round| round.iter().sum::<f64>() / 1e3)
        .collect()
}

/// Records the three timed metrics from unit latencies and round
/// seconds at the reference host speed, and their wall-clock
/// counterparts as `wall.*` facts.
pub fn time_metrics(
    report: &mut Report,
    (unit_ms, round_s): (&[f64], &[f64]),
    (wall_ms, wall_round_s): (&[f64], &[f64]),
) {
    let per_round = unit_ms.len() / ROUNDS;
    report.metric("unit_ms_p50", stats::percentile(unit_ms, 0.5));
    report.metric("unit_ms_p90", stats::percentile(unit_ms, 0.9));
    report.metric("units_per_s", stats::units_per_s(round_s, per_round));
    report.fact(
        "wall.unit_ms_p50",
        Fact::F64(stats::percentile(wall_ms, 0.5)),
    );
    report.fact(
        "wall.unit_ms_p90",
        Fact::F64(stats::percentile(wall_ms, 0.9)),
    );
    report.fact(
        "wall.units_per_s",
        Fact::F64(stats::units_per_s(wall_round_s, per_round)),
    );
    report.fact(
        "host_slowdown",
        Fact::F64(wall_round_s.iter().sum::<f64>() / round_s.iter().sum::<f64>()),
    );
    report.fact("timed_units", Fact::U64(unit_ms.len() as u64));
}

/// Runs `total` timed steps in [`ROUNDS`] equal rounds, one
/// calibration rep after each step.
pub fn timed_rounds(sess: &mut Session, total: usize) -> TimedOutcome {
    let mark = sess.fpga().map(FpgaMark::take);
    sess.set_calibrate(true);
    let mut units = Vec::with_capacity(total);
    for _ in 0..ROUNDS {
        units.extend(sess.run_steps(total / ROUNDS, None, 0));
    }
    sess.set_calibrate(false);
    let sim = match (mark, sess.fpga()) {
        (Some(m), Some(f)) => Some(m.since(f, units.len())),
        _ => None,
    };
    TimedOutcome { units, sim }
}

/// Hex rendering of a digest (a fact, compared as a string so no bit
/// is lost to a JSON number).
pub fn hex(d: u64) -> String {
    conformance::digest::hex_digest(d)
}

/// Runs the gates for `spec` through `backend` (a fresh instance of
/// the workload's executor) and records their outcome and exact counts
/// on `report`; a failed gate makes the run incorrect.
pub fn run_gates(
    spec: TrainSpec,
    seed: u64,
    (backend, fpga): (Rc<dyn GemmBackend>, Option<Rc<FpgaBackend>>),
    report: &mut Report,
) -> GateOutcome {
    let t = Instant::now();
    let reference = trainer_prefix_digest(spec, seed);
    let gates = prefix_gates(spec, seed, reference, backend, fpga);
    report.correct &= gates.ok();
    report.fact("gate.digest_ok", Fact::Bool(gates.digest_ok));
    report.fact("gate.reference_ok", Fact::Bool(gates.reference_ok));
    report.fact(
        "gate.shapes_checked",
        Fact::U64(gates.shapes_checked as u64),
    );
    report.fact("gate.prefix_digest", Fact::Str(hex(reference)));
    report.fact("gates_s", Fact::F64(t.elapsed().as_secs_f64()));
    report.fact(
        "exact.arith.gemm_calls_per_unit",
        Fact::F64(gates.gemm_calls_per_unit),
    );
    report.fact("exact.arith.macs_per_unit", Fact::F64(gates.macs_per_unit));
    gates
}

/// Records the exact simulated statistics as facts.
pub fn sim_facts(sim: &SimCounts, report: &mut Report) {
    report.fact(
        "exact.fpga.sim_hw_us_per_unit",
        Fact::F64(sim.sim_hw_us_per_unit),
    );
    report.fact("exact.fpga.packs_per_unit", Fact::F64(sim.packs_per_unit));
    report.fact("exact.fpga.cache_hit_ratio", Fact::F64(sim.cache_hit_ratio));
    report.fact("exact.fpga.fallbacks", Fact::U64(sim.fallbacks));
}

/// An untraced run: gates, repeated set-up, then the timed rounds on
/// the pure path (no decorator, no recorder).
pub fn run_untraced(spec: TrainSpec, seed: u64, seconds: u64) -> Report {
    let mut report = Report::new(spec.name, seed, false);
    run_gates(spec, seed, make_backend(spec.backend), &mut report);

    let SetupOutcome {
        built: mut session,
        wall_s,
        setup_s,
    } = repeat_setup(SETUP_REPS, || setup(spec, seed));
    let total = timed_units(spec.units_per_second, seconds);
    let timed = timed_rounds(&mut session, total);

    report.attempted = timed.units.len() as u64;
    report.failed = timed.units.iter().filter(|u| u.failed).count() as u64;
    report.correct &= report.failed == 0;
    report.metric("setup_s", stats::median(&setup_s));
    report.fact("wall.setup_s", Fact::F64(stats::median(&wall_s)));
    let (unit_ms, wall_ms) = (timed.unit_ms(), timed.wall_ms());
    time_metrics(
        &mut report,
        (&unit_ms, &round_seconds(&unit_ms)),
        (&wall_ms, &round_seconds(&wall_ms)),
    );
    report.fact("warmup_units", Fact::U64(spec.warmup as u64));
    report.fact("batch", Fact::U64(spec.batch as u64));
    report.fact(
        "skipped_steps",
        Fact::U64(timed.units.iter().filter(|u| u.skipped).count() as u64),
    );
    report.fact("exact.final_digest", Fact::Str(hex(session.digest())));
    if let Some(sim) = &timed.sim {
        sim_facts(sim, &mut report);
    }
    report.metric("peak_rss_mb", crate::host::peak_rss_mb());
    report
}
