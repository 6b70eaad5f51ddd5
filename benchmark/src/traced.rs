//! The traced run of a training workload: phase spans around each
//! call in the step loop, one span per GEMM, replays of one step's
//! GEMMs through each layer's public functions, and the short side
//! phases (FP32 model, eager FPGA, inert fault plan, telemetry on)
//! whose ratios to the plain step are per-layer metrics.

use crate::layers::{self, median_ms, time_ms};
use crate::report::{Fact, Report};
use crate::spans::Recorder;
use crate::stats;
use crate::train::{
    make_backend, normalise_units, run_gates, sim_facts, BackendKind, Capture, FpgaMark, ModelKind,
    Session, TimedBackend, TrainSpec, UnitSample,
};
use mpt_arith::{CpuBackend, GemmBackend};
use mpt_core::evaluate_cnn_with_backend;
use mpt_faults::FaultPlan;
use mpt_fpga::FpgaBackend;
use mpt_nn::GemmPrecision;
use mpt_tensor::{col2im, im2col, Conv2dGeometry, Tensor};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;

/// Traced steps (and as many plain steps interleaved with them).
pub const TRACED_UNITS: usize = 32;
/// Steps of each side phase.
const SIDE_UNITS: usize = 8;
/// Test images the evaluation measurement classifies.
const EVAL_SAMPLES: usize = 64;

/// A convolution of the model as `im2col`/`col2im` see it:
/// `(input channels, kernel, stride, padding, input height = width)`.
type ConvSpec = (usize, usize, usize, usize, usize);

const LENET_CONVS: [ConvSpec; 2] = [(1, 5, 1, 2, 28), (6, 5, 1, 0, 14)];
const RESNET16_CONVS: [ConvSpec; 9] = [
    (3, 3, 1, 1, 16),
    (8, 3, 1, 1, 16),
    (8, 3, 1, 1, 16),
    (8, 3, 2, 1, 16),
    (16, 3, 1, 1, 8),
    (8, 1, 2, 0, 16),
    (16, 3, 2, 1, 8),
    (32, 3, 1, 1, 4),
    (16, 1, 2, 0, 8),
];

/// The convolutions of each model, in forward order. The replay
/// checks every entry against the captured step (an `im2col` output
/// must be the right operand of one of its GEMMs), so a change to a
/// model that this list misses makes the run incorrect, not silently
/// wrong.
fn conv_specs(model: ModelKind) -> &'static [ConvSpec] {
    match model {
        ModelKind::Lenet => &LENET_CONVS,
        ModelKind::Resnet16 => &RESNET16_CONVS,
    }
}

/// `(im2col ms, col2im ms, specs match the captured step)` for one
/// step: each convolution unfolds twice (forward, backward) and folds
/// once.
fn conv_replay(spec: TrainSpec, step: &[crate::train::CapturedGemm]) -> (f64, f64, bool) {
    let mut inputs = Vec::new();
    let mut matched = true;
    for &(in_c, kernel, stride, padding, hw) in conv_specs(spec.model) {
        let geom = Conv2dGeometry::new(hw, hw, kernel, kernel, stride, padding)
            .expect("model convolutions are well-formed");
        let x = Tensor::from_fn(vec![spec.batch, in_c, hw, hw], |i| {
            ((i * 31 % 37) as f32 - 18.0) * 0.03
        });
        let cols = im2col(&x, &geom).expect("input matches geometry");
        matched &= step.iter().any(|g| g.b.shape() == cols.shape());
        inputs.push((x, cols, geom, in_c));
    }
    let im2col_ms = median_ms(3, || {
        for (x, _, geom, _) in &inputs {
            black_box(im2col(x, geom).expect("input matches geometry"));
            black_box(im2col(x, geom).expect("input matches geometry"));
        }
    });
    let col2im_ms = median_ms(3, || {
        for (_, cols, geom, in_c) in &inputs {
            black_box(col2im(cols, spec.batch, *in_c, geom).expect("cols match geometry"));
        }
    });
    (im2col_ms, col2im_ms, matched)
}

/// Median step of `units` at the reference host speed. Phases
/// minutes apart are compared below, and the host does not hold its
/// speed that long; every unit here carries its calibration rep.
fn normalised_p50(units: &[UnitSample]) -> f64 {
    let wall: Vec<f64> = units.iter().map(|u| u.ms).collect();
    let reps: Vec<f64> = units.iter().map(|u| u.calib_ms).collect();
    stats::percentile(&normalise_units(&wall, &reps), 0.5)
}

/// Median step of a short side phase on its own session: two warm-up
/// steps, then [`SIDE_UNITS`] timed.
fn side_phase_p50(mut sess: Session) -> f64 {
    sess.run_steps(2, None, 0);
    sess.set_calibrate(true);
    normalised_p50(&sess.run_steps(SIDE_UNITS, None, 0))
}

/// Where the checkpoint measurement writes (and removes) its file:
/// the benchmark's own `out/` directory.
fn scratch_checkpoint() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("checkpoint-{}.bin", std::process::id()))
}

/// The traced run of `spec`.
pub fn run_traced(spec: TrainSpec, seed: u64) -> (Report, Recorder) {
    let mut report = Report::new(spec.name, seed, true);
    let gates = run_gates(spec, seed, make_backend(spec.backend), &mut report);
    let on_fpga = spec.backend != BackendKind::Cpu;

    // Set-up as in the untraced run, with the decorator in between.
    let (inner, fpga) = make_backend(spec.backend);
    let timed = Rc::new(TimedBackend::new(inner));
    let mut session =
        Session::with_backend(spec, seed, Rc::clone(&timed) as Rc<dyn GemmBackend>, fpga);
    session.run_steps(spec.warmup, None, 0);
    let rec = Rc::new(RefCell::new(Recorder::new()));

    // Plain and traced steps alternate one by one, so both see the
    // same host; every step is followed by a calibration rep.
    session.set_calibrate(true);
    let mark = session.fpga().map(FpgaMark::take);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for unit in 0..TRACED_UNITS {
        timed.set_recorder(None);
        // The step the replays re-run comes from the middle of the
        // traced stretch: step time drifts as training sparsifies the
        // operands (the kernels skip zero rows), so a step from either
        // end would not stand for the median unit.
        if unit == TRACED_UNITS / 2 {
            timed.set_capture(Capture::All);
        }
        plain.extend(session.run_steps(1, None, 0));
        timed.set_capture(Capture::Off);
        timed.set_recorder(Some(Rc::clone(&rec)));
        traced.extend(session.run_steps(1, Some(&rec), unit as u64));
    }
    session.set_calibrate(false);
    timed.set_recorder(None);
    let step = timed.take_captured();
    let sim = match (mark, session.fpga()) {
        (Some(m), Some(f)) => Some(m.since(f, plain.len() + traced.len())),
        _ => None,
    };

    report.attempted = traced.len() as u64;
    report.failed = traced.iter().chain(&plain).filter(|u| u.failed).count() as u64;
    report.correct &= report.failed == 0;

    // Span-derived metrics, per traced unit.
    let units = traced.len() as f64;
    // The plain step every ratio below is taken against.
    let plain_p50 = normalised_p50(&plain);
    let wall_p50 = |units: &[UnitSample]| {
        stats::percentile(&units.iter().map(|u| u.ms).collect::<Vec<_>>(), 0.5)
    };
    {
        let r = rec.borrow();
        // Every span-derived figure is the median over traced units
        // of that unit's total for the name.
        let per_unit = |name: &str| stats::median(&r.per_unit_ms(name, false));
        let unit_ms = per_unit("unit");
        let gemm_ms = per_unit("gemm");
        let batch_ms = per_unit("data.batch");
        let boundary_ms = per_unit("core.step_boundary");
        let nn_phases = [
            "nn.zero_grad",
            "nn.fwd",
            "nn.bwd",
            "nn.update",
            "nn.tape_drop",
        ];
        let nn_self_ms: f64 = nn_phases
            .iter()
            .map(|p| stats::median(&r.per_unit_ms(p, true)))
            .sum();

        let replay = layers::replay_gemms(&step, &[], &|| make_backend(spec.backend).0, on_fpga);
        layers::report_replay(&mut report, &replay, 1.0, on_fpga);
        let (im2col_ms, col2im_ms, convs_match) = conv_replay(spec, &step);
        report.correct &= convs_match;
        report.fact("gate.conv_specs_match", Fact::Bool(convs_match));

        report.metric("nn.fwd_ms_per_unit", per_unit("nn.fwd"));
        report.metric("nn.bwd_ms_per_unit", per_unit("nn.bwd"));
        report.metric("nn.update_ms_per_unit", per_unit("nn.update"));
        let nn_only_ms = nn_self_ms - im2col_ms - col2im_ms;
        report.metric("nn.self_ms_per_unit", nn_only_ms);
        report.metric("tensor.im2col_ms_per_unit", im2col_ms);
        report.metric("tensor.col2im_ms_per_unit", col2im_ms);
        report.metric("data.batch_ms_per_unit", batch_ms);
        report.metric("core.step_boundary_ms_per_unit", boundary_ms);
        if on_fpga {
            report.metric("fpga.gemm_ms_per_unit", gemm_ms);
        } else {
            report.metric("arith.gemm_ms_per_unit", gemm_ms);
            if spec.model == ModelKind::Resnet16 {
                // FXP takes the scalar `gemm_generic`/`mac_step` path.
                report.metric(
                    "arith.generic_mmac_per_s",
                    replay.macs as f64 / (replay.kernel_ms * 1e3),
                );
            }
        }
        // Two residuals make up the unaccounted time: what the phase
        // spans leave of the unit (its self time), and what the
        // replayed pieces leave of the same GEMMs through the backend.
        let unit_self_ms = stats::median(&r.per_unit_ms("unit", true));
        let unaccounted_ms = unit_self_ms + replay.unexplained_ms;
        report.metric("budget.unit_ms_traced", unit_ms);
        report.metric("budget.unaccounted_pct", 100.0 * unaccounted_ms / unit_ms);
        report.fact("replay.backend_gemm_ms", Fact::F64(replay.backend_ms));
        report.fact("replay.unexplained_ms", Fact::F64(replay.unexplained_ms));
        report.metric("budget.units_traced", units);
        report.metric("telemetry.spans_recorded", r.spans().len() as f64);
    }
    report.metric("arith.gemm_calls_per_unit", gates.gemm_calls_per_unit);
    report.metric("arith.macs_per_unit", gates.macs_per_unit);
    report.metric(
        "telemetry.bench_trace_overhead_pct",
        100.0 * (wall_p50(&traced) - wall_p50(&plain)) / wall_p50(&plain),
    );
    report.fact("plain_unit_ms_p50", Fact::F64(plain_p50));

    if let Some(sim) = &sim {
        sim_facts(sim, &mut report);
        report.metric("fpga.cache_hit_ratio", sim.cache_hit_ratio);
        report.metric("fpga.packs_per_unit", sim.packs_per_unit);
        report.metric("fpga.bytes_packed_per_unit", sim.bytes_packed_per_unit);
        report.metric("fpga.sim_hw_us_per_unit", sim.sim_hw_us_per_unit);
        report.metric(
            "fpga.sim_hw_eager_us_per_unit",
            sim.sim_hw_eager_us_per_unit,
        );
        report.metric(
            "fpga.overlap_gain_x",
            sim.sim_hw_eager_us_per_unit / sim.sim_hw_us_per_unit,
        );
        report.metric("fpga.fallbacks", sim.fallbacks as f64);
        report.metric(
            "fpga.sim_slowdown_x",
            report.metrics["fpga.gemm_ms_per_unit"] * 1e3 / sim.sim_hw_us_per_unit,
        );
        // Modeled stage occupancy of one step's launches.
        let mut px = mpt_fpga::PipelinedExecutor::new(
            crate::train::accelerator(),
            mpt_fpga::DEFAULT_CACHE_BUDGET,
        );
        for g in &step {
            px.launch(&g.a, &g.b, &g.cfg)
                .expect("captured shapes conform");
        }
        let busy = px.stage_busy_s();
        report.metric(
            "fpga.stage_busy_share.compute",
            busy[2] / busy.iter().sum::<f64>(),
        );
    }

    // Telemetry switched on inside the crates.
    mpt_telemetry::enable();
    session.set_calibrate(true);
    let enabled_p50 = normalised_p50(&session.run_steps(SIDE_UNITS, None, 0));
    session.set_calibrate(false);
    mpt_telemetry::disable();
    mpt_telemetry::reset();
    report.metric(
        "telemetry.enabled_overhead_pct",
        100.0 * (enabled_p50 - plain_p50) / plain_p50,
    );

    // Off the timed path: evaluation, checkpointing, model facts.
    let test = spec.dataset(EVAL_SAMPLES, seed + 1);
    let (_, eval_ms) = time_ms(|| {
        evaluate_cnn_with_backend(session.model(), &test, spec.batch, session.backend())
    });
    report.metric("core.eval_ms_per_sample", eval_ms / EVAL_SAMPLES as f64);
    let ck = session.checkpoint();
    report.metric("core.checkpoint_bytes", ck.to_bytes().len() as f64);
    let path = scratch_checkpoint();
    let saved = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            let (result, ms) = time_ms(|| ck.save(&path));
            result.map(|()| ms).map_err(|e| e.to_string())
        });
    match saved {
        Ok(ms) => report.metric("core.checkpoint_save_ms", ms),
        Err(e) => {
            report.correct = false;
            report.fact("checkpoint_error", Fact::Str(e));
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(mpt_core::Checkpoint::previous_path(&path));
    report.metric("models.build_ms", session.build_ms);
    report.metric(
        "models.param_count",
        session.params().iter().map(|p| p.numel()).sum::<usize>() as f64,
    );
    drop(session);

    // The same model under FP32 on the CPU: QPyTorch's figure of merit.
    let fp32_p50 = side_phase_p50(Session::new(
        spec,
        seed,
        spec.samples,
        GemmPrecision::fp32(),
        Rc::new(CpuBackend::with_threads(1)),
        None,
    ));
    report.metric("nn.fp32_unit_ms", fp32_p50);
    report.metric("nn.emu_overhead_x", plain_p50 / fp32_p50);

    if on_fpga {
        let (backend, fpga) = make_backend(BackendKind::FpgaEager);
        let eager_p50 = side_phase_p50(Session::with_backend(spec, seed, backend, fpga));
        report.metric("fpga.eager_unit_ms", eager_p50);
        report.metric("fpga.pipelined_vs_eager_x", eager_p50 / plain_p50);

        // An injector that never fires: what carrying the fault layer
        // costs a launch when no fault is armed.
        let inert = Rc::new(
            FpgaBackend::new(crate::train::accelerator())
                .pipelined()
                .with_fault_plan(FaultPlan::new(seed)),
        );
        let inert_p50 = side_phase_p50(Session::with_backend(
            spec,
            seed,
            Rc::clone(&inert) as Rc<dyn GemmBackend>,
            Some(inert),
        ));
        report.metric(
            "faults.unarmed_overhead_pct",
            100.0 * (inert_p50 - plain_p50) / plain_p50,
        );
    }

    layers::shared_metrics(&mut report);
    let rec = Rc::try_unwrap(rec)
        .expect("the backend released its recorder")
        .into_inner();
    (report, rec)
}
