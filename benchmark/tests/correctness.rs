//! The correctness gates must notice a single flipped bit: in a GEMM
//! the step loop consumes (weight digest), in a GEMM result against the
//! reference, and in a served reply.

use mpt_arith::{CpuBackend, GemmBackend, QGemmConfig};
use mpt_benchmark::report::Report;
use mpt_benchmark::serve::{self, Mix};
use mpt_benchmark::train::{
    self, accelerator, make_backend, run_gates, BackendKind, ModelKind, TrainSpec,
};
use mpt_fpga::{PipelinedExecutor, DEFAULT_CACHE_BUDGET};
use mpt_serving::{GemmService, ServeConfig};
use mpt_tensor::{ShapeError, Tensor};
use std::cell::Cell;
use std::rc::Rc;

/// LeNet at batch 2: the real loop and gates, small enough for a debug
/// build.
const TINY: TrainSpec = TrainSpec {
    name: "tiny",
    model: ModelKind::Lenet,
    backend: BackendKind::Cpu,
    batch: 2,
    samples: 8,
    warmup: 0,
    units_per_second: 1.0,
};

/// Flips one bit of one GEMM result's largest element (element 0 is
/// often an exact zero, where a mantissa flip makes a denormal that
/// every later rounding drops).
struct FlipOneBit {
    inner: CpuBackend,
    calls: Cell<usize>,
    flip_call: usize,
    bit: u32,
}

impl FlipOneBit {
    fn at(flip_call: usize, bit: u32) -> Rc<dyn GemmBackend> {
        Rc::new(FlipOneBit {
            inner: CpuBackend::with_threads(1),
            calls: Cell::new(0),
            flip_call,
            bit,
        })
    }
}

impl GemmBackend for FlipOneBit {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        let mut out = self.inner.gemm(a, b, cfg)?;
        let call = self.calls.get();
        self.calls.set(call + 1);
        if call == self.flip_call {
            let x = out
                .data_mut()
                .iter_mut()
                .max_by(|p, q| p.abs().total_cmp(&q.abs()))
                .expect("GEMM results are non-empty");
            *x = f32::from_bits(x.to_bits() ^ (1 << self.bit));
        }
        Ok(out)
    }
}

fn gates_with(backend: Rc<dyn GemmBackend>) -> (Report, train::GateOutcome) {
    let mut report = Report::new(TINY.name, 5, false);
    let gates = run_gates(TINY, 5, (backend, None), &mut report);
    (report, gates)
}

#[test]
fn the_honest_backends_pass_every_gate() {
    let (report, gates) = gates_with(make_backend(BackendKind::Cpu).0);
    assert!(gates.digest_ok && gates.reference_ok);
    assert!(gates.shapes_checked >= 10, "LeNet has 15 GEMMs a step");
    assert_eq!(gates.gemm_calls_per_unit, 15.0);
    assert!(report.correct);
    assert!(report.result_line().starts_with("{\"correct\":true,"));

    // The backend gate: the simulator reproduces the CPU digest.
    let (backend, fpga) = make_backend(BackendKind::FpgaPipelined);
    let mut report = Report::new(TINY.name, 5, false);
    let gates = run_gates(TINY, 5, (backend, fpga), &mut report);
    assert!(gates.ok() && report.correct);
}

/// GEMM calls per LeNet step: 5 forward, then 2 per layer backward.
const CALLS_PER_STEP: usize = 15;
/// The first backward GEMM of a step (a `dX`; ReLU's backward mask may
/// drop a change to it) and the weight-gradient GEMMs of the three
/// fully connected layers, which feed the optimizer directly.
const FIRST_BACKWARD: usize = 5;
const WEIGHT_GRADIENTS: [usize; 3] = [6, 8, 10];
/// The top mantissa bit: one bit, but a change no rounding absorbs.
const TOP_MANTISSA_BIT: u32 = 22;

#[test]
fn one_flipped_bit_in_the_step_loop_sets_correct_false() {
    // The lowest bit of one result in the first step: FP8 rounding
    // downstream may absorb it, but the bit-for-bit reference check on
    // that GEMM cannot.
    let (report, gates) = gates_with(FlipOneBit::at(FIRST_BACKWARD, 0));
    assert!(
        !gates.reference_ok,
        "the GEMM no longer equals qgemm_reference"
    );
    assert!(!report.correct);
    assert!(report.result_line().starts_with("{\"correct\":false,"));

    // One high bit in a later step: every reference check (first step
    // only) still passes, and the weight digest catches it.
    for call in WEIGHT_GRADIENTS {
        let (report, gates) = gates_with(FlipOneBit::at(CALLS_PER_STEP + call, TOP_MANTISSA_BIT));
        assert!(gates.reference_ok);
        assert!(
            !gates.digest_ok,
            "call {call}: the weight digest must differ"
        );
        assert!(!report.correct);
    }
}

#[test]
fn the_weight_digest_sees_the_lowest_bit_of_one_weight() {
    let (backend, fpga) = make_backend(BackendKind::Cpu);
    let sess = train::Session::with_backend(TINY, 5, backend, fpga);
    let before = sess.digest();
    {
        let mut w = sess.params()[3].value_mut();
        let x = &mut w.data_mut()[0];
        *x = f32::from_bits(x.to_bits() ^ 1);
    }
    assert_ne!(sess.digest(), before);
}

#[test]
fn one_flipped_bit_in_a_served_reply_sets_correct_false() {
    let executor = PipelinedExecutor::new(accelerator(), DEFAULT_CACHE_BUDGET);
    let service = GemmService::start(ServeConfig::default(), executor, None);
    let mut mix = Mix::new(9);
    let load = serve::closed_loop(&service.handle(), &mut mix, serve::CHECK_EVERY as usize);
    service.shutdown();
    assert_eq!(load.samples.len(), serve::CHECK_EVERY as usize);
    assert!(load.samples.iter().all(|s| !s.failed));
    assert_eq!(load.checked.len(), 1, "every 16th reply is kept");

    let mut report = Report::new("serve_closed", 9, false);
    serve::check_replies(&mut report, &load.checked);
    assert!(
        report.correct,
        "the service's reply equals qgemm bit for bit"
    );

    let mut tampered = load.checked.clone();
    let x = &mut tampered[0].out.data_mut()[17];
    *x = f32::from_bits(x.to_bits() ^ 1);
    assert_eq!(serve::mismatches(&tampered), 1);
    let mut report = Report::new("serve_closed", 9, false);
    serve::check_replies(&mut report, &tampered);
    assert!(!report.correct);
    assert!(report.result_line().starts_with("{\"correct\":false,"));
    assert_ne!(
        serve::reply_digest(&tampered),
        serve::reply_digest(&load.checked)
    );
}
