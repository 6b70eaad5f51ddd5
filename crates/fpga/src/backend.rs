//! [`GemmBackend`] implementation: training through the accelerator.
//!
//! Wrapping an [`Accelerator`] as [`FpgaBackend`] lets the `mpt-nn`
//! tape execute every quantized GEMM of a training step on the
//! simulated hardware — the paper's `device='fpga'` — while
//! accumulating the measured latency of each launch. Functional
//! results stay bit-identical to the CPU path.
//!
//! There is one launch route, [`FpgaBackend::gemm_timed`]: every
//! launch is staged through the backend's one [`PipelinedExecutor`]
//! — whose operand cache holds nothing under [`FpgaBackend::new`] and
//! [`DEFAULT_CACHE_BUDGET`] after [`FpgaBackend::pipelined`] — walks
//! the fault gates of [`crate::resilient`] under the backend's
//! [`Injector`], and — if a gate exhausted its retry budget — degrades
//! to the bit-identical CPU emulation kernel, so training completes
//! with the same weights as a fault-free run. A backend that was never
//! armed follows the empty [`FaultPlan`]: same route, and its gates
//! never fire.

use crate::cache::{CacheStats, DEFAULT_CACHE_BUDGET};
use crate::perf::estimate_gemm;
use crate::pipeline::PipelinedExecutor;
use crate::resilient::degrade;
use crate::sim::{Accelerator, MeasuredLatency};
use mpt_arith::{gemm_span, GemmBackend, GemmShape, QGemmConfig};
use mpt_faults::{FaultPlan, Injector, RetryPolicy};
use mpt_telemetry::{record_calibration, CalibrationRecord, SpanField};
use mpt_tensor::{ShapeError, Tensor};
use std::cell::{Cell, RefCell};

/// A GEMM backend that executes on the simulated FPGA accelerator and
/// keeps a running account of measured hardware time.
///
/// # Example
///
/// ```
/// use mpt_fpga::{Accelerator, FpgaBackend, SaConfig};
/// use mpt_arith::{GemmBackend, QGemmConfig};
/// use mpt_tensor::Tensor;
///
/// let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2)?, 328.4));
/// let a = Tensor::ones(vec![3, 5]);
/// let b = Tensor::ones(vec![5, 2]);
/// backend.gemm(&a, &b, &QGemmConfig::fp8_fp12_sr())?;
/// assert_eq!(backend.gemm_count(), 1);
/// assert!(backend.elapsed_s() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FpgaBackend {
    accelerator: Accelerator,
    /// Stages, accounts and computes every hardware launch.
    executor: RefCell<PipelinedExecutor>,
    /// The empty plan until [`with_fault_plan`](Self::with_fault_plan).
    injector: Injector,
    retry: RetryPolicy,
    /// Degraded launches, which never reach the executor's accounting.
    fallbacks: Cell<u64>,
}

impl FpgaBackend {
    /// Wraps an accelerator under the empty fault plan and the default
    /// [`RetryPolicy`], with a zero-byte operand cache: nothing stays
    /// resident, so every launch packs and transfers its operands.
    pub fn new(accelerator: Accelerator) -> Self {
        FpgaBackend {
            executor: RefCell::new(PipelinedExecutor::new(accelerator.clone(), 0)),
            accelerator,
            injector: Injector::new(FaultPlan::new(0)),
            retry: RetryPolicy::default(),
            fallbacks: Cell::new(0),
        }
    }

    /// Gives the operand cache the [`DEFAULT_CACHE_BUDGET`]: reused
    /// operands are quantized + packed once. Functionally
    /// bit-identical to the zero-byte cache (asserted by the
    /// conformance suite).
    ///
    /// # Example
    ///
    /// ```
    /// use mpt_fpga::{Accelerator, FpgaBackend, SaConfig};
    /// use mpt_arith::{GemmBackend, QGemmConfig};
    /// use mpt_tensor::Tensor;
    ///
    /// let backend =
    ///     FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2)?, 328.4)).pipelined();
    /// let w = Tensor::ones(vec![5, 2]);
    /// let x = Tensor::ones(vec![3, 5]);
    /// backend.gemm(&x, &w, &QGemmConfig::fp8_fp12_sr())?;
    /// backend.gemm(&x, &w, &QGemmConfig::fp8_fp12_sr())?; // weight is resident now
    /// let stats = backend.cache_stats().unwrap();
    /// assert_eq!(stats.hits, 2); // second launch packs nothing
    /// backend.step_boundary(); // drain the queue at the step boundary
    /// assert!(backend.pipelined_elapsed_s() > 0.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn pipelined(mut self) -> Self {
        self.executor = RefCell::new(PipelinedExecutor::new(
            self.accelerator.clone(),
            DEFAULT_CACHE_BUDGET,
        ));
        self
    }

    /// Arms a deterministic fault schedule in place of the empty plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Injector::new(plan);
        self
    }

    /// Overrides the retry policy (attempts / backoff delays).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The wrapped accelerator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// The injector every launch consults (tests assert its tallies).
    /// Always `Some` — a backend that was never armed holds the empty
    /// plan; the `Option` is the signature existing callers compile
    /// against.
    pub fn injector(&self) -> Option<&Injector> {
        Some(&self.injector)
    }

    /// Total measured hardware time accumulated so far, seconds: the
    /// *eager-equivalent* account (Σ per-launch stage sums, the
    /// returned `total_s`); the overlapped figure is
    /// [`pipelined_elapsed_s`](Self::pipelined_elapsed_s).
    pub fn elapsed_s(&self) -> f64 {
        self.executor.borrow().eager_elapsed_s()
    }

    /// Operand-cache counters. Always `Some`, like
    /// [`injector`](Self::injector).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.executor.borrow().cache_stats())
    }

    /// Overlap-aware hardware time: drained queues plus the live one.
    pub fn pipelined_elapsed_s(&self) -> f64 {
        self.executor.borrow().pipelined_elapsed_s()
    }

    /// Number of GEMM launches the hardware ran so far.
    pub fn gemm_count(&self) -> usize {
        self.executor.borrow().launch_count()
    }

    /// Number of launches that degraded to the CPU path after
    /// exhausting their retry budget.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.get()
    }

    /// Resets the accumulated counters (not the injector's schedule;
    /// cached operands stay resident).
    pub fn reset(&self) {
        self.fallbacks.set(0);
        self.executor.borrow_mut().reset_accounting();
    }

    /// One GEMM with its measured hardware latency — the launch route
    /// behind [`GemmBackend::gemm`], which drops the latency: the
    /// executor's pack stage,
    /// fault gates (replays charged), accounting and compute, with
    /// telemetry. A launch whose gates exhausted a retry budget
    /// degrades to the CPU fallback and reports `None`: no hardware
    /// time was spent, and none is accounted.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for non-conforming operands. Injected
    /// faults are never surfaced as errors — they are retried and,
    /// past the budget, absorbed by the bit-identical CPU fallback.
    pub fn gemm_timed(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<(Tensor, Option<MeasuredLatency>), ShapeError> {
        let (inj, retry) = (&self.injector, &self.retry);
        let c = self.accelerator.config().c() as u64;
        let mut span = gemm_span("gemm:fpga", a, b, cfg, c);
        let launched = self
            .executor
            .borrow_mut()
            .launch_resilient(inj, retry, a, b, cfg)?;
        let Some((out, times, latency)) = launched else {
            drop(span);
            self.fallbacks.set(self.fallbacks.get() + 1);
            let out = degrade("fpga", inj.launch_count(), retry.max_attempts, a, b, cfg)?;
            return Ok((out, None));
        };
        if span.is_active() {
            let bottleneck_s = times.bottleneck_s();
            span.field(SpanField::F64("hw_total_s", latency.total_s))
                .field(SpanField::U64("hw_cycles", latency.core_cycles))
                .field(SpanField::F64("hw_bottleneck_s", bottleneck_s));
            self.calibrate(a, b, cfg, latency.total_s, bottleneck_s);
        }
        Ok((out, Some(latency)))
    }

    /// Per-GEMM perf-model calibration: the analytic model
    /// (Section IV-A) against what the simulator accounted, at the
    /// operand width the simulator itself uses — `L_total` and the
    /// bottleneck stage (cache effects and the PCIe efficiency gap
    /// included in "measured").
    fn calibrate(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
        total_s: f64,
        bottleneck_s: f64,
    ) {
        let (&[n, k], &[_, m]) = (a.shape(), b.shape()) else {
            return;
        };
        let bits = cfg.quant_a.format().bit_width();
        let (sa, freq) = (self.accelerator.config(), self.accelerator.freq_mhz());
        let model = estimate_gemm(GemmShape::new(n, k, m), sa, freq, bits, bits);
        let record = |context: &str, predicted_s: f64, measured_s: f64| {
            record_calibration(CalibrationRecord {
                context: context.into(),
                label: format!("{n}x{k}x{m}@{sa}"),
                predicted_s,
                measured_s,
            });
        };
        record("fpga_gemm", model.total_s, total_s);
        record("fpga_gemm_pipelined", model.bottleneck_s(), bottleneck_s);
    }
}

impl GemmBackend for FpgaBackend {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        self.gemm_timed(a, b, cfg).map(|(out, _)| out)
    }

    fn label(&self) -> String {
        let acc = &self.accelerator;
        format!("fpga{}@{:.1}MHz", acc.config(), acc.freq_mhz())
    }

    /// A training-step boundary drains the staged launch queue: the
    /// overlapped makespan moves into the accumulated total and the
    /// stages return to idle. The operand cache keeps its residents —
    /// updated weights re-key themselves by content.
    fn step_boundary(&self) {
        self.executor.borrow_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SaConfig;
    use mpt_arith::{qgemm, CpuBackend};

    #[test]
    fn matches_cpu_backend_bitwise() {
        let a = Tensor::from_fn(vec![9, 13], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
        let b = Tensor::from_fn(vec![13, 6], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(8);
        let fpga = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7));
        let cpu = CpuBackend::new();
        assert_eq!(
            fpga.gemm(&a, &b, &cfg).unwrap(),
            cpu.gemm(&a, &b, &cfg).unwrap()
        );
        assert_eq!(
            fpga.gemm(&a, &b, &cfg).unwrap(),
            qgemm(&a, &b, &cfg).unwrap()
        );
    }

    #[test]
    fn accounts_time_and_launches() {
        let a = Tensor::ones(vec![4, 4]);
        let b = Tensor::ones(vec![4, 4]);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(2, 2, 1).unwrap(), 320.1));
        for _ in 0..3 {
            backend.gemm(&a, &b, &cfg).unwrap();
        }
        assert_eq!(backend.gemm_count(), 3);
        assert!(backend.elapsed_s() > 0.0);
        backend.reset();
        assert_eq!(backend.gemm_count(), 0);
        assert_eq!(backend.elapsed_s(), 0.0);
    }

    /// One account: the backend's elapsed time is the sum of the
    /// latencies its launches returned, bit for bit, and `reset`
    /// zeroes every figure — at the zero-byte and the default budget.
    #[test]
    fn elapsed_is_the_sum_of_launch_latencies() {
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
        let acc = || Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0);
        for backend in [FpgaBackend::new(acc()), FpgaBackend::new(acc()).pipelined()] {
            let mut sum = 0.0;
            for i in 0..5 {
                let a = Tensor::from_fn(vec![6 + i % 2, 9], |j| (j % 7) as f32 * 0.1);
                let b = Tensor::ones(vec![9, 4]);
                let (_, latency) = backend.gemm_timed(&a, &b, &cfg).unwrap();
                sum += latency.expect("fault-free launches run").total_s;
            }
            assert_eq!(backend.elapsed_s().to_bits(), sum.to_bits());
            assert_eq!(backend.gemm_count(), 5);
            backend.step_boundary();
            assert!(backend.pipelined_elapsed_s() > 0.0);
            backend.reset();
            assert_eq!(backend.gemm_count(), 0);
            assert_eq!(backend.elapsed_s(), 0.0);
            assert_eq!(backend.pipelined_elapsed_s(), 0.0);
        }
    }

    #[test]
    fn label_names_configuration() {
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 8, 4).unwrap(), 298.0));
        assert_eq!(backend.label(), "fpga<8,8,4>@298.0MHz");
    }

    #[test]
    fn pipelined_mode_matches_eager_bitwise() {
        let a = Tensor::from_fn(vec![9, 13], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
        let b = Tensor::from_fn(vec![13, 6], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(8);
        let eager = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7));
        let staged =
            FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7)).pipelined();
        for _ in 0..3 {
            assert_eq!(
                staged.gemm(&a, &b, &cfg).unwrap(),
                eager.gemm(&a, &b, &cfg).unwrap()
            );
        }
        let stats = staged.cache_stats().unwrap();
        assert_eq!(stats.misses, 2, "one pack per distinct operand");
        assert_eq!(stats.hits, 4, "launches 2..3 are fully resident");
        let stats = eager.cache_stats().unwrap();
        assert_eq!(
            (stats.misses, stats.hits),
            (6, 0),
            "zero bytes: every launch packs"
        );
        assert_eq!(staged.label(), eager.label(), "one launch mode, one label");
    }

    #[test]
    fn pipelined_step_boundary_drains_queue() {
        let a = Tensor::ones(vec![16, 16]);
        let b = Tensor::ones(vec![16, 16]);
        // with_seed gives A and B distinct SR streams, so the equal
        // carrier bits still occupy two cache entries.
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(1);
        let backend =
            FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0)).pipelined();
        for _ in 0..4 {
            backend.gemm(&a, &b, &cfg).unwrap();
        }
        let overlapped = backend.pipelined_elapsed_s();
        let eager = backend.elapsed_s();
        assert!(overlapped > 0.0 && overlapped < eager);
        backend.step_boundary();
        assert!((backend.pipelined_elapsed_s() - overlapped).abs() < 1e-15);
        // New step: the queue restarts from idle, cache stays warm.
        backend.gemm(&a, &b, &cfg).unwrap();
        assert_eq!(backend.cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn pipelined_faults_recover_bit_identically() {
        use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
        let a = Tensor::from_fn(vec![7, 11], |i| ((i * 17 % 23) as f32 - 11.0) * 0.06);
        let b = Tensor::from_fn(vec![11, 4], |i| ((i * 19 % 29) as f32 - 14.0) * 0.03);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let plan = FaultPlan::new(42)
            .with(FaultSite::LaunchTimeout, Trigger::EveryNth(2))
            .with(FaultSite::HbmCorruption, Trigger::EveryNth(3))
            .with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(5));
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 328.4))
            .pipelined()
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::no_delay(3));
        let want = qgemm(&a, &b, &cfg).unwrap();
        for _ in 0..6 {
            assert_eq!(backend.gemm(&a, &b, &cfg).unwrap(), want);
        }
        assert_eq!(backend.fallback_count(), 1, "sticky launch 5 degrades");
        let stats = backend.cache_stats().unwrap();
        assert_eq!(
            stats.packs, 2,
            "stage retries must never replay the pack stage"
        );
    }

    #[test]
    fn faulted_launches_recover_bit_identically() {
        use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
        let a = Tensor::from_fn(vec![9, 13], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
        let b = Tensor::from_fn(vec![13, 6], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(8);
        let plan = FaultPlan::new(42)
            .with(FaultSite::LaunchTimeout, Trigger::EveryNth(2))
            .with(FaultSite::HbmCorruption, Trigger::EveryNth(3))
            .with(FaultSite::BitstreamLoad, Trigger::AtLaunch(5));
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(8, 4, 3).unwrap(), 197.7))
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::no_delay(3));
        let want = qgemm(&a, &b, &cfg).unwrap();
        for _ in 0..6 {
            assert_eq!(backend.gemm(&a, &b, &cfg).unwrap(), want);
        }
        let inj = backend.injector().unwrap();
        // Each site has its own retry budget, so at launch 6 the HBM
        // fault and the timeout both fire and both retry clean. (This
        // count was 2 while the eager path shared one whole-launch
        // budget: the HBM fault's retry then skipped the timeout.)
        assert_eq!(inj.injected_at(FaultSite::LaunchTimeout), 3); // 2,4,6
        assert_eq!(inj.injected_at(FaultSite::HbmCorruption), 2); // 3,6
        assert_eq!(inj.injected_at(FaultSite::BitstreamLoad), 1); // 5
        assert_eq!(backend.fallback_count(), 0, "single faults retry clean");
    }

    /// The zero-byte and the default cache agree on which faults
    /// exist: an operand with no dense HBM image (block FP here) still
    /// has its transfer fault injected, tallied and retried at both
    /// budgets — there is just no image to corrupt.
    #[test]
    fn hbm_fault_on_imageless_operand_fires_in_both_modes() {
        use mpt_arith::MacConfig;
        use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
        use mpt_formats::{BlockFpFormat, Quantizer, Rounding};
        let bfp = Quantizer::new(BlockFpFormat::new(4, 16).unwrap(), Rounding::Nearest);
        let cfg = QGemmConfig::new(bfp, bfp, MacConfig::fp8_fp16_rn());
        let a = Tensor::from_fn(vec![9, 32], |i| ((i * 29 % 31) as f32 - 15.0) * 0.04);
        let b = Tensor::from_fn(vec![32, 6], |i| ((i * 23 % 29) as f32 - 14.0) * 0.05);
        let want = qgemm(&a, &b, &cfg).unwrap();
        let armed = || {
            FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 328.4))
                .with_fault_plan(
                    FaultPlan::new(5).with(FaultSite::HbmCorruption, Trigger::EveryNth(1)),
                )
                .with_retry_policy(RetryPolicy::no_delay(3))
        };
        for backend in [armed(), armed().pipelined()] {
            for _ in 0..4 {
                assert_eq!(
                    backend.gemm(&a, &b, &cfg).unwrap(),
                    want,
                    "{}",
                    backend.label()
                );
            }
            let inj = backend.injector().unwrap();
            assert_eq!(
                inj.injected_at(FaultSite::HbmCorruption),
                4,
                "{}",
                backend.label()
            );
            assert_eq!(backend.fallback_count(), 0);
            assert_eq!(backend.cache_stats().unwrap().images_built, 0);
        }
    }

    #[test]
    fn exhausted_retries_fall_back_to_cpu_bit_identically() {
        use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
        let a = Tensor::from_fn(vec![7, 11], |i| ((i * 17 % 23) as f32 - 11.0) * 0.06);
        let b = Tensor::from_fn(vec![11, 4], |i| ((i * 19 % 29) as f32 - 14.0) * 0.03);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let backend = FpgaBackend::new(Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 328.4))
            .with_fault_plan(
                FaultPlan::new(1).with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(2)),
            )
            .with_retry_policy(RetryPolicy::no_delay(3));
        let want = qgemm(&a, &b, &cfg).unwrap();
        for launch in 1..=3 {
            let (out, latency) = backend.gemm_timed(&a, &b, &cfg).unwrap();
            assert_eq!(out, want);
            // A degraded launch spent no hardware time.
            assert_eq!(latency.is_none(), launch == 2, "launch {launch}");
        }
        assert_eq!(backend.fallback_count(), 1, "launch 2 must degrade");
        assert_eq!(
            backend
                .injector()
                .unwrap()
                .injected_at(FaultSite::LaunchTransient),
            3,
            "sticky fault burns the whole budget"
        );
        assert_eq!(backend.gemm_count(), 2, "fallback is not a hardware launch");
    }
}
