//! Unified execution device: CPU emulation or FPGA accelerator.
//!
//! Mirrors the paper's layer declaration (Fig. 3), where the user
//! designates `device='fpga'` to route a layer's GEMMs to the
//! accelerator. Both paths produce bit-identical results; the FPGA
//! path additionally reports its measured latency.
//!
//! [`Device::Fpga`] is a handle on the one FPGA launch route,
//! [`FpgaBackend`]: the same object answers single GEMMs here
//! ([`Device::execute_gemm`]) and, as [`Device::backend`], drives the
//! trainer. Its fault tolerance — per-site retry with backoff, then
//! degradation to the bit-identical CPU emulation path (latency then
//! reported as `None`) — is the backend's, so a training run survives
//! transient device faults with unchanged weights.

use mpt_arith::{default_threads, qgemm_parallel, CpuBackend, GemmBackend, QGemmConfig};
use mpt_faults::{FaultPlan, RetryPolicy};
use mpt_fpga::{Accelerator, ConfigError, FpgaBackend, MeasuredLatency, SaConfig, SynthesisDb};
use mpt_tensor::{ShapeError, Tensor};
use std::rc::Rc;

/// Where custom-precision GEMMs execute.
#[derive(Debug, Clone)]
pub enum Device {
    /// Bit-accurate software emulation on the host CPU.
    Cpu,
    /// The simulated FPGA accelerator. Shared (`Rc`): a cloned device
    /// and every [`Device::backend`] handle hit the same operand
    /// cache, launch queue, fault schedule and counters.
    Fpga(Rc<FpgaBackend>),
}

/// The accelerator `⟨n, m, c⟩` at the synthesis database's achieved
/// frequency.
fn accelerator(n: usize, m: usize, c: usize, db: &SynthesisDb) -> Result<Accelerator, ConfigError> {
    let cfg = SaConfig::new(n, m, c)?;
    db.validate(cfg)?;
    let freq = db
        .frequency(n, m, c)
        .expect("validated configuration has a frequency");
    Ok(Accelerator::new(cfg, freq))
}

impl Device {
    /// The SIMD tier the host-side emulation kernels dispatch to —
    /// `"off"`, `"avx2"` or `"avx512"`, selected once per process
    /// by `MPT_SIMD` (default `auto` = widest supported). Under
    /// `"avx2"` and `"avx512"` the MAC nest and the operand-slice
    /// quantizers run at 8 or 16 `f32` lanes where `f32` lanes carry
    /// their formats (every Table II configuration) and the scalar loops
    /// otherwise. Applies to both variants: the CPU device runs whole
    /// GEMMs through these kernels, and the FPGA device computes its
    /// simulated results and its bit-identical fallback through them.
    /// Purely informational — every tier produces the same bits.
    pub fn kernel_tier(&self) -> &'static str {
        mpt_formats::simd::active_tier().name()
    }

    /// Convenience constructor: an FPGA device with configuration
    /// `⟨n, m, c⟩` at the synthesis database's achieved frequency and
    /// a zero-byte operand cache ([`FpgaBackend::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or
    /// absent from the database.
    pub fn fpga(n: usize, m: usize, c: usize, db: &SynthesisDb) -> Result<Self, ConfigError> {
        let backend = FpgaBackend::new(accelerator(n, m, c, db)?);
        Ok(Device::Fpga(Rc::new(backend)))
    }

    /// [`Device::fpga`] with a fault schedule armed and an explicit
    /// retry policy — the production-service configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or
    /// absent from the database.
    pub fn fpga_with_faults(
        n: usize,
        m: usize,
        c: usize,
        db: &SynthesisDb,
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> Result<Self, ConfigError> {
        let backend = FpgaBackend::new(accelerator(n, m, c, db)?)
            .with_fault_plan(plan)
            .with_retry_policy(retry);
        Ok(Device::Fpga(Rc::new(backend)))
    }

    /// `true` for the FPGA device.
    pub fn is_fpga(&self) -> bool {
        matches!(self, Device::Fpga(_))
    }

    /// This device as the [`GemmBackend`] the trainer takes
    /// (`train_cnn_with_backend`, `Graph::with_backend`): the paper's
    /// `device=` value is what drives training. The FPGA variant hands
    /// out its shared backend, so launches made through it show up in
    /// this device's counters.
    pub fn backend(&self) -> Rc<dyn GemmBackend> {
        match self {
            Device::Cpu => Rc::new(CpuBackend::new()),
            Device::Fpga(backend) => Rc::clone(backend) as Rc<dyn GemmBackend>,
        }
    }

    /// Marks a training-step boundary: an FPGA device drains its
    /// launch queue here; otherwise a no-op.
    pub fn step_boundary(&self) {
        if let Device::Fpga(backend) = self {
            backend.step_boundary();
        }
    }

    /// Executes one custom-precision GEMM on this device. The FPGA
    /// path also returns its measured latency; a launch that degraded
    /// to the CPU fallback reports `None` (no hardware time was
    /// spent).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for non-conforming operands. Injected
    /// transient faults are never surfaced as errors — they are
    /// retried with exponential backoff and, past the budget,
    /// absorbed by the bit-identical CPU fallback.
    pub fn execute_gemm(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<(Tensor, Option<MeasuredLatency>), ShapeError> {
        match self {
            Device::Cpu => Ok((qgemm_parallel(a, b, cfg, default_threads())?, None)),
            Device::Fpga(backend) => backend.gemm_timed(a, b, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands() -> (Tensor, Tensor, QGemmConfig) {
        (
            Tensor::from_fn(vec![9, 14], |i| ((i * 31 % 19) as f32 - 9.0) * 0.11),
            Tensor::from_fn(vec![14, 5], |i| ((i * 17 % 23) as f32 - 11.0) * 0.07),
            QGemmConfig::fp8_fp12_sr().with_seed(42),
        )
    }

    #[test]
    fn cpu_and_fpga_agree_bitwise() {
        let db = SynthesisDb::u55();
        let cpu = Device::Cpu;
        let fpga = Device::fpga(4, 4, 2, &db).unwrap();
        assert!(fpga.is_fpga());
        assert!(!cpu.is_fpga());
        let (a, b, cfg) = operands();
        let (rc, lc) = cpu.execute_gemm(&a, &b, &cfg).unwrap();
        let (rf, lf) = fpga.execute_gemm(&a, &b, &cfg).unwrap();
        assert_eq!(rc, rf, "device changed the numerical result");
        assert!(lc.is_none());
        assert!(lf.unwrap().total_s > 0.0);
        assert_eq!(cpu.backend().gemm(&a, &b, &cfg).unwrap(), rc);
    }

    #[test]
    fn exhausted_device_falls_back_to_cpu_without_latency() {
        use mpt_faults::{FaultSite, Trigger};
        let db = SynthesisDb::u55();
        let plan = FaultPlan::new(1).with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(2));
        let dev = Device::fpga_with_faults(4, 4, 2, &db, plan, RetryPolicy::no_delay(2)).unwrap();
        let (a, b, cfg) = operands();
        let (want, _) = Device::Cpu.execute_gemm(&a, &b, &cfg).unwrap();
        let (first, lat1) = dev.execute_gemm(&a, &b, &cfg).unwrap();
        assert_eq!(first, want);
        assert!(lat1.is_some());
        let (second, lat2) = dev.execute_gemm(&a, &b, &cfg).unwrap();
        assert_eq!(second, want, "CPU fallback must be bit-identical");
        assert!(lat2.is_none(), "degraded launch spends no hardware time");
        let Device::Fpga(backend) = &dev else {
            unreachable!()
        };
        assert_eq!(backend.fallback_count(), 1);
    }

    #[test]
    fn pipelined_device_is_bit_identical_and_caches_repeats() {
        let db = SynthesisDb::u55();
        let backend = FpgaBackend::new(accelerator(4, 4, 2, &db).unwrap()).pipelined();
        let dev = Device::Fpga(Rc::new(backend));
        let (a, b, cfg) = operands();
        let (want, _) = Device::Cpu.execute_gemm(&a, &b, &cfg).unwrap();
        // The handle and the trainer-facing backend are one object:
        // launches through either warm the same cache and land in the
        // same counters.
        let trainer = dev.backend();
        let (cold, lat) = dev.execute_gemm(&a, &b, &cfg).unwrap();
        assert_eq!(cold, want, "pipelined path changed the result");
        assert!(lat.expect("hardware ran").total_s > 0.0);
        assert_eq!(trainer.gemm(&a, &b, &cfg).unwrap(), want);
        assert_eq!(dev.clone().execute_gemm(&a, &b, &cfg).unwrap().0, want);
        let Device::Fpga(backend) = &dev else {
            unreachable!()
        };
        assert_eq!(backend.gemm_count(), 3);
        let stats = backend.cache_stats().unwrap();
        assert_eq!(stats.misses, 2, "one cold pack per operand");
        assert_eq!(stats.hits, 4, "two warm launches hit both operands");
        let overlapped = backend.pipelined_elapsed_s();
        assert!(overlapped > 0.0 && overlapped <= backend.elapsed_s());
        trainer.step_boundary();
        dev.step_boundary();
        assert_eq!(
            backend.pipelined_elapsed_s(),
            overlapped,
            "drained, not lost"
        );
    }

    #[test]
    fn fpga_constructor_validates_against_db() {
        let db = SynthesisDb::u55();
        assert!(Device::fpga(8, 8, 10, &db).is_ok());
        assert!(Device::fpga(16, 16, 8, &db).is_err()); // beyond c_max
        assert!(Device::fpga(3, 3, 1, &db).is_err()); // invalid shape
    }
}
