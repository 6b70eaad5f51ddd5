//! The fault-recovery policy: per-site retry gates, then graceful
//! degradation. This module is the only place that knows it.
//!
//! Every launch — trained or served, cached or not, armed or not —
//! claims its id from its wrapper's [`Injector`] and walks one gate
//! sequence (`pass_gates`) in launch order: bitstream load → HBM
//! transfer → launch timeout → transient launch error. Each site has
//! its own [`RetryPolicy`] budget, so a fault at one never masks or
//! spends the attempts of another. Fault-free is no separate route: it
//! is the empty [`FaultPlan`](mpt_faults::FaultPlan), whose gates cost
//! four [`Trigger::Never`](mpt_faults::Trigger::Never) reads.
//!
//! The HBM site is modeled concretely, but only when it fires: the
//! caller's closure yields the image that was in flight (packed from
//! the quantized `A` the launch already fetched through its operand
//! cache), the injector flips one byte, and the CRC-32 check on
//! arrival must catch it before the operand is re-sent. An operand
//! with no dense image (block FP, `NoRound`, f32 supersets) still
//! faults, is tallied and is re-sent — there is just nothing to
//! corrupt.
//!
//! A site that burns its whole budget sends the launch to [`degrade`],
//! the bit-identical CPU emulation kernel. Every path produces the
//! same bits, so recovery never perturbs training: a faulted run must
//! reproduce the fault-free golden weight digest (enforced by the
//! conformance chaos suite).

use crate::hbm::HbmImage;
use mpt_arith::{default_threads, gemm_span, qgemm_parallel, QGemmConfig};
use mpt_faults::{Fault, FaultSite, Injector, RetryPolicy};
use mpt_telemetry::json::Field;
use mpt_tensor::{ShapeError, Tensor};

/// The gated sites, in the order a launch meets them.
const GATES: [FaultSite; 4] = [
    FaultSite::BitstreamLoad,
    FaultSite::HbmCorruption,
    FaultSite::LaunchTimeout,
    FaultSite::LaunchTransient,
];

/// Extra passes a launch's replayable stages took to clear their
/// gates; the executor's accounting charges each one its stage time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Replays {
    /// HBM transfers re-sent after a CRC-caught corruption.
    pub transfer: u32,
    /// Kernels re-run after a timeout or transient launch error.
    pub compute: u32,
}

/// Claims the next launch id from `inj` and walks it through
/// [`GATES`]. At each site the attempts run until one comes back
/// clean; a faulted attempt emits its `fault` event (labelled
/// `layer`), backs off, and — at the HBM site — corrupts and
/// CRC-checks the image `in_flight` yields.
///
/// Returns the replays to charge, or `None` when some site faulted on
/// all `retry.max_attempts` attempts and the launch must [`degrade`].
pub(crate) fn pass_gates(
    inj: &Injector,
    retry: &RetryPolicy,
    layer: &'static str,
    mut in_flight: impl FnMut() -> Option<HbmImage>,
) -> Option<Replays> {
    let launch = inj.next_launch();
    let mut replays = Replays::default();
    for site in GATES {
        let cleared = (0..retry.max_attempts).any(|attempt| {
            let Some(fault) = inj.check(site, launch, attempt) else {
                return true;
            };
            emit_fault_event(&fault, layer);
            match site {
                FaultSite::HbmCorruption => {
                    if let Some(image) = in_flight() {
                        assert_crc_catches(inj, launch, image);
                    }
                    replays.transfer += 1;
                }
                FaultSite::LaunchTimeout | FaultSite::LaunchTransient => replays.compute += 1,
                _ => {}
            }
            retry.sleep(attempt);
            false
        });
        if !cleared {
            return None;
        }
    }
    Some(replays)
}

/// Flips one byte of `image` at the plan's deterministic position for
/// `launch` and checks the transfer the way the device does: the
/// CRC-32 verification on arrival has to reject it.
fn assert_crc_catches(inj: &Injector, launch: u64, mut image: HbmImage) {
    let (byte, mask) = inj.corruption(image.byte_size(), launch);
    image.corrupt_byte(byte, mask);
    assert!(
        image.unpack().is_err(),
        "CRC-32 must catch a corrupted transfer byte"
    );
}

/// Graceful degradation, the one way a GEMM leaves the FPGA path: the
/// `fallback` event and counter, a `gemm:fallback` span, and the
/// bit-identical CPU emulation kernel. `launch` is the id that gave
/// up after `attempts` tries per site (`0` attempts: it never reached
/// the device — the serving breaker's bypass). No hardware time is
/// accounted.
///
/// # Errors
///
/// Returns [`ShapeError`] for non-conforming operands.
pub fn degrade(
    layer: &'static str,
    launch: u64,
    attempts: u32,
    a: &Tensor,
    b: &Tensor,
    cfg: &QGemmConfig,
) -> Result<Tensor, ShapeError> {
    if mpt_telemetry::enabled() {
        mpt_telemetry::event(&[
            Field::Str("type", "fallback"),
            Field::Str("layer", layer),
            Field::U64("launch", launch),
            Field::U64("attempts", attempts as u64),
        ]);
    }
    let threads = default_threads();
    let _span = gemm_span("gemm:fallback", a, b, cfg, threads as u64);
    qgemm_parallel(a, b, cfg, threads)
}

/// Emits the `fault` telemetry event for one injected fault. No-op
/// when telemetry is disabled.
fn emit_fault_event(fault: &Fault, layer: &'static str) {
    if !mpt_telemetry::enabled() {
        return;
    }
    mpt_telemetry::event(&[
        Field::Str("type", "fault"),
        Field::Str("layer", layer),
        Field::Str("site", fault.site.name()),
        Field::U64("launch", fault.launch),
        Field::U64("attempt", fault.attempt as u64),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_arith::quantize_matrix;
    use mpt_faults::{FaultPlan, Trigger};
    use std::cell::Cell;

    fn operand() -> Tensor {
        Tensor::from_fn(vec![5, 7], |i| ((i * 13 % 17) as f32 - 8.0) * 0.1)
    }

    /// Runs one launch's gates under `inj` with an FP8 operand in
    /// flight; returns the outcome and how many images were built.
    fn gate(inj: &Injector, attempts: u32) -> (Option<Replays>, u32) {
        let a = operand();
        let q = QGemmConfig::fp8_fp12_sr().quant_a;
        let built = Cell::new(0);
        let out = pass_gates(inj, &RetryPolicy::no_delay(attempts), "test", || {
            built.set(built.get() + 1);
            HbmImage::pack(&quantize_matrix(&a, &q, 0, 0), q.format()).ok()
        });
        (out, built.get())
    }

    #[test]
    fn fault_free_plan_launches_first_try() {
        let inj = Injector::new(FaultPlan::new(0));
        assert_eq!(gate(&inj, 3), (Some(Replays::default()), 0));
        assert_eq!(inj.injected_count(), 0);
        assert_eq!(inj.launch_count(), 1);
    }

    #[test]
    fn transient_fault_recovers_on_retry() {
        let inj =
            Injector::new(FaultPlan::new(1).with(FaultSite::LaunchTransient, Trigger::EveryNth(1)));
        let (out, _) = gate(&inj, 3);
        assert_eq!(
            out.expect("retry recovers a first-attempt fault").compute,
            1
        );
        assert_eq!(inj.injected_at(FaultSite::LaunchTransient), 1);
    }

    #[test]
    fn sticky_fault_exhausts_budget() {
        let inj = Injector::new(
            FaultPlan::new(1).with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(1)),
        );
        assert!(gate(&inj, 3).0.is_none(), "sticky fault must degrade");
        assert_eq!(inj.injected_at(FaultSite::LaunchTimeout), 3);
    }

    #[test]
    fn hbm_corruption_is_caught_and_retried() {
        // Armed from launch 1 but firing only at launch 2: the image
        // is built for the faulted attempt alone, never to "verify" a
        // clean transfer.
        let inj =
            Injector::new(FaultPlan::new(2).with(FaultSite::HbmCorruption, Trigger::AtLaunch(2)));
        assert_eq!(gate(&inj, 3), (Some(Replays::default()), 0));
        let (out, built) = gate(&inj, 3);
        assert_eq!(out.expect("re-sent transfer succeeds").transfer, 1);
        assert_eq!(built, 1, "one image per corrupted transfer");
        assert_eq!(inj.injected_at(FaultSite::HbmCorruption), 1);
    }

    #[test]
    fn each_site_has_its_own_budget() {
        // Coincident faults at every site of one launch: with two
        // attempts per *site* all four retry clean; a shared budget
        // would have been spent by the second gate.
        let plan = GATES
            .iter()
            .fold(FaultPlan::new(3), |p, &s| p.with(s, Trigger::AtLaunch(1)));
        let inj = Injector::new(plan);
        let (out, _) = gate(&inj, 2);
        assert_eq!(
            out,
            Some(Replays {
                transfer: 1,
                compute: 2
            })
        );
        assert_eq!(inj.injected_count(), 4);
    }

    #[test]
    fn shape_errors_are_not_retried() {
        // `degrade` surfaces a real error instead of absorbing it.
        let a = Tensor::zeros(vec![3, 4]);
        let b = Tensor::zeros(vec![5, 2]);
        assert!(degrade("test", 1, 3, &a, &b, &QGemmConfig::fp32()).is_err());
    }
}
