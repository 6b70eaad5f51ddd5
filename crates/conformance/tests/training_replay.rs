//! Deterministic end-to-end training replay.
//!
//! Trains LeNet-5 under the headline FP8×FP12-SR pipeline on a tiny
//! synthetic dataset and asserts the trained-weight digest is
//! bit-identical across GEMM thread counts, across repeated runs, and
//! against the checked-in golden digest.
//!
//! Regenerate the golden file with `scripts/regen_golden.sh` (which
//! sets `MPT_REGEN_GOLDEN=1`) after intentional changes to the
//! training recipe.

use conformance::{
    replay_digest_path, replay_lenet, replay_lenet_with, replay_resnet_fxp, resnet_fxp_digest_path,
    REPLAY_THREAD_COUNTS, RESNET_FXP_ROUNDINGS,
};
use mpt_arith::{qgemm_with_tier, CpuBackend, GemmBackend, QGemmConfig};
use mpt_core::TrainOptions;
use mpt_formats::SimdTier;
use mpt_tensor::{ShapeError, Tensor};
use std::fs;
use std::rc::Rc;

/// A sequential backend pinned to one explicit kernel tier, so one
/// process can replay every tier regardless of the ambient `MPT_SIMD`.
struct TierBackend(SimdTier);

impl GemmBackend for TierBackend {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        qgemm_with_tier(a, b, cfg, 0, 0, self.0)
    }
}

/// One full replay per thread count, plus a repeat run — every digest
/// must match, and every loss must be finite.
#[test]
fn replay_is_bit_identical_across_thread_counts_and_runs() {
    let baseline = replay_lenet(REPLAY_THREAD_COUNTS[0]);
    assert!(
        baseline.report.epoch_losses.iter().all(|l| l.is_finite()),
        "non-finite training loss: {:?}",
        baseline.report.epoch_losses
    );

    for &threads in &REPLAY_THREAD_COUNTS[1..] {
        let run = replay_lenet(threads);
        assert_eq!(
            run.digest, baseline.digest,
            "weight digest diverged at {threads} threads \
             (losses {:?} vs baseline {:?})",
            run.report.epoch_losses, baseline.report.epoch_losses
        );
        assert_eq!(
            run.report.epoch_losses, baseline.report.epoch_losses,
            "per-epoch losses diverged at {threads} threads"
        );
    }

    // Same thread count, fresh run: no process-global state (SIMD
    // dispatch, telemetry registry) may leak between trainings.
    let repeat = replay_lenet(REPLAY_THREAD_COUNTS[1]);
    assert_eq!(
        repeat.digest, baseline.digest,
        "repeat run diverged — global state leaked"
    );

    // CI matrix legs pin an extra thread count via the environment.
    if let Ok(extra) = std::env::var("CONFORMANCE_THREADS") {
        let threads: usize = extra.parse().expect("CONFORMANCE_THREADS is a number");
        let run = replay_lenet(threads);
        assert_eq!(
            run.digest, baseline.digest,
            "weight digest diverged at CONFORMANCE_THREADS={threads}"
        );
    }
}

/// The digest must match the golden file. Run with `MPT_REGEN_GOLDEN=1`
/// (see `scripts/regen_golden.sh`) to rewrite it.
#[test]
fn replay_matches_golden_digest() {
    let outcome = replay_lenet(1);
    let path = replay_digest_path();
    if std::env::var("MPT_REGEN_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, format!("{}\n", outcome.digest)).expect("write golden digest");
        return;
    }
    let golden = fs::read_to_string(&path)
        .unwrap_or_else(|e| {
            panic!(
                "missing golden digest {}: {e}\n\
                 regenerate with scripts/regen_golden.sh",
                path.display()
            )
        })
        .trim()
        .to_string();
    assert_eq!(
        outcome.digest,
        golden,
        "trained-weight digest diverged from golden file {}.\n\
         If the training recipe changed intentionally (or the platform \
         libm differs), regenerate with scripts/regen_golden.sh",
        path.display()
    );
    // And on every kernel tier, whatever `MPT_SIMD` the run above
    // resolved to.
    for &tier in SimdTier::available() {
        let run = replay_lenet_with(Rc::new(TierBackend(tier)), &TrainOptions::default())
            .expect("replay without checkpoint I/O cannot fail");
        assert_eq!(
            run.digest, golden,
            "LeNet digest diverged from golden on tier {tier}"
        );
    }
}

/// The quick-scale ResNet-20 under the unfused `FXP4.4 × FXP8.8-RN`
/// MAC (what `resnet_fxp_cpu` trains) must reproduce its golden
/// digests at every GEMM thread count and on every kernel tier. Run
/// with `MPT_REGEN_GOLDEN=1` (see `scripts/regen_golden.sh`) to
/// rewrite them.
#[test]
fn resnet_fxp_replay_matches_golden_across_threads_and_tiers() {
    let path = resnet_fxp_digest_path();
    if std::env::var("MPT_REGEN_GOLDEN").is_ok() {
        let lines: String = RESNET_FXP_ROUNDINGS
            .iter()
            .map(|&r| {
                let run = replay_resnet_fxp(r, Rc::new(CpuBackend::with_threads(1)));
                format!("{} {}\n", r.mnemonic(), run.digest)
            })
            .collect();
        fs::write(&path, lines).expect("write golden digests");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digests {}: {e}\nregenerate with scripts/regen_golden.sh",
            path.display()
        )
    });
    for rounding in RESNET_FXP_ROUNDINGS {
        let want = golden
            .lines()
            .find_map(|l| l.strip_prefix(rounding.mnemonic()))
            .unwrap_or_else(|| panic!("no {rounding} line in {}", path.display()))
            .trim();
        let mut backends: Vec<(String, Rc<dyn GemmBackend>)> = Vec::new();
        for threads in REPLAY_THREAD_COUNTS {
            backends.push((
                format!("cpu x{threads}"),
                Rc::new(CpuBackend::with_threads(threads)),
            ));
        }
        for &tier in SimdTier::available() {
            backends.push((format!("tier {tier}"), Rc::new(TierBackend(tier))));
        }
        for (label, backend) in backends {
            let run = replay_resnet_fxp(rounding, backend);
            assert!(
                run.report.epoch_losses.iter().all(|l| l.is_finite()),
                "FXP4.4-{rounding} {label}: non-finite loss {:?}",
                run.report.epoch_losses
            );
            assert_eq!(
                run.digest, want,
                "ResNet-20 FXP4.4-{rounding} digest diverged from golden on {label}"
            );
        }
    }
}
