//! Deterministic end-to-end training replay.
//!
//! Trains the paper's LeNet-5 under the headline FP8×FP12-SR
//! configuration on a tiny synthetic dataset, then digests the
//! trained weights bit-for-bit. Because every source of randomness is
//! seeded (init, shuffling, dropout, stochastic rounding) and every
//! rounding event is indexed by logical coordinates, the digest must
//! be identical across thread counts and across runs — and must match
//! the golden file under `tests/golden/`.

use crate::digest::{digest_params, hex_digest};
use mpt_arith::MacConfig;
use mpt_arith::{CpuBackend, GemmBackend};
use mpt_core::{train_cnn_resumable, CheckpointError, TrainConfig, TrainOptions, TrainReport};
use mpt_data::{synthetic_cifar10_16, synthetic_mnist};
use mpt_formats::Rounding;
use mpt_models::{lenet5, ResNet, ResNetKind};
use mpt_nn::{GemmPrecision, Layer, Sgd};
use std::path::PathBuf;
use std::rc::Rc;

/// Thread counts the replay suite runs `qgemm_parallel` at.
pub const REPLAY_THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Result of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Hex digest of all trained parameters (names, shapes, bits).
    pub digest: String,
    /// The training report (losses must be finite).
    pub report: TrainReport,
}

/// Trains LeNet-5 for a fixed tiny schedule with the GEMM backend
/// pinned to `threads` row bands, and digests the resulting weights.
///
/// Dataset, model init, shuffling, dropout and stochastic-rounding
/// seeds are all fixed constants, so two invocations differ **only**
/// in how GEMM rows are split across threads — which must not change
/// a single bit.
pub fn replay_lenet(threads: usize) -> ReplayOutcome {
    replay_lenet_with(
        Rc::new(CpuBackend::with_threads(threads)),
        &TrainOptions::default(),
    )
    .expect("replay without checkpoint I/O cannot fail")
}

/// The fixed replay hyper-parameters (see [`replay_lenet`]).
pub fn replay_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 8,
        loss_scale: 256.0,
        seed: 3,
    }
}

/// [`replay_lenet`] through an arbitrary GEMM backend and
/// [`TrainOptions`] — the entry point of the chaos and
/// checkpoint-resume conformance suites. Every backend is
/// bit-identical to the emulation kernel, and checkpoint/resume is
/// bit-exact, so **every** combination must reproduce the same
/// digest as the plain CPU replay.
///
/// # Errors
///
/// Returns [`CheckpointError`] only for checkpoint I/O configured via
/// `opts` (missing/corrupt resume file, failed save).
pub fn replay_lenet_with(
    backend: Rc<dyn GemmBackend>,
    opts: &TrainOptions,
) -> Result<ReplayOutcome, CheckpointError> {
    let train = synthetic_mnist(16, 11);
    let test = synthetic_mnist(8, 12);
    let model = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(5), 7);
    let mut opt = Sgd::new(0.05, 0.9, 0.0);
    let report = train_cnn_resumable(
        &model,
        &mut opt,
        &train,
        &test,
        replay_config(),
        backend,
        opts,
    )?;
    let digest = hex_digest(digest_params(&model.parameters()));
    Ok(ReplayOutcome { digest, report })
}

/// Path of the checked-in golden digest for [`replay_lenet`].
///
/// Golden digests depend on the platform's `libm` (`exp`/`ln` inside
/// cross-entropy are not specified bit-exactly across C libraries);
/// they are regenerated with `scripts/regen_golden.sh` when the
/// training recipe — or the platform baseline — changes.
pub fn replay_digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/lenet_fp8_replay.digest")
}

/// The multiplier roundings the ResNet-20 fixed-point replay pins:
/// `RN` is what the `resnet_fxp_cpu` benchmark workload trains, `SR`
/// additionally exercises the per-stage hashed event streams.
pub const RESNET_FXP_ROUNDINGS: [Rounding; 2] = [Rounding::Nearest, Rounding::stochastic()];

/// Trains the quick-scale ResNet-20 (16×16 inputs, BatchNorm +
/// residual adds + 3×3 im2col) under the paper's unfused fixed-point
/// MAC — `FXP4.4-<rounding>` multiplier into an `FXP8.8-RN`
/// accumulator — for a fixed tiny schedule, and digests the weights.
/// Like [`replay_lenet_with`], everything is seeded, so the digest
/// must not depend on the backend, its thread count or the SIMD tier.
pub fn replay_resnet_fxp(rounding: Rounding, backend: Rc<dyn GemmBackend>) -> ReplayOutcome {
    let train = synthetic_cifar10_16(16, 21);
    let test = synthetic_cifar10_16(8, 22);
    let prec = GemmPrecision::for_mac(MacConfig::fxp4_4(rounding)).with_seed(5);
    let model = ResNet::new(ResNetKind::ResNet20Scaled16, prec, 7);
    let mut opt = Sgd::new(0.05, 0.9, 0.0);
    let cfg = TrainConfig {
        batch_size: 4,
        ..replay_config()
    };
    let report = train_cnn_resumable(
        &model,
        &mut opt,
        &train,
        &test,
        cfg,
        backend,
        &TrainOptions::default(),
    )
    .expect("replay without checkpoint I/O cannot fail");
    let digest = hex_digest(digest_params(&model.parameters()));
    ReplayOutcome { digest, report }
}

/// Path of the checked-in golden digests for [`replay_resnet_fxp`]:
/// one `<mnemonic> <digest>` line per entry of
/// [`RESNET_FXP_ROUNDINGS`]. Same `libm` caveat and regeneration
/// script as [`replay_digest_path`].
pub fn resnet_fxp_digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/resnet20_fxp44_replay.digest")
}
