//! Cross-path conformance harness for the MPTorch-FPGA reproduction.
//!
//! The paper's core claim is *bit-accurate* emulation of
//! custom-precision GEMM across forward, backward and weight update.
//! The workspace has four execution paths that must agree bit-for-bit
//! — the scalar oracle (`qgemm_reference`), the monomorphized fast
//! kernels (`qgemm`), the row-banded parallel kernel
//! (`qgemm_parallel`) and the systolic-array simulator
//! (`Accelerator::execute`, itself pinned to its per-PE structural
//! oracle `Accelerator::execute_structural`) — plus a tape autograd
//! whose gradients must be right for training to mean anything.
//!
//! This crate is the safety net: four independent conformance layers
//! that every future performance PR is validated against.
//!
//! 1. **Differential GEMM** ([`diffgemm`]): a format × rounding ×
//!    shape grid on which all four paths are asserted bitwise equal.
//! 2. **Gradient checking** ([`gradcheck`]): central finite
//!    differences against every `nn` op's analytic backward in FP32
//!    passthrough mode.
//! 3. **Training replay** ([`replay`]): a deterministic end-to-end
//!    `train_cnn` run whose weight digest must be bit-identical
//!    across thread counts, across runs, and against a golden file.
//! 4. **Chaos & recovery** (`tests/chaos_replay.rs`,
//!    `tests/checkpoint_resume.rs`): the same replay under injected
//!    FPGA faults (retry + CPU fallback) and under crash/resume from
//!    CRC-checked checkpoints — both must reproduce the golden
//!    digest bit for bit.
//!
//! The test suites live under `tests/`; this library holds the
//! reusable machinery so future crates (benches, new backends) can
//! reuse the same oracles.

pub mod corpus;
pub mod diffgemm;
pub mod digest;
pub mod gradcheck;
pub mod replay;

pub use corpus::Corpus;
pub use diffgemm::{
    check_all_paths, degenerate_shapes, format_rounding_grid, standard_shapes, DiffCase,
};
pub use digest::{digest_params, digest_tensor, hex_digest};
pub use gradcheck::{assert_gradients, check_gradients, GradCheckReport};
pub use replay::{
    replay_config, replay_digest_path, replay_lenet, replay_lenet_with, replay_resnet_fxp,
    resnet_fxp_digest_path, ReplayOutcome, REPLAY_THREAD_COUNTS, RESNET_FXP_ROUNDINGS,
};
