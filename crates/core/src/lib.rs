//! # mpt-core — the MPTorch-FPGA framework
//!
//! The user-facing layer of the reproduction, tying together the
//! substrates exactly as the paper's Figure 1 stacks them:
//!
//! * **Unified emulation + hardware execution** — a custom-precision
//!   GEMM runs through CPU emulation (`mpt-arith`) or on the FPGA
//!   accelerator model (`mpt_fpga::FpgaBackend`, built from the
//!   configuration database by `SynthesisDb::accelerator`); both are
//!   `GemmBackend`s the trainer takes, and results are bit-identical
//!   either way (the framework's central claim).
//! * **Model-specific accelerator optimization** — [`matching`]
//!   implements the offline matching algorithm of Section IV-B: brute
//!   force over the pre-generated configuration database and the
//!   per-GEMM transpose/partition mappings, minimizing estimated
//!   training-iteration latency.
//! * **Training orchestration** — [`trainer`] runs the Table II /
//!   Fig. 6 style experiments: mixed-precision training with adaptive
//!   loss scaling (initial factor 256) on the synthetic datasets.
//! * **[`features`]** — the Table I framework-comparison matrix.
//!
//! ## Example
//!
//! ```
//! use mpt_core::matching::select_accelerator;
//! use mpt_fpga::SynthesisDb;
//! use mpt_models::ModelDesc;
//!
//! let db = SynthesisDb::u55();
//! let choice = select_accelerator(&ModelDesc::lenet5(64).training_gemms(), &db, 8);
//! assert!(choice.estimated_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod features;
pub mod matching;
pub mod trainer;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use matching::{
    iteration_latency, measured_optimum, select_accelerator, sweep_core_counts, MatchResult,
};
pub use trainer::{
    evaluate_cnn, evaluate_cnn_with_backend, train_cnn, train_cnn_resumable,
    train_cnn_with_backend, train_gpt, TrainConfig, TrainOptions, TrainReport,
};
