//! # mpt-arith — bit-accurate custom-precision arithmetic kernels
//!
//! This crate implements the compute semantics at the heart of
//! MPTorch-FPGA: GEMM in which the multiplier, the accumulator, and
//! the input quantization each have their own independently
//! configurable number format and rounding mode (paper Section III).
//!
//! The computation for one output element follows the paper's MAC
//! pipeline exactly:
//!
//! 1. Inputs are pre-quantized to the operand format.
//! 2. Each product `a·b` is computed exactly (two low-precision
//!    operands multiply exactly in `f64`), then rounded to the
//!    multiplier output format — unless the multiplier is configured
//!    `NR`, in which case the full-width product feeds the adder
//!    directly (**fused** MAC, as in Archimedes-MPO and the paper's
//!    FP8-multiplier/FP12-adder FMA configuration).
//! 3. The running sum is rounded to the accumulator format after every
//!    addition.
//! 4. The final accumulator is cast back to FP32.
//!
//! Stochastic rounding events are indexed by `(i, j, k, stage)` through
//! a stateless counter-based RNG, so the result of a GEMM is a pure
//! function of `(inputs, config, seed)` — independent of loop order,
//! thread count, or whether the computation runs through the CPU
//! emulation kernel here or the systolic-array simulator in
//! `mpt-fpga`. Integration tests assert that equality bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use mpt_arith::{qgemm, QGemmConfig};
//! use mpt_tensor::Tensor;
//!
//! let cfg = QGemmConfig::fp8_fp12_sr(); // paper's accelerator config
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = Tensor::eye(2);
//! let c = qgemm(&a, &b, &cfg)?;
//! assert_eq!(c.data(), a.data()); // small integers are FP8-exact
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the lane MAC nest in `simd_fused`, at
// its AVX2 and AVX-512 widths (raw intrinsics behind runtime
// feature detection) and glibc's `mallopt` in `heap` are the sanctioned
// `unsafe` islands; any new `unsafe` elsewhere is still a hard error.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod heap;
pub(crate) mod kernels;
pub mod mac;
pub mod parallel;
pub mod qgemm;
pub mod shape;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd_fused;
pub(crate) mod stage;

pub use backend::{gemm_span, CpuBackend, GemmBackend};
pub use heap::keep_heap_mapped;
pub use mac::{input_event_index, mac_step, mac_step_with, sr_event_index, MacConfig, MacStage};
pub use parallel::{default_threads, qgemm_parallel};
pub use qgemm::{
    qgemm, qgemm_prequantized, qgemm_reference, qgemm_with_tier, quantize_matrix,
    quantize_matrix_tier, QGemmConfig,
};
pub use shape::GemmShape;
pub use stage::{MacObserver, NoTally};
