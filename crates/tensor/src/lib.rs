//! # mpt-tensor — dense tensor substrate
//!
//! A deliberately small, dependency-free dense tensor library carrying
//! `f32` data in row-major order, built for the MPTorch-FPGA
//! reproduction. It provides exactly what the DNN training stack and
//! the FPGA GEMM model need:
//!
//! * N-dimensional [`Tensor`] with shape/stride bookkeeping,
//! * 2-D matrix multiply and transposes ([`matmul`](Tensor::matmul)),
//! * `im2col`/`col2im` lowering of convolutions to GEMM (the paper
//!   performs this transformation on the CPU host — Section III,
//!   footnote 1),
//! * element-wise maps/zips, reductions, padding and row slicing.
//!
//! Heavy mixed-precision GEMM lives in `mpt-arith`; this crate's
//! [`Tensor::matmul`] is the plain FP32 reference.
//!
//! ## Example
//!
//! ```
//! use mpt_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::eye(3);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok::<(), mpt_tensor::ShapeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod error;
pub mod matmul;
pub mod ops;
pub mod tensor;

pub use conv::{col2im, im2col, im2col_t, Conv2dGeometry};
pub use error::ShapeError;
pub use tensor::Tensor;
