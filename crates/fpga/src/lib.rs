//! # mpt-fpga — the MPTorch-FPGA accelerator model
//!
//! A software model of the paper's FPGA GEMM accelerator (Section IV):
//! `C` one-dimensional systolic-array cores (de Fine Licht et al.
//! architecture) of `N` processing elements × `M` MAC units each, fed
//! through 512-bit HBM ports, driven over PCIe.
//!
//! Four layers of fidelity:
//!
//! * **Functional** ([`sim::Accelerator::execute`]) — the *same*
//!   bit-accurate tiered MAC kernel as CPU emulation, run over the
//!   host-quantized operands, so results are bitwise identical to
//!   `mpt_arith::qgemm` (the paper's bit-level accuracy claim).
//! * **Analytic** ([`perf`]) — the paper's performance model: the
//!   three padding stages, `L_MAC`, `L_write`, `L_data`, `L_total`,
//!   and the one overlap recurrence ([`overlap`]) every pipelined
//!   figure comes from.
//! * **"Measured"** ([`sim::Accelerator::timing_only`]) — that model's
//!   own cycle count ([`perf::core_cycles`]) plus the three
//!   non-idealities it leaves out: per-tile pipeline fill/drain, PCIe
//!   capped at 80% of peak, and a per-launch overhead. Measured minus
//!   estimated is exactly those three terms, so measured latency lands
//!   slightly above the estimate with the optimum preserved (Fig. 7).
//! * **Structural** ([`sim::Accelerator::execute_structural`]) — the
//!   tiled, partitioned systolic schedule itself, every PE stepped
//!   through [`mpt_arith::mac_step`] with cycles counted: the oracle
//!   tests pin the two layers above to, called by no backend.
//!
//! Launches go one way: [`FpgaBackend::gemm_timed`], staged through
//! the backend's one [`PipelinedExecutor`] (a zero-byte operand cache
//! unless [`FpgaBackend::pipelined`]) behind the fault gates of
//! [`resilient`], leaving the FPGA path only through [`degrade`].
//! The serving dispatcher calls the executor's `launch_resilient`
//! under the same gates.
//!
//! The synthesis results of Table III/IV are embedded as the static
//! configuration database ([`synthesis::SynthesisDb`]) exactly as the
//! paper pre-generates static bitstream configurations offline.
//!
//! ## Example
//!
//! ```
//! use mpt_fpga::{SaConfig, perf::estimate_gemm};
//! use mpt_arith::GemmShape;
//!
//! let cfg = SaConfig::new(8, 8, 4)?;
//! let lat = estimate_gemm(GemmShape::new(128, 784, 100), cfg, 298.0, 8, 8);
//! assert!(lat.total_s > 0.0);
//! # Ok::<(), mpt_fpga::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod hbm;
pub mod mapping;
pub mod padding;
pub mod perf;
pub mod pipeline;
pub mod resilient;
pub mod sim;
pub mod synthesis;

pub use backend::FpgaBackend;
pub use cache::{CacheStats, OperandCache, DEFAULT_CACHE_BUDGET};
pub use config::{ConfigError, SaConfig, HBM_PORT_BITS, MAX_CORES, PCIE_GBPS};
pub use hbm::{HbmError, HbmImage};
pub use mapping::{best_mapping, GemmMapping, Partition};
pub use padding::PaddedGemm;
pub use perf::{estimate_gemm, overlap, Latency};
pub use pipeline::{PipelinedExecutor, StageTimes};
pub use resilient::degrade;
pub use sim::{Accelerator, MeasuredLatency};
pub use synthesis::{SynthPoint, SynthesisDb};
