//! # mpt-faults — deterministic fault injection and recovery policy
//!
//! The paper's bitstream-per-task FPGA design assumes kernel
//! launches, HBM transfers and bitstream loads always succeed. A
//! production training service must survive transient device faults
//! without corrupting a multi-hour run — and because the whole stack
//! is proven bit-identical across execution paths, the recovery layer
//! can be *checked*: a training run that retries and degrades to the
//! CPU path must reproduce the fault-free golden weight digest
//! bit-for-bit.
//!
//! Three pieces, all dependency-free and fully deterministic:
//!
//! * [`FaultPlan`] — a seeded schedule of *which* fault fires *when*:
//!   per-site probabilities or fixed triggers ("every Nth launch").
//!   Decisions are a pure hash of `(seed, site, launch, attempt)`, so
//!   a plan replays identically across runs, threads and machines.
//! * [`Injector`] — the runtime counterpart: owns the plan plus the
//!   launch counter, and answers "does site S fault on this attempt?"
//! * [`RetryPolicy`] — bounded retry with exponential backoff: the
//!   per-site budget of the one gate sequence every launch walks
//!   (`mpt_fpga::resilient`), whether it came through
//!   [`FpgaBackend`](../mpt_fpga/struct.FpgaBackend.html) or the
//!   serving dispatcher.
//!
//! The [`crc`] module provides the CRC-32 used by the HBM image
//! integrity check and the checkpoint file format.
//!
//! Fault injection is **inert by default**, and not by a second code
//! path: execution layers always hold an [`Injector`], and one that
//! was never armed follows the empty [`FaultPlan`], so the fault-free
//! hot path is the fault path with four [`Trigger::Never`] reads per
//! launch.
//!
//! ## Example
//!
//! ```
//! use mpt_faults::{FaultPlan, FaultSite, Injector, Trigger};
//!
//! let plan = FaultPlan::new(42)
//!     .with(FaultSite::LaunchTimeout, Trigger::EveryNth(3))
//!     .with(FaultSite::HbmCorruption, Trigger::Probability(0.1));
//! let inj = Injector::new(plan);
//! inj.next_launch(); // launch 1
//! inj.next_launch(); // launch 2
//! let launch = inj.next_launch(); // launch 3: EveryNth(3) fires
//! assert!(inj.check(FaultSite::LaunchTimeout, launch, 0).is_some());
//! assert!(inj.check(FaultSite::LaunchTimeout, launch, 1).is_none(), "retry clears");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
mod inject;
mod plan;
mod retry;

pub use inject::Injector;
pub use plan::{Fault, FaultPlan, FaultSite, Trigger};
pub use retry::RetryPolicy;
