//! Chaos-hardened serving front-end for the FPGA backend.
//!
//! The paper's training loop drives the accelerator one GEMM at a
//! time; a production deployment fronts it with a service that takes
//! concurrent traffic. This crate is that front-end, built so
//! throughput degrades *gracefully* — never correctness — when
//! faults, overload, and slow clients hit at once:
//!
//! * **Bounded admission queue** — a submit past [`QUEUE_CAP`] is
//!   answered immediately with [`ServeResult::Rejected`] and a
//!   retry-after hint (queue depth × service-time EWMA) instead of
//!   buffering without bound.
//! * **Per-request deadlines** — the dispatcher cancels
//!   cooperatively before launching anything whose deadline passed
//!   ([`ServeResult::DeadlineExceeded`]); training traffic carries no
//!   deadline and always completes.
//! * **Circuit breaker** — [`BREAKER_THRESHOLD`] consecutive FPGA
//!   retry-budget exhaustions trip it ([`BreakerState::Open`]) and
//!   traffic routes to [`mpt_fpga::degrade`], the bit-identical CPU
//!   fallback every exhausted launch in the stack takes; after a
//!   cooldown of [`BREAKER_COOLDOWN`] bypassed requests (counted in
//!   requests, so chaos replays exactly) a half-open probe tests
//!   recovery. Every transition is logged and
//!   emitted as a `breaker_state` telemetry event.
//! * **Rounds in arrival order** — the dispatcher drains up to
//!   [`BATCH_MAX`] requests at a time and serves them in the order
//!   they arrived, one [`PipelinedExecutor::launch_resilient`][lr]
//!   call each, checking the breaker before every one — always under
//!   the service's injector: a service started without one holds the
//!   empty fault plan. The operand cache is content-addressed, so a
//!   weight shared by requests is packed once whatever their order.
//!
//! Degradation is a latency statement, never a correctness one:
//! every path (FPGA, retried FPGA, CPU fallback) produces the same
//! bits, so a response is either correct or explicitly shed — the
//! conformance suite pins golden LeNet training *through this
//! service* against the single-device digest while inference clients
//! inject concurrent chaos traffic.
//!
//! The one knob is [`ServeConfig::retry`]; queue and breaker sizes are
//! constants. The `serve_chaos` bench bin drives N clients against an
//! armed fault plan and hard-asserts zero corrupted responses.
//!
//! [lr]: mpt_fpga::PipelinedExecutor::launch_resilient
//!
//! # Example
//!
//! ```
//! use mpt_serving::{GemmService, RequestClass, ServeConfig, ServeResult};
//! use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig, DEFAULT_CACHE_BUDGET};
//! use mpt_arith::{qgemm, QGemmConfig};
//! use mpt_tensor::Tensor;
//!
//! let acc = Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0);
//! let service = GemmService::start(
//!     ServeConfig::default(),
//!     PipelinedExecutor::new(acc, DEFAULT_CACHE_BUDGET),
//!     None,
//! );
//! let h = service.handle();
//! let a = Tensor::from_fn(vec![4, 6], |i| i as f32 * 0.1);
//! let b = Tensor::from_fn(vec![6, 3], |i| i as f32 * 0.2);
//! let cfg = QGemmConfig::fp8_fp12_sr();
//! let rx = h.submit(a.clone(), b.clone(), cfg, RequestClass::Inference, None);
//! match rx.recv().unwrap() {
//!     ServeResult::Done { out, degraded } => {
//!         assert_eq!(out, qgemm(&a, &b, &cfg).unwrap());
//!         assert!(!degraded);
//!     }
//!     other => panic!("unexpected: {other:?}"),
//! }
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod breaker;
mod config;
mod request;
mod service;

pub use backend::ServingBackend;
pub use breaker::{BreakerState, BreakerTransition};
pub use config::{ServeConfig, BATCH_MAX, BREAKER_COOLDOWN, BREAKER_THRESHOLD, QUEUE_CAP};
pub use request::{RequestClass, ServeResult};
pub use service::{GemmService, ServeHandle, ServeStats};
