//! Request and response types crossing the client/dispatcher channel.

use mpt_arith::QGemmConfig;
use mpt_tensor::{ShapeError, Tensor};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Traffic class, used for per-class latency accounting and to keep
/// deadline semantics honest: training steps carry no deadline (the
/// trainer retries until served), inference requests usually do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// A trainer's forward/backward GEMM — must eventually complete.
    Training,
    /// An interactive inference GEMM — may expire.
    Inference,
}

impl RequestClass {
    /// Stable lowercase name (telemetry suffix).
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Training => "training",
            RequestClass::Inference => "inference",
        }
    }
}

/// One GEMM job travelling from a client to the dispatcher.
#[derive(Debug)]
pub(crate) struct GemmRequest {
    pub(crate) a: Tensor,
    pub(crate) b: Tensor,
    pub(crate) cfg: QGemmConfig,
    pub(crate) class: RequestClass,
    /// Cooperative cancellation point: the dispatcher drops the
    /// request (responding [`ServeResult::DeadlineExceeded`]) if this
    /// instant passes before it launches.
    pub(crate) deadline: Option<Instant>,
    /// When the request entered the queue (latency accounting).
    pub(crate) enqueued: Instant,
    /// Where the dispatcher sends the outcome.
    pub(crate) resp: mpsc::Sender<ServeResult>,
}

/// The dispatcher's answer to one request.
#[derive(Debug)]
pub enum ServeResult {
    /// The GEMM ran; `degraded` marks results computed on the CPU
    /// fallback (bit-identical — degradation is a latency statement,
    /// never a correctness one).
    Done {
        /// The product tensor.
        out: Tensor,
        /// `true` when the FPGA path was bypassed or exhausted.
        degraded: bool,
    },
    /// Admission control shed the request; retry after the hint.
    Rejected {
        /// Backpressure hint derived from queue depth × service-time
        /// EWMA.
        retry_after: Duration,
    },
    /// The deadline passed before the request launched.
    DeadlineExceeded,
    /// Malformed operands (never retried).
    Failed(ShapeError),
}
