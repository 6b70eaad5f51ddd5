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
pub struct GemmRequest {
    /// Left operand.
    pub a: Tensor,
    /// Right operand.
    pub b: Tensor,
    /// Quantized-GEMM configuration (also the coalescing key, jointly
    /// with the operand shapes).
    pub cfg: QGemmConfig,
    /// Traffic class.
    pub class: RequestClass,
    /// Cooperative cancellation point: the dispatcher drops the
    /// request (responding [`ServeResult::DeadlineExceeded`]) if this
    /// instant passes before it launches.
    pub deadline: Option<Instant>,
    /// When the request entered the queue (latency accounting).
    pub enqueued: Instant,
    /// Where the dispatcher sends the outcome.
    pub resp: mpsc::Sender<ServeResult>,
}

impl GemmRequest {
    /// The coalescing key: requests sharing it quantize identically
    /// and run back to back as one coalesced group. Shapes plus the
    /// config's `Debug` form (which includes both quantizers, rounding
    /// seeds, and the accumulator setting) — exactly the inputs the
    /// operand cache fingerprints.
    pub fn coalesce_key(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.a.shape(), self.b.shape(), self.cfg)
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_key_separates_shape_and_config() {
        let (tx, _rx) = mpsc::channel();
        let mk = |n: usize, seed: u64| GemmRequest {
            a: Tensor::zeros(vec![n, 4]),
            b: Tensor::zeros(vec![4, 3]),
            cfg: QGemmConfig::fp8_fp12_sr().with_seed(seed),
            class: RequestClass::Inference,
            deadline: None,
            enqueued: Instant::now(),
            resp: tx.clone(),
        };
        assert_eq!(mk(2, 7).coalesce_key(), mk(2, 7).coalesce_key());
        assert_ne!(mk(2, 7).coalesce_key(), mk(3, 7).coalesce_key(), "shape");
        assert_ne!(mk(2, 7).coalesce_key(), mk(2, 8).coalesce_key(), "seed");
    }
}
