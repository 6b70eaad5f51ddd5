//! A [`GemmBackend`] adapter: the trainer as one more client.
//!
//! Wrapping a [`ServeHandle`](crate::ServeHandle) in a
//! [`ServingBackend`] and handing the trainer an
//! `Rc<ServingBackend>` (`train_cnn_with_backend`) routes every
//! trainer GEMM through the serving queue — admission control, rounds
//! shared with concurrent inference traffic, breaker and all — while
//! the training result stays bit-identical to the direct pipelined
//! backend (the conformance suite pins the golden digest through this
//! path). Step boundaries are the default no-op: nothing reads the
//! dispatcher executor's overlap clock, so there is nothing to drain.

use crate::request::{RequestClass, ServeResult};
use crate::service::ServeHandle;
use mpt_arith::{GemmBackend, QGemmConfig};
use mpt_tensor::{ShapeError, Tensor};

/// Blocks on the serving queue for each GEMM; training class, no
/// deadline (the trainer retries through backpressure until served).
#[derive(Debug, Clone)]
pub struct ServingBackend {
    handle: ServeHandle,
}

impl ServingBackend {
    /// Wraps a service handle.
    pub fn new(handle: ServeHandle) -> Self {
        ServingBackend { handle }
    }
}

impl GemmBackend for ServingBackend {
    fn gemm(&self, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> Result<Tensor, ShapeError> {
        match self.handle.call(a, b, cfg, RequestClass::Training, None)? {
            ServeResult::Done { out, .. } => Ok(out),
            ServeResult::Rejected { .. } => {
                unreachable!("`ServeHandle::call` retries every rejection")
            }
            ServeResult::DeadlineExceeded => {
                unreachable!("a request without a deadline is never expired")
            }
            ServeResult::Failed(e) => Err(e),
        }
    }

    fn label(&self) -> String {
        "serving".into()
    }
}
