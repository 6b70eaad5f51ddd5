//! GEMM problem shapes.
//!
//! A [`GemmShape`] describes one `(n × k) · (k × m)` multiplication.
//! Training workloads (sequences of GEMMs extracted from a model's
//! forward/backward passes) are `Vec<GemmShape>`; the FPGA performance
//! model consumes them to estimate iteration latency (paper
//! Section IV-A).

use mpt_tensor::{ShapeError, Tensor};
use std::fmt;

/// The dimensions of one GEMM: `A ∈ R^{n×k}`, `B ∈ R^{k×m}`,
/// `C ∈ R^{n×m}` (the paper's notation).
///
/// # Example
///
/// ```
/// use mpt_arith::GemmShape;
///
/// let s = GemmShape::new(128, 784, 100);
/// assert_eq!(s.flops(), 2 * 128 * 784 * 100);
/// assert_eq!(s.transposed(), GemmShape::new(100, 784, 128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of `A` and of the output.
    pub n: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Columns of `B` and of the output.
    pub m: usize,
}

impl GemmShape {
    /// Creates a shape from `(n, k, m)`.
    pub fn new(n: usize, k: usize, m: usize) -> Self {
        GemmShape { n, k, m }
    }

    /// The shape of the product `A · B`.
    ///
    /// # Errors
    ///
    /// Returns the [`ShapeError`] every GEMM entry point reports, on
    /// behalf of `op`, when an operand is not a matrix or the inner
    /// dimensions differ.
    pub fn of_product(a: &Tensor, b: &Tensor, op: &'static str) -> Result<Self, ShapeError> {
        let (n, k) = a.as_matrix()?;
        let (k2, m) = b.as_matrix()?;
        if k != k2 {
            return Err(ShapeError::Mismatch {
                left: a.shape().to_vec(),
                right: b.shape().to_vec(),
                op,
            });
        }
        Ok(GemmShape { n, k, m })
    }

    /// Number of multiply-add floating-point operations (2·n·k·m).
    pub fn flops(&self) -> usize {
        2 * self.n * self.k * self.m
    }

    /// Number of MAC operations (n·k·m).
    pub fn macs(&self) -> usize {
        self.n * self.k * self.m
    }

    /// The shape of the transposed problem `Bᵀ·Aᵀ = Cᵀ`: feeding the
    /// accelerator transposed inputs swaps `n` and `m` (the first step
    /// of the paper's mapping optimization, Section IV-B).
    pub fn transposed(&self) -> GemmShape {
        GemmShape {
            n: self.m,
            k: self.k,
            m: self.n,
        }
    }

    /// Total input + output element count (used for PCIe traffic
    /// before padding).
    pub fn elements(&self) -> usize {
        self.n * self.k + self.k * self.m + self.n * self.m
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}x{})x({}x{})", self.n, self.k, self.k, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_and_macs() {
        let s = GemmShape::new(2, 3, 4);
        assert_eq!(s.macs(), 24);
        assert_eq!(s.flops(), 48);
        assert_eq!(s.elements(), 6 + 12 + 8);
    }

    #[test]
    fn transpose_is_involution() {
        let s = GemmShape::new(5, 7, 9);
        assert_eq!(s.transposed().transposed(), s);
        assert_eq!(s.transposed().flops(), s.flops());
    }

    #[test]
    fn display() {
        assert_eq!(GemmShape::new(1, 2, 3).to_string(), "(1x2)x(2x3)");
    }
}
