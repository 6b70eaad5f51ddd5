//! Reference FP32 matrix multiplication.
//!
//! This is the full-precision baseline that the quantized kernels in
//! `mpt-arith` are validated against (with identity quantizers the two
//! must agree bit-for-bit, since both accumulate in the same order).

use crate::error::ShapeError;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two 2-D tensors: `(n, k) × (k, m) → (n, m)`.
    ///
    /// Accumulation is performed in `f32` in row-major `k` order —
    /// the same order the quantized kernels use, so results are
    /// reproducible and directly comparable.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Rank`] for non-matrices and
    /// [`ShapeError::Mismatch`] when the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        let (n, k) = self.as_matrix().map_err(|_| ShapeError::Rank {
            expected: 2,
            actual: self.rank(),
            op: "matmul",
        })?;
        let (k2, m) = other.as_matrix().map_err(|_| ShapeError::Rank {
            expected: 2,
            actual: other.rank(),
            op: "matmul",
        })?;
        if k != k2 {
            return Err(ShapeError::Mismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "matmul",
            });
        }
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; n * m];
        // i-k-j loop order: streams through `b` rows, acceptable cache
        // behaviour without unsafe or blocking.
        for i in 0..n {
            for kk in 0..k {
                let aik = a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * m..(kk + 1) * m];
                let orow = &mut out[i * m..(i + 1) * m];
                for j in 0..m {
                    orow[j] += aik * brow[j];
                }
            }
        }
        Tensor::from_vec(vec![n, m], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).expect("valid")
    }

    #[test]
    fn small_known_product() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(vec![2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn inner_dim_mismatch_rejected() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn rank_checked() {
        let a = Tensor::zeros(vec![2, 3, 4]);
        let b = Tensor::zeros(vec![4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn zero_dimensions() {
        let a = Tensor::zeros(vec![0, 3]);
        let b = Tensor::zeros(vec![3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[0, 2]);
    }

    #[test]
    fn associativity_with_identity_chain() {
        let a = Tensor::from_fn(vec![3, 3], |i| i as f32 * 0.1);
        let left = a.matmul(&Tensor::eye(3)).unwrap().matmul(&a).unwrap();
        let right = a.matmul(&Tensor::eye(3).matmul(&a).unwrap()).unwrap();
        assert_eq!(left, right);
    }
}
