//! Element-wise operations and reductions.

use crate::error::ShapeError;
use crate::tensor::Tensor;

impl Tensor {
    /// Applies `f` to each element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(
            self.shape().to_vec(),
            self.data().iter().map(|&v| f(v)).collect(),
        )
        .expect("shape preserved")
    }

    /// Combines two same-shape tensors element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::Mismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "zip_map",
            });
        }
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(self.shape().to_vec(), data)
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::Mismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "add_assign",
            });
        }
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data().iter().map(|&v| v as f64).sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f64 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f64
        }
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute value (`0.0` for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()))
    }

    /// `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|v| v.is_finite())
    }

    /// Sums a 2-D tensor over its rows, producing a `[cols]` vector
    /// (the bias-gradient reduction).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Rank`] unless the tensor is rank 2.
    pub fn sum_rows(&self) -> Result<Tensor, ShapeError> {
        let (r, c) = self.as_matrix()?;
        let mut out = vec![0.0f32; c];
        for i in 0..r {
            let row = &self.data()[i * c..(i + 1) * c];
            for (acc, &v) in out.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Tensor::from_vec(vec![c], out)
    }

    /// Per-row argmax of a 2-D tensor (the classification decision).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Rank`] unless the tensor is rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, ShapeError> {
        let (r, c) = self.as_matrix()?;
        let mut out = Vec::with_capacity(r);
        for i in 0..r {
            let row = &self.data()[i * c..(i + 1) * c];
            let mut best = 0;
            for j in 1..c {
                if row[j] > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Adds a `[cols]` vector to every row of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank or length mismatch.
    pub fn add_row_vector(&self, bias: &Tensor) -> Result<Tensor, ShapeError> {
        let (r, c) = self.as_matrix()?;
        if bias.rank() != 1 || bias.numel() != c {
            return Err(ShapeError::Mismatch {
                left: self.shape().to_vec(),
                right: bias.shape().to_vec(),
                op: "add_row_vector",
            });
        }
        let mut out = self.clone();
        for i in 0..r {
            for j in 0..c {
                out.data_mut()[i * c + j] += bias.data()[j];
            }
        }
        Ok(out)
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.data().iter().map(|&v| (v as f64) * (v as f64)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).expect("valid")
    }

    #[test]
    fn map_and_scale() {
        let a = t(vec![3], vec![1., -2., 3.]);
        assert_eq!(a.map(f32::abs).data(), &[1., 2., 3.]);
        assert_eq!(a.scale(2.0).data(), &[2., -4., 6.]);
    }

    #[test]
    fn arithmetic() {
        let a = t(vec![2], vec![1., 2.]);
        let b = t(vec![2], vec![10., 20.]);
        assert_eq!(a.add(&b).unwrap().data(), &[11., 22.]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9., 18.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[10., 40.]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = t(vec![2], vec![1., 2.]);
        let b = t(vec![3], vec![1., 2., 3.]);
        assert!(a.add(&b).is_err());
        let mut c = a.clone();
        assert!(c.add_assign(&b).is_err());
    }

    #[test]
    fn add_assign_in_place() {
        let mut a = t(vec![2], vec![1., 2.]);
        a.add_assign(&t(vec![2], vec![0.5, 0.5])).unwrap();
        assert_eq!(a.data(), &[1.5, 2.5]);
    }

    #[test]
    fn reductions() {
        let a = t(vec![2, 2], vec![1., -5., 3., 2.]);
        assert_eq!(a.sum(), 1.0);
        assert_eq!(a.mean(), 0.25);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -5.0);
        assert_eq!(a.abs_max(), 5.0);
        assert_eq!(a.norm_sq(), 39.0);
    }

    #[test]
    fn finiteness() {
        assert!(t(vec![2], vec![1., 2.]).all_finite());
        assert!(!t(vec![2], vec![1., f32::NAN]).all_finite());
        assert!(!t(vec![2], vec![f32::INFINITY, 2.]).all_finite());
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = t(vec![2, 3], vec![1., 2., 3., 10., 20., 30.]);
        assert_eq!(a.sum_rows().unwrap().data(), &[11., 22., 33.]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = t(vec![2, 3], vec![1., 3., 2., 7., 7., 1.]);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let a = t(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = t(vec![2], vec![10., 20.]);
        assert_eq!(a.add_row_vector(&b).unwrap().data(), &[11., 22., 13., 24.]);
        assert!(a.add_row_vector(&t(vec![3], vec![0.; 3])).is_err());
    }

    #[test]
    fn empty_tensor_reductions() {
        let e = Tensor::zeros(vec![0]);
        assert_eq!(e.sum(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.abs_max(), 0.0);
    }
}
