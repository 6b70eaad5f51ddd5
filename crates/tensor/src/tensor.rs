//! The dense row-major tensor type.

use crate::error::ShapeError;
use std::fmt;

/// A dense N-dimensional tensor of `f32` in row-major order.
///
/// Shapes are owned `Vec<usize>`; scalars are rank-0 tensors with one
/// element. All operations allocate fresh output tensors except the
/// explicitly in-place `*_assign`/`*_mut` methods.
///
/// # Example
///
/// ```
/// use mpt_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching data vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::DataLength`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let numel: usize = shape.iter().product();
        if numel != data.len() {
            return Err(ShapeError::DataLength {
                shape,
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; numel],
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape,
            data: vec![value; numel],
        }
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(usize) -> f32) -> Self {
        let numel: usize = shape.iter().product();
        Tensor {
            shape,
            data: (0..numel).map(&mut f).collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The scalar value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.shape.len()];
        for i in (0..self.shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.shape[i + 1];
        }
        strides
    }

    /// Flat offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        let strides = self.strides();
        for (d, (&i, &s)) in index.iter().zip(&strides).enumerate() {
            assert!(i < self.shape[d], "index {i} out of bounds for dim {d}");
            off += i * s;
        }
        off
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::DataLength`] if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Tensor, ShapeError> {
        let numel: usize = shape.iter().product();
        if numel != self.numel() {
            return Err(ShapeError::DataLength {
                shape,
                len: self.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Interprets the tensor as a 2-D matrix `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Rank`] unless the tensor is rank 2.
    pub fn as_matrix(&self) -> Result<(usize, usize), ShapeError> {
        if self.rank() != 2 {
            return Err(ShapeError::Rank {
                expected: 2,
                actual: self.rank(),
                op: "as_matrix",
            });
        }
        Ok((self.shape[0], self.shape[1]))
    }

    /// Transpose of a 2-D tensor: [`swap_axes`](Tensor::swap_axes)
    /// over `[1, r, c, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Rank`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor, ShapeError> {
        let (r, c) = self.as_matrix().map_err(|_| ShapeError::Rank {
            expected: 2,
            actual: self.rank(),
            op: "transpose",
        })?;
        self.swap_axes([1, r, c, 1], vec![c, r])
    }

    /// Swaps the middle two axes of the data viewed as `[n, a, b, c]`,
    /// returning the `[n, b, a, c]` layout under `shape`. Every layout
    /// change of the tape (transposes, attention's head split and
    /// merge, conv's channel-major rearrange) is this one copy; it
    /// moves bits, so NaN payloads and `-0.0` survive.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::DataLength`] if `n·a·b·c` or the product
    /// of `shape` differs from the element count.
    pub fn swap_axes(&self, dims: [usize; 4], shape: Vec<usize>) -> Result<Tensor, ShapeError> {
        let [_, a, b, c] = dims;
        let numel = self.numel();
        if dims.iter().product::<usize>() != numel {
            return Err(ShapeError::DataLength {
                shape: dims.to_vec(),
                len: numel,
            });
        }
        let mut out = Tensor::from_vec(shape, vec![0.0; numel])?;
        if numel == 0 {
            return Ok(out);
        }
        for (src, dst) in self
            .data
            .chunks_exact(a * b * c)
            .zip(out.data.chunks_exact_mut(a * b * c))
        {
            if c == 1 {
                transpose_tiled(src, dst, a, b);
            } else {
                // One contiguous run per `(i, j)`, by a plain loop: at
                // conv's runs it is never slower than `copy_from_slice`.
                for i in 0..a {
                    for j in 0..b {
                        let run = &src[(i * b + j) * c..][..c];
                        for (d, &s) in dst[(j * a + i) * c..][..c].iter_mut().zip(run) {
                            *d = s;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Extracts rows `start..end` of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Rank`] for non-matrices or
    /// [`ShapeError::Geometry`] for an out-of-range row span.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor, ShapeError> {
        let (r, c) = self.as_matrix()?;
        if start > end || end > r {
            return Err(ShapeError::Geometry(format!(
                "row slice {start}..{end} out of range for {r} rows"
            )));
        }
        Ok(Tensor {
            shape: vec![end - start, c],
            data: self.data[start * c..end * c].to_vec(),
        })
    }

    /// Stacks 2-D tensors with equal column counts on top of each
    /// other.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any block is not a matrix or the
    /// column counts disagree.
    pub fn concat_rows(blocks: &[Tensor]) -> Result<Tensor, ShapeError> {
        let mut cols = None;
        let mut rows = 0;
        for b in blocks {
            let (r, c) = b.as_matrix()?;
            match cols {
                None => cols = Some(c),
                Some(c0) if c0 != c => {
                    return Err(ShapeError::Mismatch {
                        left: vec![rows, c0],
                        right: vec![r, c],
                        op: "concat_rows",
                    })
                }
                _ => {}
            }
            rows += r;
        }
        let cols = cols.unwrap_or(0);
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            data.extend_from_slice(&b.data);
        }
        Ok(Tensor {
            shape: vec![rows, cols],
            data,
        })
    }

    /// Zero-pads a 2-D tensor to `(rows, cols)` (bottom/right).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not a matrix or the
    /// target is smaller than the current shape.
    pub fn pad_to(&self, rows: usize, cols: usize) -> Result<Tensor, ShapeError> {
        let (r, c) = self.as_matrix()?;
        if rows < r || cols < c {
            return Err(ShapeError::Geometry(format!(
                "cannot pad {r}x{c} down to {rows}x{cols}"
            )));
        }
        let mut out = Tensor::zeros(vec![rows, cols]);
        for i in 0..r {
            out.data[i * cols..i * cols + c].copy_from_slice(&self.data[i * c..(i + 1) * c]);
        }
        Ok(out)
    }

    /// Crops a 2-D tensor to its top-left `(rows, cols)` corner.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not a matrix or the
    /// target exceeds the current shape.
    pub fn crop_to(&self, rows: usize, cols: usize) -> Result<Tensor, ShapeError> {
        let (r, c) = self.as_matrix()?;
        if rows > r || cols > c {
            return Err(ShapeError::Geometry(format!(
                "cannot crop {r}x{c} up to {rows}x{cols}"
            )));
        }
        let mut out = Tensor::zeros(vec![rows, cols]);
        for i in 0..rows {
            out.data[i * cols..(i + 1) * cols].copy_from_slice(&self.data[i * c..i * c + cols]);
        }
        Ok(out)
    }
}

/// Writes the transpose of the `r × c` matrix `src` into `dst`, tile by
/// tile: the plain `dst[j][i] = src[i][j]` double loop writes one cache
/// line per element on a wide matrix (a LeNet step's linear backward
/// transposes a 32 × 400 activation). Within a tile the writes are
/// contiguous and the `TILE` source lines being read stay in L1.
fn transpose_tiled(src: &[f32], dst: &mut [f32], r: usize, c: usize) {
    const TILE: usize = 32;
    for i0 in (0..r).step_by(TILE) {
        let i1 = (i0 + TILE).min(r);
        for j0 in (0..c).step_by(TILE) {
            for j in j0..(j0 + TILE).min(c) {
                for (d, i) in dst[j * r + i0..j * r + i1].iter_mut().zip(i0..i1) {
                    *d = src[i * c + j];
                }
            }
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_metadata() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.rank(), 3);
        assert_eq!(t.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 5]).is_err());
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "item() on tensor")]
    fn item_panics_on_multi() {
        Tensor::zeros(vec![2]).item();
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.data()[5], 9.0);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(vec![2, 6], |i| i as f32);
        let r = t.reshape(vec![3, 4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![5, 5]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(tt.transpose().unwrap(), t);
    }

    #[test]
    fn tiled_transpose_matches_the_plain_double_loop() {
        // Empty, single row/column, one element past a tile in each
        // direction, and the conv-backward `cols` shape.
        for (r, c) in [(0, 5), (5, 0), (1, 70), (70, 1), (33, 65), (25, 25088)] {
            let t = Tensor::from_fn(vec![r, c], |i| (i as f32).sin());
            let tt = t.transpose().unwrap();
            assert_eq!(tt.shape(), &[c, r]);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(
                        tt.data()[j * r + i].to_bits(),
                        t.data()[i * c + j].to_bits(),
                        "{r}x{c} at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_axes_checks_dims_and_shape() {
        let t = Tensor::from_fn(vec![2, 3, 4], |i| i as f32);
        assert!(t.swap_axes([2, 3, 4, 2], vec![2, 4, 3]).is_err());
        assert!(t.swap_axes([2, 3, 4, 1], vec![2, 4, 4]).is_err());
        let s = t.swap_axes([2, 3, 4, 1], vec![2, 4, 3]).unwrap();
        assert_eq!(s.at(&[1, 3, 2]), t.at(&[1, 2, 3]));
        let empty = Tensor::zeros(vec![0, 5]);
        assert_eq!(
            empty.swap_axes([1, 0, 5, 1], vec![5, 0]).unwrap().shape(),
            &[5, 0]
        );
    }

    #[test]
    fn transpose_requires_rank_2() {
        assert!(Tensor::zeros(vec![2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn slice_and_concat_rows() {
        let t = Tensor::from_fn(vec![4, 3], |i| i as f32);
        let top = t.slice_rows(0, 2).unwrap();
        let bottom = t.slice_rows(2, 4).unwrap();
        let back = Tensor::concat_rows(&[top, bottom]).unwrap();
        assert_eq!(back, t);
        assert!(t.slice_rows(3, 5).is_err());
    }

    #[test]
    fn concat_rejects_mismatched_cols() {
        let a = Tensor::zeros(vec![1, 3]);
        let b = Tensor::zeros(vec![1, 4]);
        assert!(Tensor::concat_rows(&[a, b]).is_err());
    }

    #[test]
    fn pad_and_crop_round_trip() {
        let t = Tensor::from_fn(vec![2, 3], |i| i as f32 + 1.0);
        let padded = t.pad_to(4, 5).unwrap();
        assert_eq!(padded.shape(), &[4, 5]);
        assert_eq!(padded.at(&[1, 2]), 6.0);
        assert_eq!(padded.at(&[3, 4]), 0.0);
        assert_eq!(padded.crop_to(2, 3).unwrap(), t);
        assert!(t.pad_to(1, 3).is_err());
        assert!(t.crop_to(3, 3).is_err());
    }

    #[test]
    fn display_small_tensor_shows_data() {
        let t = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let s = t.to_string();
        assert!(s.contains("[2]"));
        assert!(s.contains("1.0"));
    }
}
