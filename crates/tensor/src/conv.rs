//! `im2col`/`col2im` lowering of convolutions to GEMM.
//!
//! The paper routes every convolution through GEMM: "Convolution
//! operations are transformed into GEMM computations using the im2col
//! and col2im transformations, performed on the CPU host"
//! (Section III, footnote 1). These are those host-side transforms.
//!
//! Layout conventions (NCHW):
//!
//! * input image tensor: `[batch, channels, height, width]`
//! * `im2col` output: `[channels·kh·kw, batch·oh·ow]` — one column per
//!   output pixel, so `weights(oc, c·kh·kw) × cols` is the forward
//!   convolution GEMM.
//! * `im2col_t` output: `[batch·oh·ow, channels·kh·kw]`, the transpose
//!   of `im2col`'s, built directly — the right operand of the weight
//!   gradient `dY × colsᵀ`.

use std::ops::Range;

use crate::error::ShapeError;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution: kernel, stride, padding and the
/// derived output size.
///
/// # Example
///
/// ```
/// use mpt_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(28, 28, 5, 5, 1, 2)?;
/// assert_eq!((g.out_h, g.out_w), (28, 28)); // "same" conv
/// # Ok::<(), mpt_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes the output size for the given convolution parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Geometry`] if the stride is zero or the
    /// kernel does not fit in the padded input.
    pub fn new(
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, ShapeError> {
        if stride == 0 {
            return Err(ShapeError::Geometry("stride must be non-zero".into()));
        }
        if kernel_h == 0 || kernel_w == 0 {
            return Err(ShapeError::Geometry("kernel must be non-empty".into()));
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if kernel_h > padded_h || kernel_w > padded_w {
            return Err(ShapeError::Geometry(format!(
                "kernel {kernel_h}x{kernel_w} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        Ok(Conv2dGeometry {
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            padding,
            out_h: (padded_h - kernel_h) / stride + 1,
            out_w: (padded_w - kernel_w) / stride + 1,
        })
    }

    /// Number of output pixels per image.
    pub fn out_pixels(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// The output positions `o` along one axis (`out` of them) whose input
/// coordinate `o·stride + tap − padding` lies inside `0..size`: the run
/// over which kernel tap `tap` reads the image rather than the zero
/// padding. Empty when the tap misses the image entirely.
fn tap_range(out: usize, size: usize, tap: usize, geom: &Conv2dGeometry) -> Range<usize> {
    let s = geom.stride;
    let lo = geom.padding.saturating_sub(tap).div_ceil(s);
    let hi = (size + geom.padding)
        .saturating_sub(tap)
        .div_ceil(s)
        .min(out);
    lo..hi
}

/// `(batch, channels, height, width)` of an NCHW input that matches
/// `geom`.
fn nchw(input: &Tensor, geom: &Conv2dGeometry, op: &'static str) -> Result<[usize; 4], ShapeError> {
    if input.rank() != 4 {
        return Err(ShapeError::Rank {
            expected: 4,
            actual: input.rank(),
            op,
        });
    }
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.shape()[d]);
    if h != geom.in_h || w != geom.in_w {
        return Err(ShapeError::Geometry(format!(
            "input {h}x{w} does not match geometry {}x{}",
            geom.in_h, geom.in_w
        )));
    }
    Ok([n, c, h, w])
}

/// Unfolds an NCHW batch into the GEMM operand matrix
/// `[channels·kh·kw, batch·oh·ow]`. [`im2col_t`] builds its transpose
/// in one pass.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not rank 4 or its spatial size
/// disagrees with `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, ShapeError> {
    let [n, c, h, w] = nchw(input, geom, "im2col")?;
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * geom.out_pixels();
    let mut out = vec![0.0f32; rows * cols];
    let data = input.data();
    let s = geom.stride;
    for ch in 0..c {
        for kh in 0..geom.kernel_h {
            let ys = tap_range(geom.out_h, h, kh, geom);
            for kw in 0..geom.kernel_w {
                let xs = tap_range(geom.out_w, w, kw, geom);
                if xs.is_empty() {
                    continue;
                }
                let row = (ch * geom.kernel_h + kh) * geom.kernel_w + kw;
                for img in 0..n {
                    for oy in ys.clone() {
                        let iy = oy * s + kh - geom.padding;
                        let src = ((img * c + ch) * h + iy) * w + xs.start * s + kw - geom.padding;
                        let dst = row * cols + img * geom.out_pixels() + oy * geom.out_w;
                        let run = &mut out[dst + xs.start..dst + xs.end];
                        if s == 1 {
                            run.copy_from_slice(&data[src..src + run.len()]);
                        } else {
                            for (o, &v) in run.iter_mut().zip(data[src..].iter().step_by(s)) {
                                *o = v;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![rows, cols], out)
}

/// Unfolds an NCHW batch into `[batch·oh·ow, channels·kh·kw]`, equal
/// bit for bit to `im2col(input, geom)?.transpose()` without building
/// the untransposed matrix: the weight-gradient operand `colsᵀ` of a
/// convolution's backward pass.
///
/// Each output row is one output pixel; for every `(channel, kh)` its
/// in-bounds `kw` taps are one contiguous run of the input row.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not rank 4 or its spatial size
/// disagrees with `geom`.
pub fn im2col_t(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, ShapeError> {
    let [n, c, _, _] = nchw(input, geom, "im2col_t")?;
    let (rows, k) = (n * geom.out_pixels(), c * geom.kernel_h * geom.kernel_w);
    let mut out = vec![0.0f32; rows * k];
    // A kernel row is a handful of elements: at the common widths a
    // fixed-length copy, not a `memcpy` call, moves each run.
    match geom.kernel_w {
        1 => unfold_t::<1>(input, geom, &mut out),
        3 => unfold_t::<3>(input, geom, &mut out),
        5 => unfold_t::<5>(input, geom, &mut out),
        _ => unfold_t::<0>(input, geom, &mut out),
    }
    Ok(Tensor::from_vec(vec![rows, k], out).expect("rows·k elements"))
}

/// The loop nest of [`im2col_t`] over a validated `input`, writing the
/// in-bounds runs into the zero-filled `out`. A run that covers the
/// whole kernel row is copied as `[f32; KW]` (`KW == 0`: every run at
/// run-time length).
fn unfold_t<const KW: usize>(input: &Tensor, geom: &Conv2dGeometry, out: &mut [f32]) {
    let [n, c, h, w] = [0, 1, 2, 3].map(|d| input.shape()[d]);
    let (kh_n, kw_n, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let k = c * kh_n * kw_n;
    let data = input.data();
    // Per output coordinate, the taps that read the image: the `tap`s
    // whose `tap_range` holds it, which are contiguous.
    let taps = |out_len: usize, size: usize, kernel: usize| {
        let mut t = vec![kernel..0; out_len];
        for tap in 0..kernel {
            for o in tap_range(out_len, size, tap, geom) {
                t[o] = t[o].start.min(tap)..tap + 1;
            }
        }
        t
    };
    let (ky_taps, kx_taps) = (taps(geom.out_h, h, kh_n), taps(geom.out_w, w, kw_n));
    for img in 0..n {
        for (oy, kys) in ky_taps.iter().enumerate() {
            for (ox, kxs) in kx_taps.iter().enumerate() {
                if kxs.is_empty() {
                    continue;
                }
                let row = (img * geom.out_h + oy) * geom.out_w + ox;
                let dst_row = &mut out[row * k..(row + 1) * k];
                let run = kxs.len();
                for ch in 0..c {
                    for ky in kys.clone() {
                        let iy = oy * s + ky - p;
                        let src = ((img * c + ch) * h + iy) * w + ox * s + kxs.start - p;
                        let dst = (ch * kh_n + ky) * kw_n + kxs.start;
                        let (dst, src) = (&mut dst_row[dst..dst + run], &data[src..src + run]);
                        if KW > 0 && run == KW {
                            let dst: &mut [f32; KW] = dst.try_into().expect("run is KW long");
                            *dst = src.try_into().expect("run is KW long");
                        } else {
                            dst.copy_from_slice(src);
                        }
                    }
                }
            }
        }
    }
}

/// Folds a `[channels·kh·kw, batch·oh·ow]` matrix back into an NCHW
/// batch by scatter-add — the adjoint of [`im2col`], used in the
/// backward pass to accumulate input gradients.
///
/// # Errors
///
/// Returns [`ShapeError`] if `cols` is not rank 2 or its shape
/// disagrees with `geom`/`batch`/`channels`.
pub fn col2im(
    cols: &Tensor,
    batch: usize,
    channels: usize,
    geom: &Conv2dGeometry,
) -> Result<Tensor, ShapeError> {
    let (rows, ncols) = cols.as_matrix()?;
    let expected_rows = channels * geom.kernel_h * geom.kernel_w;
    let expected_cols = batch * geom.out_pixels();
    if rows != expected_rows || ncols != expected_cols {
        return Err(ShapeError::Mismatch {
            left: vec![rows, ncols],
            right: vec![expected_rows, expected_cols],
            op: "col2im",
        });
    }
    let (h, w) = (geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; batch * channels * h * w];
    let data = cols.data();
    let s = geom.stride;
    // Walking taps outermost keeps every sum bit-exact: an image element
    // receives at most one term per (kh, kw), in ascending order.
    for ch in 0..channels {
        for kh in 0..geom.kernel_h {
            let ys = tap_range(geom.out_h, h, kh, geom);
            for kw in 0..geom.kernel_w {
                let xs = tap_range(geom.out_w, w, kw, geom);
                if xs.is_empty() {
                    continue;
                }
                let row = (ch * geom.kernel_h + kh) * geom.kernel_w + kw;
                for img in 0..batch {
                    for oy in ys.clone() {
                        let iy = oy * s + kh - geom.padding;
                        let dst =
                            ((img * channels + ch) * h + iy) * w + xs.start * s + kw - geom.padding;
                        let src = row * ncols + img * geom.out_pixels() + oy * geom.out_w;
                        let run = &data[src + xs.start..src + xs.end];
                        // A plain zip vectorizes; `step_by(1)` does not.
                        if s == 1 {
                            for (o, &v) in out[dst..dst + run.len()].iter_mut().zip(run) {
                                *o += v;
                            }
                        } else {
                            for (o, &v) in out[dst..].iter_mut().step_by(s).zip(run) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![batch, channels, h, w], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_conv() {
        let g = Conv2dGeometry::new(32, 32, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (32, 32));
        assert_eq!(g.out_pixels(), 1024);
    }

    #[test]
    fn geometry_strided() {
        let g = Conv2dGeometry::new(32, 32, 3, 3, 2, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (16, 16));
    }

    #[test]
    fn geometry_invalid() {
        assert!(Conv2dGeometry::new(4, 4, 3, 3, 0, 0).is_err());
        assert!(Conv2dGeometry::new(2, 2, 5, 5, 1, 0).is_err());
        assert!(Conv2dGeometry::new(4, 4, 0, 3, 1, 0).is_err());
    }

    #[test]
    fn im2col_1x1_kernel_is_reshape() {
        // With a 1x1 kernel, stride 1, no padding, the cols matrix is
        // just a [C, N*H*W] rearrangement.
        let input = Tensor::from_fn(vec![1, 2, 2, 2], |i| i as f32);
        let g = Conv2dGeometry::new(2, 2, 1, 1, 1, 0).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), &[0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn im2col_known_3x3() {
        // Single 3x3 image, 2x2 kernel, stride 1, no padding:
        // 4 output pixels, 4 rows.
        let input =
            Tensor::from_vec(vec![1, 1, 3, 3], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]).unwrap();
        let g = Conv2dGeometry::new(3, 3, 2, 2, 1, 0).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // Row 0 is the top-left kernel tap across output pixels.
        assert_eq!(&cols.data()[0..4], &[1., 2., 4., 5.]);
        // Row 3 is the bottom-right tap.
        assert_eq!(&cols.data()[12..16], &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let input = Tensor::ones(vec![1, 1, 2, 2]);
        let g = Conv2dGeometry::new(2, 2, 3, 3, 1, 1).unwrap();
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.shape(), &[9, 4]);
        // Center tap row sees all four ones.
        assert_eq!(&cols.data()[4 * 4..5 * 4], &[1., 1., 1., 1.]);
        // Top-left tap only overlaps the image at output (1,1).
        assert_eq!(&cols.data()[0..4], &[0., 0., 0., 1.]);
    }

    #[test]
    fn conv_via_gemm_matches_direct() {
        // Direct convolution vs weights × im2col.
        let input = Tensor::from_fn(vec![2, 3, 5, 5], |i| ((i * 7) % 11) as f32 - 5.0);
        let g = Conv2dGeometry::new(5, 5, 3, 3, 1, 1).unwrap();
        let oc = 4;
        let weights = Tensor::from_fn(vec![oc, 3 * 3 * 3], |i| ((i * 3) % 5) as f32 - 2.0);
        let cols = im2col(&input, &g).unwrap();
        let out = weights.matmul(&cols).unwrap(); // [oc, N*OH*OW]

        // Direct computation.
        for img in 0..2 {
            for o in 0..oc {
                for oy in 0..g.out_h {
                    for ox in 0..g.out_w {
                        let mut acc = 0.0f32;
                        for ch in 0..3 {
                            for kh in 0..3 {
                                for kw in 0..3 {
                                    let iy = oy as isize + kh as isize - 1;
                                    let ix = ox as isize + kw as isize - 1;
                                    if !(0..5).contains(&iy) || !(0..5).contains(&ix) {
                                        continue;
                                    }
                                    let wv = weights.at(&[o, (ch * 3 + kh) * 3 + kw]);
                                    let iv = input.at(&[img, ch, iy as usize, ix as usize]);
                                    acc += wv * iv;
                                }
                            }
                        }
                        let col = img * g.out_pixels() + oy * g.out_w + ox;
                        let got = out.at(&[o, col]);
                        assert!(
                            (got - acc).abs() < 1e-3,
                            "({img},{o},{oy},{ox}): {got} vs {acc}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint
        // property that makes the conv backward pass correct.
        let x = Tensor::from_fn(vec![2, 2, 4, 4], |i| ((i * 13) % 7) as f32 - 3.0);
        let g = Conv2dGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let y = Tensor::from_fn(cols.shape().to_vec(), |i| ((i * 5) % 9) as f32 - 4.0);
        let folded = col2im(&y, 2, 2, &g).unwrap();

        let lhs: f64 = cols
            .data()
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(folded.data())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-6 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn col2im_shape_validated() {
        let g = Conv2dGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
        let bad = Tensor::zeros(vec![5, 5]);
        assert!(col2im(&bad, 1, 1, &g).is_err());
    }

    #[test]
    fn im2col_requires_rank_4() {
        let g = Conv2dGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
        assert!(im2col(&Tensor::zeros(vec![4, 4]), &g).is_err());
        assert!(im2col_t(&Tensor::zeros(vec![4, 4]), &g).is_err());
        assert!(im2col_t(&Tensor::zeros(vec![1, 1, 5, 4]), &g).is_err());
    }

    #[test]
    fn im2col_t_is_transposed_im2col_bit_for_bit() {
        // (channels, h, w, kernel, stride, padding)
        let cases = [
            (1, 28, 28, 5, 1, 2), // LeNet conv1
            (6, 14, 14, 5, 1, 0), // LeNet conv2
            (3, 8, 8, 3, 1, 1),
            (3, 8, 8, 3, 2, 1),
            (2, 7, 9, 3, 2, 1), // odd, non-square: last column's taps clip
            (4, 5, 6, 1, 1, 0),
            (2, 3, 3, 5, 1, 2), // every output pixel loses some taps
            (2, 3, 3, 1, 1, 2), // the border pixels read only padding
        ];
        for (c, h, w, k, s, p) in cases {
            let g = Conv2dGeometry::new(h, w, k, k, s, p).unwrap();
            for batch in [1, 3] {
                // Signed zeros and a NaN payload: a copy keeps all bits.
                let x = Tensor::from_fn(vec![batch, c, h, w], |i| match i % 17 {
                    5 => -0.0,
                    11 => f32::from_bits(0x7fc0_1234),
                    _ => ((i * 37) % 23) as f32 - 11.5,
                });
                let want = im2col(&x, &g).unwrap().transpose().unwrap();
                let got = im2col_t(&x, &g).unwrap();
                assert_eq!(
                    got.shape(),
                    want.shape(),
                    "{c}x{h}x{w} k{k} s{s} p{p} n{batch}"
                );
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&got) == bits(&want),
                    "{c}x{h}x{w} k{k} s{s} p{p} n{batch}"
                );
            }
        }
    }
}
