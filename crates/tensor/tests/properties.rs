//! Property-based tests for tensor algebra invariants.

use mpt_tensor::{col2im, im2col, im2col_t, Conv2dGeometry, Tensor};
use proptest::prelude::*;

fn small_matrix(max: usize) -> impl Strategy<Value = Tensor> {
    (1..=max, 1..=max).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(vec![r, c], data).expect("valid"))
    })
}

proptest! {
    /// (A·B)·C == A·(B·C) up to FP32 noise.
    #[test]
    fn matmul_associative(
        a in small_matrix(6),
        bdata in proptest::collection::vec(-10.0f32..10.0, 36),
        cdata in proptest::collection::vec(-10.0f32..10.0, 36),
    ) {
        let k = a.shape()[1];
        let b = Tensor::from_vec(vec![k, 36 / k], bdata[..k * (36 / k)].to_vec()).expect("valid");
        let m = b.shape()[1];
        let c = Tensor::from_vec(vec![m, 36 / m], cdata[..m * (36 / m)].to_vec()).expect("valid");
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + x.abs()), "{} vs {}", x, y);
        }
    }

    /// Transposition reverses products: (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_law(a in small_matrix(6), bcols in 1usize..6) {
        let k = a.shape()[1];
        let b = Tensor::from_fn(vec![k, bcols], |i| ((i * 31 % 17) as f32 - 8.0) * 0.3);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Double transpose is the identity.
    #[test]
    fn transpose_involution(a in small_matrix(8)) {
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    /// matmul distributes over addition.
    #[test]
    fn matmul_distributes(a in small_matrix(5), seed in 0u64..100) {
        let k = a.shape()[1];
        let b = Tensor::from_fn(vec![k, 4], |i| (((i as u64 + seed) * 37 % 19) as f32 - 9.0) * 0.2);
        let c = Tensor::from_fn(vec![k, 4], |i| (((i as u64 + seed) * 53 % 23) as f32 - 11.0) * 0.1);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()));
        }
    }

    /// pad_to then crop_to round-trips.
    #[test]
    fn pad_crop_roundtrip(a in small_matrix(8), extra_r in 0usize..5, extra_c in 0usize..5) {
        let (r, c) = (a.shape()[0], a.shape()[1]);
        let padded = a.pad_to(r + extra_r, c + extra_c).unwrap();
        prop_assert_eq!(padded.crop_to(r, c).unwrap(), a);
    }

    /// Padding preserves matmul results: crop((A_pad)·(B_pad)) == A·B.
    /// This is the property the FPGA padding pipeline relies on.
    #[test]
    fn padded_matmul_equals_unpadded(
        a in small_matrix(6),
        bcols in 1usize..6,
        pad in 0usize..8,
    ) {
        let (n, k) = (a.shape()[0], a.shape()[1]);
        let b = Tensor::from_fn(vec![k, bcols], |i| ((i * 41 % 13) as f32 - 6.0) * 0.4);
        let plain = a.matmul(&b).unwrap();
        let ap = a.pad_to(n + pad, k + pad).unwrap();
        let bp = b.pad_to(k + pad, bcols + pad).unwrap();
        let padded = ap.matmul(&bp).unwrap().crop_to(n, bcols).unwrap();
        for (x, y) in plain.data().iter().zip(padded.data()) {
            prop_assert!((x - y).abs() < 1e-5, "{} vs {}", x, y);
        }
    }

    /// im2col/col2im adjointness: <im2col(x), y> == <x, col2im(y)>.
    #[test]
    fn im2col_adjoint(
        n in 1usize..3,
        c in 1usize..3,
        hw in 3usize..7,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        let geom = match Conv2dGeometry::new(hw, hw, kernel, kernel, stride, padding) {
            Ok(g) => g,
            Err(_) => return Ok(()),
        };
        let x = Tensor::from_fn(vec![n, c, hw, hw], |i| {
            (((i as u64 + seed) * 2654435761 % 101) as f32 - 50.0) * 0.07
        });
        let cols = im2col(&x, &geom).unwrap();
        let y = Tensor::from_fn(cols.shape().to_vec(), |i| {
            (((i as u64 + seed) * 40503 % 97) as f32 - 48.0) * 0.05
        });
        let folded = col2im(&y, n, c, &geom).unwrap();
        let lhs: f64 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.data().iter().zip(folded.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-4 * lhs.abs().max(1.0), "{} vs {}", lhs, rhs);
    }

    /// sum_rows equals matmul with a ones row-vector.
    #[test]
    fn sum_rows_matches_ones_product(a in small_matrix(8)) {
        let (r, _c) = (a.shape()[0], a.shape()[1]);
        let ones = Tensor::ones(vec![1, r]);
        let via_mm = ones.matmul(&a).unwrap();
        let direct = a.sum_rows().unwrap();
        for (x, y) in via_mm.data().iter().zip(direct.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}

/// The element-wise `im2col` nest the row-run version replaced, kept as
/// the bit-exact oracle: every element pays its own bounds test.
fn im2col_reference(input: &Tensor, geom: &Conv2dGeometry) -> Vec<f32> {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * geom.out_pixels();
    let mut out = vec![0.0f32; rows * cols];
    let data = input.data();
    let pad = geom.padding as isize;
    for img in 0..n {
        for ch in 0..c {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = (ch * geom.kernel_h + kh) * geom.kernel_w + kw;
                    for oy in 0..geom.out_h {
                        let iy = (oy * geom.stride) as isize + kh as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..geom.out_w {
                            let ix = (ox * geom.stride) as isize + kw as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = img * geom.out_pixels() + oy * geom.out_w + ox;
                            out[row * cols + col] =
                                data[((img * c + ch) * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// The element-wise `col2im` nest the row-run version replaced, kept as
/// the bit-exact oracle: each image element sums its terms in ascending
/// `(kh, kw)` order.
fn col2im_reference(
    cols: &Tensor,
    batch: usize,
    channels: usize,
    geom: &Conv2dGeometry,
) -> Vec<f32> {
    let ncols = cols.shape()[1];
    let (h, w) = (geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; batch * channels * h * w];
    let data = cols.data();
    let pad = geom.padding as isize;
    for img in 0..batch {
        for ch in 0..channels {
            for kh in 0..geom.kernel_h {
                for kw in 0..geom.kernel_w {
                    let row = (ch * geom.kernel_h + kh) * geom.kernel_w + kw;
                    for oy in 0..geom.out_h {
                        let iy = (oy * geom.stride) as isize + kh as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..geom.out_w {
                            let ix = (ox * geom.stride) as isize + kw as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = img * geom.out_pixels() + oy * geom.out_w + ox;
                            out[((img * channels + ch) * h + iy as usize) * w + ix as usize] +=
                                data[row * ncols + col];
                        }
                    }
                }
            }
        }
    }
    out
}

/// SplitMix64: the `i`-th pseudo-random word of stream `seed`.
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Image values a copy must carry bit for bit: −0.0, NaNs with payloads
/// and either sign, ±inf and subnormals, among arbitrary bit patterns.
fn awkward_f32(seed: u64, i: usize) -> f32 {
    let r = mix(seed, i);
    let sign = ((r >> 63) as u32) << 31;
    let payload = (r >> 8) as u32 & 0x007F_FFFF;
    f32::from_bits(match r % 6 {
        0 => 0x8000_0000,
        1 => sign | 0x7F80_0000 | payload.max(1),
        2 => sign | 0x7F80_0000,
        3 => sign | payload.max(1),
        _ => (r >> 32) as u32,
    })
}

/// Column values whose sums change bits when reordered: either sign,
/// magnitudes from 1e-8 to 1e8.
fn wide_f32(seed: u64, i: usize) -> f32 {
    let r = mix(seed, i);
    let mantissa = 1.0 + (r >> 40) as f32 / (1u64 << 24) as f32;
    let exponent = (r % 17) as i32 - 8;
    let sign = if r >> 63 == 1 { -1.0 } else { 1.0 };
    sign * mantissa * 10f32.powi(exponent)
}

fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks both lowerings against their oracles, and `im2col_t`
/// against `im2col`'s transpose, bit for bit, on one geometry and
/// batch.
fn lowering_matches_reference(
    n: usize,
    c: usize,
    geom: &Conv2dGeometry,
    seed: u64,
) -> TestCaseResult {
    let x = Tensor::from_fn(vec![n, c, geom.in_h, geom.in_w], |i| awkward_f32(seed, i));
    let cols = im2col(&x, geom).unwrap();
    prop_assert_eq!(
        to_bits(cols.data()),
        to_bits(&im2col_reference(&x, geom)),
        "im2col differs from the reference on {:?}",
        geom
    );
    prop_assert_eq!(
        to_bits(im2col_t(&x, geom).unwrap().data()),
        to_bits(cols.transpose().unwrap().data()),
        "im2col_t differs from im2col's transpose on {:?}",
        geom
    );
    let y = Tensor::from_fn(cols.shape().to_vec(), |i| wide_f32(seed, i));
    let folded = col2im(&y, n, c, geom).unwrap();
    prop_assert_eq!(
        to_bits(folded.data()),
        to_bits(&col2im_reference(&y, n, c, geom)),
        "col2im differs from the reference on {:?}",
        geom
    );
    Ok(())
}

/// Kernel sizes with a padding of up to one past the larger of them, so
/// some taps miss the image entirely.
fn kernel_and_padding() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(kh, kw)| (Just(kh), Just(kw), 0..=kh.max(kw) + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The row-run lowering is bit-identical to the element-wise nests
    /// (and `im2col_t` to the transposed `im2col`).
    #[test]
    fn lowering_matches_reference_bits(
        n in 1usize..=3,
        c in 1usize..=3,
        in_h in 1usize..=12,
        in_w in 1usize..=12,
        (kernel_h, kernel_w, padding) in kernel_and_padding(),
        stride in 1usize..=3,
        seed in any::<u64>(),
    ) {
        if let Ok(geom) = Conv2dGeometry::new(in_h, in_w, kernel_h, kernel_w, stride, padding) {
            lowering_matches_reference(n, c, &geom, seed)?;
        }
    }
}

#[test]
fn lowering_matches_reference_on_model_convs() {
    // LeNet conv1 and conv2, ResNet's strided 3x3 and 1x1 shortcut.
    for (hw, k, stride, padding) in [(28, 5, 1, 2), (14, 5, 1, 0), (16, 3, 2, 1), (16, 1, 2, 0)] {
        let geom = Conv2dGeometry::new(hw, hw, k, k, stride, padding).unwrap();
        lowering_matches_reference(2, 3, &geom, hw as u64 * 31 + k as u64).unwrap();
    }
}

/// The element-wise oracle of [`Tensor::swap_axes`]:
/// `out[s][j][i][k] = x[s][i][j][k]` over `[n, a, b, c]`.
fn swap_axes_reference(x: &[f32], [n, a, b, c]: [usize; 4]) -> Vec<f32> {
    let mut out = vec![0.0; x.len()];
    for s in 0..n {
        for i in 0..a {
            for j in 0..b {
                for k in 0..c {
                    out[((s * b + j) * a + i) * c + k] = x[((s * a + i) * b + j) * c + k];
                }
            }
        }
    }
    out
}

proptest! {
    /// `swap_axes` is bit-identical to the element-wise nest, on the
    /// tiled path (`c = 1`, with `a` and `b` up to two tiles and off the
    /// tile edge) and the run path (`c > 1`), over NaN payloads, `-0.0`,
    /// infinities and subnormals; swapping back is the identity.
    #[test]
    fn swap_axes_matches_reference_bits(
        n in 1usize..=3,
        a in 1usize..=70,
        b in 1usize..=70,
        run in 2usize..=6,
        seed in any::<u64>(),
    ) {
        for c in [1, run] {
            let dims = [n, a, b, c];
            let x = Tensor::from_fn(vec![n, a, b, c], |i| awkward_f32(seed, i));
            let y = x.swap_axes(dims, vec![n, b, a, c]).unwrap();
            prop_assert_eq!(y.shape(), &[n, b, a, c][..]);
            prop_assert_eq!(
                to_bits(y.data()),
                to_bits(&swap_axes_reference(x.data(), dims)),
                "swap_axes differs from the reference on {:?}",
                dims
            );
            let back = y.swap_axes([n, b, a, c], x.shape().to_vec()).unwrap();
            prop_assert_eq!(to_bits(back.data()), to_bits(x.data()), "swapping twice on {:?}", dims);
        }
    }
}
