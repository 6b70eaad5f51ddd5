//! Transfer-integrity property: byte-level corruption of a packed
//! [`HbmImage`] must surface as the typed [`HbmError::Corrupted`] —
//! never a panic, and never a silently wrong tensor. CRC-32 detects
//! every burst error up to 32 bits, so a single corrupted byte is
//! always caught regardless of position, mask, format or shape.

use mpt_formats::{FixedFormat, FloatFormat, NumberFormat, Quantizer, Rounding};
use mpt_fpga::{HbmError, HbmImage};
use mpt_tensor::Tensor;
use proptest::prelude::*;

/// A quantized matrix representable in `fmt` (pack requires on-grid
/// values), seeded by `data_seed`.
fn packed_image(fmt_sel: u8, rows: usize, cols: usize, data_seed: u64) -> (HbmImage, Tensor) {
    let (fmt, q) = match fmt_sel % 3 {
        0 => (
            NumberFormat::from(FloatFormat::e5m2()),
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        ),
        1 => (
            NumberFormat::from(FloatFormat::e6m5()),
            Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest),
        ),
        _ => (
            NumberFormat::from(FixedFormat::fxp8_8()),
            Quantizer::fixed(FixedFormat::fxp8_8(), Rounding::Nearest),
        ),
    };
    let mut t = Tensor::from_fn(vec![rows, cols], |i| {
        let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(data_seed);
        ((x % 257) as f32 - 128.0) * 0.043
    });
    q.quantize_slice_f32(t.data_mut(), 0);
    let img = HbmImage::pack(&t, fmt).expect("matrix packs");
    (img, t)
}

proptest! {
    /// Any single-byte XOR with a non-zero mask is rejected with the
    /// typed CRC error.
    #[test]
    fn corrupted_image_returns_typed_error(
        fmt_sel in 0u8..3,
        rows in 1usize..6,
        cols in 1usize..80,
        data_seed in any::<u64>(),
        byte in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (clean, t) = packed_image(fmt_sel, rows, cols, data_seed);
        prop_assert_eq!(clean.unpack().expect("clean image decodes"), t);

        let mut img = clean.clone();
        img.corrupt_byte(byte, mask);
        match img.unpack() {
            Err(HbmError::Corrupted { expected, found }) => {
                prop_assert_eq!(expected, clean.crc());
                prop_assert_ne!(expected, found);
            }
            Ok(_) => prop_assert!(false, "corruption decoded silently"),
            Err(other) => prop_assert!(false, "wrong error kind: {}", other),
        }
    }

    /// Double application of the same XOR restores the image — the
    /// CRC is a pure function of the words, holding no hidden state.
    #[test]
    fn corruption_roundtrip_restores(
        fmt_sel in 0u8..3,
        rows in 1usize..4,
        cols in 1usize..40,
        byte in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (clean, t) = packed_image(fmt_sel, rows, cols, 7);
        let mut img = clean;
        img.corrupt_byte(byte, mask);
        img.corrupt_byte(byte, mask);
        prop_assert_eq!(img.unpack().expect("restored image decodes"), t);
    }
}
