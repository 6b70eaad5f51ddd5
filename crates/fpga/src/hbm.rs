//! HBM word packing.
//!
//! The accelerator reads operands through 512-bit HBM pseudo-channel
//! ports; stage 2 of the padding pipeline (Section IV-A) exists
//! precisely so rows fill whole ports: "the memory pack size is
//! 512/8 = 64" for 8-bit values. This module performs the actual bit
//! packing — encoding quantized `f32` carriers into dense 512-bit
//! words through the formats' codecs. An image's size is the closed
//! form [`HbmImage::packed_bytes`] of shape × bit width, so the
//! launch paths model pack and transfer time without building one;
//! the words exist only where somebody reads them: a faulted
//! transfer, and the tests that pin the layout's lossless round trip.
//!
//! Every image carries a CRC-32 over its packed words, computed at
//! pack time and verified on [`HbmImage::unpack`]. A transfer that
//! delivers corrupted bits (the `HbmCorruption` fault site) is
//! detected — CRC-32 catches every burst error up to 32 bits, so any
//! single corrupted byte is *guaranteed* to surface as
//! [`HbmError::Corrupted`], never as silently wrong tensor data.

use crate::config::HBM_PORT_BITS;
use mpt_faults::crc::Crc32;
use mpt_formats::NumberFormat;
use mpt_tensor::{ShapeError, Tensor};
use std::fmt;

/// Bytes in one 512-bit HBM word.
const WORD_BYTES: usize = HBM_PORT_BITS / 8;

/// Failure decoding an HBM image back into a tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum HbmError {
    /// The packed words no longer match the checksum computed at pack
    /// time: the transfer corrupted the data and it must be re-sent.
    Corrupted {
        /// CRC recorded when the image was packed.
        expected: u32,
        /// CRC of the words as they arrived.
        found: u32,
    },
    /// The image's own geometry is inconsistent (never produced by
    /// [`HbmImage::pack`]).
    Shape(ShapeError),
}

impl fmt::Display for HbmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbmError::Corrupted { expected, found } => write!(
                f,
                "HBM image corrupted in transfer: CRC-32 {found:#010x}, expected {expected:#010x}"
            ),
            HbmError::Shape(e) => write!(f, "HBM image geometry error: {e}"),
        }
    }
}

impl std::error::Error for HbmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HbmError::Shape(e) => Some(e),
            HbmError::Corrupted { .. } => None,
        }
    }
}

impl From<ShapeError> for HbmError {
    fn from(e: ShapeError) -> Self {
        HbmError::Shape(e)
    }
}

/// A matrix packed row-major into 512-bit HBM words.
///
/// # Example
///
/// ```
/// use mpt_fpga::hbm::HbmImage;
/// use mpt_formats::{FloatFormat, NumberFormat};
/// use mpt_tensor::Tensor;
///
/// let fmt = NumberFormat::from(FloatFormat::e5m2());
/// let t = Tensor::from_vec(vec![2, 64], vec![0.5; 128])?;
/// let image = HbmImage::pack(&t, fmt)?;
/// assert_eq!(image.words_per_row(), 1); // 64 FP8 values = 512 bits
/// assert_eq!(image.unpack()?, t);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HbmImage {
    rows: usize,
    cols: usize,
    format: NumberFormat,
    /// 512-bit words stored as 8 × u64 limbs each, row-major.
    words: Vec<[u64; 8]>,
    words_per_row: usize,
    /// CRC-32 of `words`, computed at pack time.
    crc: u32,
}

impl HbmImage {
    /// Packs a 2-D tensor of format-representable values into HBM
    /// words. Values are encoded with the format's codec; each row
    /// starts on a fresh word (rows whose length is a multiple of the
    /// memory tile — stage-2 padding — waste nothing).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `t` is not a matrix.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a value is not representable in
    /// `format` (pack after quantization).
    pub fn pack(t: &Tensor, format: NumberFormat) -> Result<Self, ShapeError> {
        let (rows, cols) = t.as_matrix()?;
        let bits = format.bit_width() as usize;
        let per_word = HBM_PORT_BITS / bits;
        let words_per_row = cols.div_ceil(per_word);
        let mut words = vec![[0u64; 8]; Self::packed_bytes(rows, cols, format) / WORD_BYTES];
        for r in 0..rows {
            let row = &t.data()[r * cols..(r + 1) * cols];
            let row_words = &mut words[r * words_per_row..(r + 1) * words_per_row];
            for (word, values) in row_words.iter_mut().zip(row.chunks(per_word)) {
                for (i, &v) in values.iter().enumerate() {
                    write_bits(word, i * bits, bits, encode(format, v));
                }
            }
        }
        let crc = words_crc(&words);
        Ok(HbmImage {
            rows,
            cols,
            format,
            words,
            words_per_row,
            crc,
        })
    }

    /// Packed size in bytes of a `rows × cols` matrix of `format`
    /// values, each row filling whole 512-bit words: what
    /// [`pack`](Self::pack) allocates and [`byte_size`](Self::byte_size)
    /// reports, computable without an image.
    pub fn packed_bytes(rows: usize, cols: usize, format: NumberFormat) -> usize {
        let per_word = HBM_PORT_BITS / format.bit_width() as usize;
        rows * cols.div_ceil(per_word) * WORD_BYTES
    }

    /// Number of 512-bit words per matrix row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Total packed size in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * WORD_BYTES
    }

    /// The element format.
    pub fn format(&self) -> NumberFormat {
        self.format
    }

    /// The checksum recorded at pack time.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Verifies the packed words against the pack-time checksum.
    ///
    /// # Errors
    ///
    /// Returns [`HbmError::Corrupted`] if any bit of the words
    /// changed since [`pack`](Self::pack).
    pub fn verify(&self) -> Result<(), HbmError> {
        let found = words_crc(&self.words);
        if found != self.crc {
            return Err(HbmError::Corrupted {
                expected: self.crc,
                found,
            });
        }
        Ok(())
    }

    /// XORs `mask` into one byte of the packed words — the hook the
    /// fault injector (and the corruption proptests) use to model a
    /// failed HBM transfer. The pack-time CRC is deliberately left
    /// untouched, so a non-zero mask makes [`unpack`](Self::unpack)
    /// fail. Out-of-range indices wrap; a zero mask is a no-op.
    pub fn corrupt_byte(&mut self, byte_index: usize, mask: u8) {
        if self.words.is_empty() {
            return;
        }
        let i = byte_index % self.byte_size();
        let limb = &mut self.words[i / WORD_BYTES][(i % WORD_BYTES) / 8];
        *limb ^= (mask as u64) << ((i % 8) * 8);
    }

    /// Decodes the image back into a tensor of `f32` carriers, first
    /// verifying transfer integrity.
    ///
    /// # Errors
    ///
    /// Returns [`HbmError::Corrupted`] when the words fail the CRC
    /// check (corrupted transfer — never panics, never yields wrong
    /// tensors), or [`HbmError::Shape`] on internal geometry
    /// inconsistency (never for images produced by
    /// [`pack`](Self::pack)).
    pub fn unpack(&self) -> Result<Tensor, HbmError> {
        self.verify()?;
        let bits = self.format.bit_width() as usize;
        let per_word = HBM_PORT_BITS / bits;
        let mut data = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let row = &mut data[r * self.cols..(r + 1) * self.cols];
            let row_words = &self.words[r * self.words_per_row..(r + 1) * self.words_per_row];
            for (word, values) in row_words.iter().zip(row.chunks_mut(per_word)) {
                for (i, v) in values.iter_mut().enumerate() {
                    *v = decode(self.format, read_bits(word, i * bits, bits));
                }
            }
        }
        Ok(Tensor::from_vec(vec![self.rows, self.cols], data)?)
    }
}

/// CRC-32 over the words' limbs in storage order (little-endian
/// bytes), absorbed one whole 64-byte word at a time.
fn words_crc(words: &[[u64; 8]]) -> u32 {
    let mut h = Crc32::new();
    let mut bytes = [0u8; WORD_BYTES];
    for w in words {
        for (chunk, limb) in bytes.chunks_exact_mut(8).zip(w) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        h.update(&bytes);
    }
    h.finish()
}

fn encode(format: NumberFormat, v: f32) -> u64 {
    match format {
        NumberFormat::Float(f) => f.encode(v as f64),
        NumberFormat::Fixed(f) => f.encode(v as f64),
        // BFP shared exponents are stored out of band; pack mantissa
        // codes against the value's own exponent via the float codec
        // of equal width (not exercised by the accelerator path).
        NumberFormat::BlockFp(_) => {
            unimplemented!("block FP uses out-of-band exponent packing")
        }
    }
}

fn decode(format: NumberFormat, code: u64) -> f32 {
    match format {
        NumberFormat::Float(f) => f.decode(code) as f32,
        NumberFormat::Fixed(f) => f.decode(code) as f32,
        NumberFormat::BlockFp(_) => {
            unimplemented!("block FP uses out-of-band exponent packing")
        }
    }
}

fn write_bits(word: &mut [u64; 8], off: usize, len: usize, value: u64) {
    debug_assert!(len <= 64 && off + len <= 512);
    let limb = off / 64;
    let shift = off % 64;
    word[limb] |= value << shift;
    if shift + len > 64 {
        word[limb + 1] |= value >> (64 - shift);
    }
}

fn read_bits(word: &[u64; 8], off: usize, len: usize) -> u64 {
    let limb = off / 64;
    let shift = off % 64;
    let mut v = word[limb] >> shift;
    if shift + len > 64 {
        v |= word[limb + 1] << (64 - shift);
    }
    if len < 64 {
        v &= (1u64 << len) - 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_formats::{FixedFormat, FloatFormat, Quantizer, Rounding};

    fn quantized(rows: usize, cols: usize, q: Quantizer) -> Tensor {
        let mut t = Tensor::from_fn(vec![rows, cols], |i| ((i * 37 % 101) as f32 - 50.0) * 0.07);
        q.quantize_slice_f32(t.data_mut(), 0);
        t
    }

    /// Every dense format the repo's configs name. Widths 8, 12, 16,
    /// 24 and 32 bit: 12 (42 per word) and 24 (21) do not divide 512.
    fn named_formats() -> [NumberFormat; 10] {
        [
            FloatFormat::e5m2().into(),
            FloatFormat::e4m3().into(),
            FloatFormat::e6m5().into(),
            FloatFormat::e5m10().into(),
            FloatFormat::bf16().into(),
            FloatFormat::e8m23().into(),
            FixedFormat::fxp4_4().into(),
            FixedFormat::fxp8_4().into(),
            FixedFormat::fxp8_8().into(),
            FixedFormat::fxp16_8().into(),
        ]
    }

    proptest::proptest! {
        /// The closed form is the size `pack` produces, for every
        /// named format and shapes that include empty matrices and
        /// rows that end mid-word.
        #[test]
        fn packed_bytes_is_what_pack_produces(
            sel in 0usize..10,
            rows in 0usize..5,
            cols in 0usize..140,
        ) {
            let format = named_formats()[sel];
            let t = quantized(rows, cols, Quantizer::new(format, Rounding::Nearest));
            let img = HbmImage::pack(&t, format).unwrap();
            proptest::prop_assert_eq!(img.byte_size(), HbmImage::packed_bytes(rows, cols, format));
            proptest::prop_assert_eq!(img.unpack().unwrap(), t);
        }
    }

    #[test]
    fn packed_bytes_rounds_rows_up_to_whole_words() {
        let fp12 = NumberFormat::from(FloatFormat::e6m5());
        assert_eq!(HbmImage::packed_bytes(3, 42, fp12), 3 * 64);
        assert_eq!(HbmImage::packed_bytes(3, 43, fp12), 3 * 2 * 64);
        assert_eq!(HbmImage::packed_bytes(1, 1, fp12), 64);
        for format in named_formats() {
            assert_eq!(HbmImage::packed_bytes(0, 17, format), 0, "0 x k");
            assert_eq!(HbmImage::packed_bytes(17, 0, format), 0, "n x 0");
            let empty = HbmImage::pack(&Tensor::zeros(vec![0, 17]), format).unwrap();
            assert_eq!(empty.byte_size(), 0);
            assert_eq!(empty.unpack().unwrap(), Tensor::zeros(vec![0, 17]));
            let thin = HbmImage::pack(&Tensor::zeros(vec![17, 0]), format).unwrap();
            assert_eq!(thin.byte_size(), 0);
            assert_eq!(thin.unpack().unwrap(), Tensor::zeros(vec![17, 0]));
        }
    }

    #[test]
    fn fp8_packs_64_per_word() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            3,
            64,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 1);
        assert_eq!(img.byte_size(), 3 * 64);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn fp12_packs_42_per_word() {
        // 512 / 12 = 42 values per word (paper's T_mem for 12-bit).
        let fmt = NumberFormat::from(FloatFormat::e6m5());
        let t = quantized(
            2,
            84,
            Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 2);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn fixed_point_roundtrip() {
        let fmt = NumberFormat::from(FixedFormat::fxp8_8());
        let t = quantized(
            4,
            33,
            Quantizer::fixed(FixedFormat::fxp8_8(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 2); // 32 per word -> 33 needs 2
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn ragged_rows_round_trip() {
        // Unaligned row length (what stage-2 padding avoids) still
        // round-trips — padding is a performance choice, not a
        // correctness one.
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            5,
            7,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn straddling_limb_boundaries() {
        // 12-bit values cross u64 limb boundaries inside the word.
        let fmt = NumberFormat::from(FloatFormat::e6m5());
        let q = Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest);
        let t = quantized(1, 42, q);
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 1);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            3,
            40,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let clean = HbmImage::pack(&t, fmt).unwrap();
        assert!(clean.verify().is_ok());
        let mut img = clean.clone();
        img.corrupt_byte(17, 0x40);
        match img.unpack() {
            Err(HbmError::Corrupted { expected, found }) => {
                assert_eq!(expected, clean.crc());
                assert_ne!(expected, found);
            }
            other => panic!("corruption must be a typed error, got {other:?}"),
        }
        // Flipping the same byte back restores integrity.
        img.corrupt_byte(17, 0x40);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn zero_mask_corruption_is_noop() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            1,
            8,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let mut img = HbmImage::pack(&t, fmt).unwrap();
        img.corrupt_byte(3, 0);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn negative_values_survive() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = Tensor::from_vec(vec![1, 4], vec![-1.5, -0.25, 0.0, -57344.0]).unwrap();
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.unpack().unwrap(), t);
    }
}
