//! Block floating-point (BFP) formats.
//!
//! In block floating point a group of values shares one exponent
//! (taken from the block's largest magnitude) while each element keeps
//! a private `m`-bit signed mantissa. This halves per-element storage
//! versus floating point at the cost of dynamic range inside the
//! block. The paper lists blocked FP among MPTorch's supported
//! families (Section III); frameworks like FAST \[9\] train with it.

use crate::error::FormatError;
use crate::float::exponent_of;
use crate::rounding::{round_scaled, Rounding};
use crate::sr::SrRng;
use std::fmt;

/// A block floating-point format: `man_bits`-bit signed mantissas
/// sharing one exponent per block of `block_size` values.
///
/// # Example
///
/// ```
/// use mpt_formats::{BlockFpFormat, Rounding, SrRng};
///
/// let bfp = BlockFpFormat::new(4, 16)?;
/// let rng = SrRng::new(0);
/// let block = [1.0f64, 0.5, -0.25, 0.06];
/// let q = bfp.quantize_block(&block, Rounding::Nearest, &rng, 0);
/// assert_eq!(q[0], 1.0); // the max sets the shared exponent
/// # Ok::<(), mpt_formats::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockFpFormat {
    man_bits: u32,
    block_size: usize,
}

impl BlockFpFormat {
    /// Creates a BFP format with `man_bits` mantissa bits per element
    /// and `block_size` elements per shared exponent.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::MantissaWidth`] if `man_bits` is 0 or
    /// greater than 52, or [`FormatError::BlockSize`] if
    /// `block_size == 0`.
    pub fn new(man_bits: u32, block_size: usize) -> Result<Self, FormatError> {
        if man_bits == 0 || man_bits > 52 {
            return Err(FormatError::MantissaWidth(man_bits));
        }
        if block_size == 0 {
            return Err(FormatError::BlockSize(block_size));
        }
        Ok(BlockFpFormat {
            man_bits,
            block_size,
        })
    }

    /// Mantissa width per element, in bits.
    pub fn man_bits(&self) -> u32 {
        self.man_bits
    }

    /// Number of elements sharing one exponent.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Per-element storage width (sign + mantissa); the shared
    /// exponent (8 bits) is amortized over the block.
    pub fn bit_width(&self) -> u32 {
        1 + self.man_bits
    }

    /// Quantizes one block (at most [`block_size`] values) against a
    /// shared exponent derived from the block maximum.
    ///
    /// Stochastic rounding uses `base_index + i` as the event index of
    /// element `i`, keeping the randomness reproducible under any
    /// evaluation order.
    ///
    /// [`block_size`]: BlockFpFormat::block_size
    pub fn quantize_block(
        &self,
        block: &[f64],
        mode: Rounding,
        rng: &SrRng,
        base_index: u64,
    ) -> Vec<f64> {
        if matches!(mode, Rounding::NoRound) {
            return block.to_vec();
        }
        let max_abs = block
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(0.0f64, |a, v| a.max(v.abs()));
        if max_abs == 0.0 {
            return block.to_vec();
        }
        let grid = self.grid(max_abs);
        block
            .iter()
            .enumerate()
            .map(|(i, &v)| grid.quantize(v, mode, rng, base_index + i as u64))
            .collect()
    }

    /// Quantizes a single value as a block of one (its own magnitude
    /// sets the exponent) — bit-identical to
    /// `quantize_block(&[x], ..)[0]` without the two heap allocations,
    /// which is what the scalar [`crate::NumberFormat::quantize`] API
    /// (one call per MAC on the generic GEMM path) needs.
    #[inline]
    pub fn quantize_one(&self, x: f64, mode: Rounding, rng: &SrRng, index: u64) -> f64 {
        if matches!(mode, Rounding::NoRound) || !x.is_finite() || x == 0.0 {
            return x;
        }
        self.grid(x.abs()).quantize(x, mode, rng, index)
    }

    /// The mantissa grid of a block whose largest finite magnitude is
    /// `max_abs > 0`: ulp = `2^(shared_exp - man_bits + 1)`, so the
    /// maximum's mantissa occupies `man_bits` bits.
    fn grid(&self, max_abs: f64) -> BlockGrid {
        let ulp_exp = exponent_of(max_abs) - self.man_bits as i32 + 1;
        BlockGrid {
            scale: 2f64.powi(-ulp_exp),
            ulp: 2f64.powi(ulp_exp),
            limit: 2f64.powi(self.man_bits as i32) - 1.0,
        }
    }

    /// Quantizes a full slice in consecutive blocks of
    /// [`block_size`](BlockFpFormat::block_size); a trailing partial
    /// block is quantized against its own maximum.
    pub fn quantize_slice(
        &self,
        values: &[f64],
        mode: Rounding,
        rng: &SrRng,
        base_index: u64,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(values.len());
        for (b, chunk) in values.chunks(self.block_size).enumerate() {
            let idx = base_index + (b * self.block_size) as u64;
            out.extend(self.quantize_block(chunk, mode, rng, idx));
        }
        out
    }
}

/// One block's shared-exponent grid (see [`BlockFpFormat::grid`]).
struct BlockGrid {
    /// `1 / ulp`.
    scale: f64,
    /// Grid step.
    ulp: f64,
    /// Largest mantissa magnitude, `2^man_bits - 1`.
    limit: f64,
}

impl BlockGrid {
    #[inline]
    fn quantize(&self, v: f64, mode: Rounding, rng: &SrRng, index: u64) -> f64 {
        if !v.is_finite() {
            return v;
        }
        let r = round_scaled(v * self.scale, mode, rng, index);
        r.clamp(-self.limit, self.limit) * self.ulp
    }
}

impl fmt::Display for BlockFpFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BFP{}x{}", self.man_bits, self.block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SrRng {
        SrRng::new(17)
    }

    #[test]
    fn invalid_rejected() {
        assert!(BlockFpFormat::new(0, 8).is_err());
        assert!(BlockFpFormat::new(53, 8).is_err());
        assert!(BlockFpFormat::new(4, 0).is_err());
    }

    #[test]
    fn max_element_survives() {
        let bfp = BlockFpFormat::new(4, 8).unwrap();
        let block = [3.0, 0.1, -0.2, 0.7];
        let q = bfp.quantize_block(&block, Rounding::Nearest, &rng(), 0);
        assert_eq!(q[0], 3.0);
    }

    #[test]
    fn small_elements_coarsen() {
        let bfp = BlockFpFormat::new(3, 8).unwrap();
        // max 4.0 -> shared_exp 2, ulp = 2^(2-3+1) = 1.0.
        let q = bfp.quantize_block(&[4.0, 0.3, 0.6], Rounding::Nearest, &rng(), 0);
        assert_eq!(q[1], 0.0);
        assert_eq!(q[2], 1.0);
    }

    #[test]
    fn zero_block_unchanged() {
        let bfp = BlockFpFormat::new(4, 4).unwrap();
        let q = bfp.quantize_block(&[0.0, 0.0], Rounding::Nearest, &rng(), 0);
        assert_eq!(q, vec![0.0, 0.0]);
    }

    #[test]
    fn slice_quantizes_per_block() {
        let bfp = BlockFpFormat::new(3, 2).unwrap();
        // Two blocks with very different ranges: the second block's
        // small values survive because they get their own exponent.
        let vals = [8.0, 0.4, 0.5, 0.25];
        let q = bfp.quantize_slice(&vals, Rounding::Nearest, &rng(), 0);
        assert_eq!(q[0], 8.0);
        assert_eq!(q[1], 0.0); // crushed by 8.0's exponent (ulp = 2)
        assert_eq!(q[2], 0.5); // own block: survives
        assert_eq!(q[3], 0.25);
    }

    #[test]
    fn no_round_is_identity() {
        let bfp = BlockFpFormat::new(2, 4).unwrap();
        let vals = [1.234, 0.577];
        assert_eq!(
            bfp.quantize_block(&vals, Rounding::NoRound, &rng(), 0),
            vals.to_vec()
        );
    }

    #[test]
    fn stochastic_stays_on_grid() {
        let bfp = BlockFpFormat::new(3, 4).unwrap();
        let vals = [4.0, 1.3, 2.7, 0.4];
        let q = bfp.quantize_block(&vals, Rounding::stochastic(), &rng(), 0);
        // ulp = 2^(2-3+1) = 1.0: every output is an integer.
        for v in q {
            assert_eq!(v.fract(), 0.0, "{v}");
        }
    }

    #[test]
    fn quantize_one_is_a_block_of_one() {
        let modes = [
            Rounding::Nearest,
            Rounding::TowardZero,
            Rounding::stochastic(),
            Rounding::ToOdd,
            Rounding::NoRound,
        ];
        for bfp in [
            BlockFpFormat::new(1, 4).unwrap(),
            BlockFpFormat::new(3, 4).unwrap(),
            BlockFpFormat::new(52, 1).unwrap(),
        ] {
            for mode in modes {
                for (i, x) in [
                    0.0,
                    -0.0,
                    1.0,
                    -2.7,
                    1.0e-310,
                    f64::MAX,
                    f64::MIN_POSITIVE,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                ]
                .into_iter()
                .enumerate()
                {
                    let want = bfp.quantize_block(&[x], mode, &rng(), i as u64)[0];
                    let got = bfp.quantize_one(x, mode, &rng(), i as u64);
                    assert_eq!(got.to_bits(), want.to_bits(), "{bfp}-{mode} x {x:e}");
                }
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(BlockFpFormat::new(4, 16).unwrap().to_string(), "BFP4x16");
    }
}
