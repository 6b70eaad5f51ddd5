//! The paper's three-stage padding pipeline (Section IV-A).
//!
//! Stage 1 pads the partitioned dimension to split evenly across the
//! `C` cores; stage 2 pads `k` and `m` to the HBM memory tile
//! `T_mem = 512/bits`; stage 3 pads the per-core compute dimensions to
//! the compute tiles `T_PE = N` (rows) and `T_MAC = N·M` (columns).
//! Stages 1–2 run on the host, stage 3 on the FPGA fabric during data
//! loading.

use crate::config::SaConfig;
use mpt_arith::GemmShape;

/// The fully padded dimensions of one GEMM on a given configuration,
/// assuming `A` is the partitioned input (rows split across cores).
///
/// Field names follow the paper: `n_core` rows per core after stage 1,
/// `k_mem`/`m_mem` after stage 2, `n_comp`/`m_comp` after stage 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddedGemm {
    /// Original (logical) shape.
    pub shape: GemmShape,
    /// Rows of `A` handled by each core (stage 1).
    pub n_core: usize,
    /// Reduction dimension padded to the memory tile (stage 2).
    pub k_mem: usize,
    /// `B` columns padded to the memory tile (stage 2).
    pub m_mem: usize,
    /// Per-core rows padded to `T_PE` (stage 3).
    pub n_comp: usize,
    /// Columns padded to `T_MAC` (stage 3).
    pub m_comp: usize,
}

/// Rounds `x` up to a multiple of `to` (minimum one tile).
#[inline]
pub(crate) fn pad_up(x: usize, to: usize) -> usize {
    debug_assert!(to > 0);
    x.max(1).div_ceil(to) * to
}

impl PaddedGemm {
    /// Applies the three padding stages to `shape` on `cfg` with
    /// `bits`-wide operands.
    pub fn new(shape: GemmShape, cfg: SaConfig, bits: u32) -> Self {
        let t_mem = SaConfig::t_mem(bits);
        // Stage 1: split A's rows across cores.
        let n_core = shape.n.max(1).div_ceil(cfg.c());
        // Stage 2: HBM packing of k and m.
        let k_mem = pad_up(shape.k, t_mem);
        let m_mem = pad_up(shape.m, t_mem);
        // Stage 3: compute tiles.
        let n_comp = pad_up(n_core, cfg.t_pe());
        let m_comp = pad_up(m_mem, cfg.t_mac());
        PaddedGemm {
            shape,
            n_core,
            k_mem,
            m_mem,
            n_comp,
            m_comp,
        }
    }

    /// MAC operations actually executed per core (including padding
    /// waste): `n_comp · m_comp · k_mem`.
    pub fn core_macs(&self) -> usize {
        self.n_comp * self.m_comp * self.k_mem
    }

    /// Padding inflation factor: executed MACs (all cores) over the
    /// logical `n·k·m`.
    pub fn inflation(&self, cores: usize) -> f64 {
        (self.core_macs() * cores) as f64 / self.shape.macs().max(1) as f64
    }

    /// Compute tiles each core walks: `n_comp/T_PE` row tiles ×
    /// `m_comp/T_MAC` column tiles. Both tiles are powers of two
    /// ([`SaConfig::new`]), so the exact quotients are shifts — this
    /// runs per candidate mapping in the matcher's inner loop.
    pub fn tiles(&self, cfg: SaConfig) -> u64 {
        debug_assert!(cfg.t_mac().is_power_of_two());
        (self.n_comp >> cfg.t_pe().trailing_zeros()) as u64
            * (self.m_comp >> cfg.t_mac().trailing_zeros()) as u64
    }

    /// Bytes `(in, out)` one launch moves over PCIe, per the paper's
    /// `S_data`: the partitioned input (stage-1 rows of all `cores`)
    /// plus the shared input at `in_bits`, the result at `out_bits`.
    /// The one place the element count is spelled out: the analytic
    /// model divides it by the peak bandwidth, the simulator by the
    /// achieved one.
    pub fn pcie_bytes(&self, cores: usize, in_bits: u32, out_bits: u32) -> (f64, f64) {
        let rows = cores * self.n_core;
        (
            (rows * self.k_mem + self.k_mem * self.m_mem) as f64 * in_bits as f64 / 8.0,
            (rows * self.m_mem) as f64 * out_bits as f64 / 8.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, m: usize, c: usize) -> SaConfig {
        SaConfig::new(n, m, c).expect("valid")
    }

    #[test]
    fn pad_up_basics() {
        assert_eq!(pad_up(1, 8), 8);
        assert_eq!(pad_up(8, 8), 8);
        assert_eq!(pad_up(9, 8), 16);
        assert_eq!(pad_up(0, 8), 8); // at least one tile
    }

    #[test]
    fn stage1_splits_rows_evenly() {
        let p = PaddedGemm::new(GemmShape::new(100, 64, 64), cfg(8, 8, 4), 8);
        assert_eq!(p.n_core, 25);
    }

    #[test]
    fn stage2_pads_to_hbm_tile() {
        // 8-bit elements: memory tile 64.
        let p = PaddedGemm::new(GemmShape::new(8, 25, 10), cfg(8, 8, 1), 8);
        assert_eq!(p.k_mem, 64);
        assert_eq!(p.m_mem, 64);
        // 32-bit elements: memory tile 16.
        let p32 = PaddedGemm::new(GemmShape::new(8, 25, 10), cfg(8, 8, 1), 32);
        assert_eq!(p32.k_mem, 32);
        assert_eq!(p32.m_mem, 16);
    }

    #[test]
    fn stage3_pads_to_compute_tiles() {
        let p = PaddedGemm::new(GemmShape::new(100, 64, 65), cfg(8, 8, 4), 8);
        assert_eq!(p.n_comp, 32); // 25 -> 32 (T_PE = 8)
        assert_eq!(p.m_comp, 128); // m_mem = 128 -> already multiple of 64
        assert_eq!(p.m_comp % cfg(8, 8, 4).t_mac(), 0);
    }

    #[test]
    fn aligned_shapes_pad_nothing_extra() {
        let p = PaddedGemm::new(GemmShape::new(256, 128, 128), cfg(8, 8, 4), 8);
        assert_eq!(p.n_core, 64);
        assert_eq!(p.n_comp, 64);
        assert_eq!(p.k_mem, 128);
        assert_eq!(p.m_comp, 128);
        assert!((p.inflation(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inflation_counts_padding_waste() {
        // Tiny GEMM on a big array: almost all MACs are padding.
        let p = PaddedGemm::new(GemmShape::new(1, 1, 1), cfg(8, 8, 1), 8);
        assert_eq!(p.core_macs(), 8 * 64 * 64);
        assert!(p.inflation(1) > 1000.0);
    }

    #[test]
    fn pcie_elements_matches_paper_formula() {
        let shape = GemmShape::new(100, 64, 65);
        let c = 4;
        let p = PaddedGemm::new(shape, cfg(8, 8, c), 8);
        let (in_bytes, out_bytes) = p.pcie_bytes(c, 8, 32);
        assert_eq!(
            in_bytes,
            (c * p.n_core * p.k_mem + p.k_mem * p.m_mem) as f64
        );
        assert_eq!(out_bytes, (c * p.n_core * p.m_mem) as f64 * 4.0);
    }
}
