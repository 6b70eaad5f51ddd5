//! Per-GEMM mapping optimization (paper Section IV-B).
//!
//! Two coupled decisions minimize padding overhead for each GEMM:
//! feed the inputs in **original or transposed** form (swapping `n`
//! and `m`), and choose **which input to partition** across the
//! cores. The paper brute-forces every combination and keeps the one
//! with the lowest estimated latency; so do we.

use crate::config::SaConfig;
use crate::padding::PaddedGemm;
use crate::perf::{estimate_padded, Latency};
use mpt_arith::GemmShape;

/// Which input is split across the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partition {
    /// Partition `A` (split output rows across cores).
    A,
    /// Partition `B` (split output columns across cores).
    B,
}

/// A chosen mapping for one GEMM: transposition, partitioned input,
/// the resulting padded shape and its estimated latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmMapping {
    /// The logical (untransformed) problem.
    pub shape: GemmShape,
    /// Whether the problem is fed transposed (`Bᵀ·Aᵀ = Cᵀ`).
    pub transposed: bool,
    /// Which input is partitioned across cores.
    pub partition: Partition,
    /// The padded dimensions of the *effective* (possibly transposed)
    /// problem with the partitioned input mapped to rows.
    pub padded: PaddedGemm,
    /// Estimated latency under the performance model.
    pub latency: Latency,
}

impl GemmMapping {
    /// The shape actually fed to the padding pipeline: transposition
    /// swaps `n↔m`, and partitioning `B` swaps the roles of rows and
    /// columns (the row dimension is always the partitioned one in
    /// the model).
    pub fn effective_shape(&self) -> GemmShape {
        effective_shape(self.shape, self.transposed, self.partition)
    }
}

fn effective_shape(shape: GemmShape, transposed: bool, partition: Partition) -> GemmShape {
    let s = if transposed {
        shape.transposed()
    } else {
        shape
    };
    match partition {
        Partition::A => s,
        // Partitioning B: the model always splits the row operand, so
        // view the problem as Cᵀ = Bᵀ·Aᵀ with Bᵀ's rows partitioned.
        Partition::B => s.transposed(),
    }
}

/// Brute-forces the four mapping combinations for one GEMM and
/// returns the lowest-latency one (ties keep the earliest in
/// enumeration order: original/A first).
///
/// The four are two: transposing and partitioning `B` are the same
/// `n↔m` swap of the effective shape, which is all the padding
/// pipeline and the model see, so transposed/A duplicates original/B
/// and transposed/B original/A. With ties kept, the result never has
/// `transposed == true`. The paper's hardware tells the pairs apart by
/// which dimension pads to `T_PE` and which to `T_MAC`; this model
/// does not (ROADMAP 4b/4d).
pub fn best_mapping(
    shape: GemmShape,
    cfg: SaConfig,
    freq_mhz: f64,
    in_bits: u32,
    out_bits: u32,
) -> GemmMapping {
    let mut best: Option<GemmMapping> = None;
    for transposed in [false, true] {
        for partition in [Partition::A, Partition::B] {
            let eff = effective_shape(shape, transposed, partition);
            let padded = PaddedGemm::new(eff, cfg, in_bits);
            let latency = estimate_padded(&padded, cfg, freq_mhz, in_bits, out_bits);
            let candidate = GemmMapping {
                shape,
                transposed,
                partition,
                padded,
                latency,
            };
            match &best {
                Some(b) if b.latency.total_s <= latency.total_s => {}
                _ => best = Some(candidate),
            }
        }
    }
    best.expect("four candidates always exist")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, m: usize, c: usize) -> SaConfig {
        SaConfig::new(n, m, c).expect("valid")
    }

    #[test]
    fn effective_shape_combinations() {
        let s = GemmShape::new(10, 20, 30);
        assert_eq!(effective_shape(s, false, Partition::A), s);
        assert_eq!(
            effective_shape(s, true, Partition::A),
            GemmShape::new(30, 20, 10)
        );
        assert_eq!(
            effective_shape(s, false, Partition::B),
            GemmShape::new(30, 20, 10)
        );
        assert_eq!(effective_shape(s, true, Partition::B), s);
    }

    proptest::proptest! {
        /// The mapping space is degenerate: the model sees only the
        /// effective shape, so the four candidates are two and the
        /// search never reports a transposed feed.
        #[test]
        fn four_candidates_are_two(
            n in 1usize..300,
            k in 1usize..300,
            m in 1usize..300,
            cores in 1usize..=10,
            sel in 0usize..4,
        ) {
            let s = GemmShape::new(n, k, m);
            proptest::prop_assert_eq!(
                effective_shape(s, true, Partition::A),
                effective_shape(s, false, Partition::B)
            );
            proptest::prop_assert_eq!(
                effective_shape(s, true, Partition::B),
                effective_shape(s, false, Partition::A)
            );
            let (pe, mac) = [(2, 2), (8, 4), (8, 8), (64, 32)][sel];
            let best = best_mapping(s, cfg(pe, mac, cores), 250.0, 8, 8);
            proptest::prop_assert!(!best.transposed, "{:?}", best);
        }
    }

    #[test]
    fn ties_on_compute_break_on_data_traffic() {
        // For (4096, 128, 8) on an 8x8x8 array, partitioning either
        // input costs identical MAC time (both pad to the same tile
        // volume), so the optimizer must pick the mapping with the
        // smaller PCIe footprint — the one that keeps the short
        // dimension partitioned (tiny output replication).
        let c = cfg(8, 8, 8);
        let best = best_mapping(GemmShape::new(4096, 128, 8), c, 200.0, 8, 8);
        let canonical = PaddedGemm::new(GemmShape::new(4096, 128, 8), c, 8);
        let canonical_lat = estimate_padded(&canonical, c, 200.0, 8, 8);
        assert!((best.latency.mac_s - canonical_lat.mac_s).abs() < 1e-12);
        assert!(best.latency.data_s < canonical_lat.data_s, "{best:?}");
    }

    #[test]
    fn symmetric_problem_keeps_canonical_mapping() {
        // A fully tile-aligned square GEMM gains nothing from any
        // transformation; enumeration order keeps original/A.
        let c = cfg(8, 8, 4);
        let best = best_mapping(GemmShape::new(512, 512, 512), c, 200.0, 8, 8);
        assert!(!best.transposed);
        assert_eq!(best.partition, Partition::A);
    }

    #[test]
    fn best_is_minimum_of_all_four() {
        let c = cfg(8, 4, 3);
        let shape = GemmShape::new(100, 37, 65);
        let best = best_mapping(shape, c, 250.0, 8, 8);
        for transposed in [false, true] {
            for partition in [Partition::A, Partition::B] {
                let eff = effective_shape(shape, transposed, partition);
                let padded = PaddedGemm::new(eff, c, 8);
                let lat = estimate_padded(&padded, c, 250.0, 8, 8);
                assert!(
                    best.latency.total_s <= lat.total_s + 1e-18,
                    "{transposed}/{partition:?} beats the chosen mapping"
                );
            }
        }
    }

    #[test]
    fn mapping_beats_naive_for_awkward_shapes() {
        // The whole point of Section IV-B: optimized mapping is never
        // worse than always-partition-A, and strictly better for
        // shapes whose row count is tiny.
        let c = cfg(16, 8, 10);
        let shape = GemmShape::new(6, 400, 5000);
        let naive = PaddedGemm::new(shape, c, 8);
        let naive_lat = estimate_padded(&naive, c, 180.0, 8, 8);
        let best = best_mapping(shape, c, 180.0, 8, 8);
        assert!(
            best.latency.total_s < naive_lat.total_s,
            "optimized {} vs naive {}",
            best.latency.total_s,
            naive_lat.total_s
        );
    }
}
