//! The analytic performance model (paper Section IV-A).
//!
//! For a GEMM padded to `(n_comp, k_mem, m_comp)` on a core of `N×M`
//! MACs at frequency `F`:
//!
//! ```text
//! L_MAC   = n_comp · m_comp · k_mem / (N · M · F)
//! L_write = n_comp · m_comp / (T_out · F),   T_out = M
//! L_core  = L_MAC + L_write
//! L_data  = S_data / B_PCIe
//! L_total = L_core + L_data
//! ```
//!
//! Reads from HBM overlap with compute, so only result write-back and
//! the PCIe transfer add to the MAC time.
//!
//! The schedule is stated once, here. A core walks `tiles =
//! (n_comp/T_PE)·(m_comp/T_MAC)` tiles of `k_mem·T_PE` MAC cycles and
//! `T_PE·T_MAC/M` write-back cycles each; with `T_MAC = N·M` those sum
//! to `L_MAC·F` and `L_write·F` exactly ([`core_cycles`]). The
//! simulator ([`crate::sim::Accelerator::timing_only`]) is that count
//! plus three named non-idealities, and every overlapped figure —
//! estimated, simulated, or the executor's clock — is [`overlap`].

use crate::config::{SaConfig, PCIE_GBPS};
use crate::padding::PaddedGemm;
use mpt_arith::GemmShape;

/// The model's latency terms for one GEMM on the accelerator, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// MAC computation time `L_MAC`.
    pub mac_s: f64,
    /// Result write-back time `L_write`.
    pub write_s: f64,
    /// Host→HBM transfer of both inputs at peak PCIe bandwidth.
    pub in_s: f64,
    /// Result transfer back to the host.
    pub out_s: f64,
    /// `L_data`: all of `S_data` over PCIe (`in_s + out_s`, the bytes
    /// summed before the division).
    pub data_s: f64,
    /// `L_total = (mac + write) + data`.
    pub total_s: f64,
}

impl Latency {
    /// Core-only time (`L_MAC + L_write`).
    pub fn core_s(&self) -> f64 {
        self.mac_s + self.write_s
    }

    /// The launch as pipeline stages `[transfer-in, core,
    /// transfer-out]`, for [`overlap`].
    pub fn stages(&self) -> [f64; 3] {
        [self.in_s, self.core_s(), self.out_s]
    }

    /// The bottleneck stage: the marginal cost of this launch in a
    /// full pipeline.
    pub fn bottleneck_s(&self) -> f64 {
        self.stages().into_iter().fold(0.0, f64::max)
    }
}

/// The schedule's core cycles `(L_MAC·F, L_write·F)` for one padded
/// GEMM — exact integers (module docs), shared with the simulator.
/// Per tile: `k_mem·T_PE` MAC beats, `T_PE·T_MAC/M = T_PE·N` of
/// write-back.
pub fn core_cycles(padded: &PaddedGemm, cfg: SaConfig) -> (u64, u64) {
    let tiles = padded.tiles(cfg);
    (
        tiles * (padded.k_mem * cfg.t_pe()) as u64,
        tiles * (cfg.t_pe() * cfg.n()) as u64,
    )
}

/// Estimates the latency of one GEMM (with `A` partitioned across the
/// cores) on `cfg` at `freq_mhz`, with `in_bits`-wide operands and
/// `out_bits`-wide results.
pub fn estimate_gemm(
    shape: GemmShape,
    cfg: SaConfig,
    freq_mhz: f64,
    in_bits: u32,
    out_bits: u32,
) -> Latency {
    let padded = PaddedGemm::new(shape, cfg, in_bits);
    estimate_padded(&padded, cfg, freq_mhz, in_bits, out_bits)
}

/// Estimates latency from an explicit padded shape (used by the
/// mapping search to avoid re-padding).
pub fn estimate_padded(
    padded: &PaddedGemm,
    cfg: SaConfig,
    freq_mhz: f64,
    in_bits: u32,
    out_bits: u32,
) -> Latency {
    let f = freq_mhz * 1.0e6;
    let (mac_cycles, write_cycles) = core_cycles(padded, cfg);
    let (mac_s, write_s) = (mac_cycles as f64 / f, write_cycles as f64 / f);
    let (in_bytes, out_bytes) = padded.pcie_bytes(cfg.c(), in_bits, out_bits);
    let bw = PCIE_GBPS * 1.0e9;
    let data_s = (in_bytes + out_bytes) / bw;
    Latency {
        mac_s,
        write_s,
        in_s: in_bytes / bw,
        out_s: out_bytes / bw,
        data_s,
        total_s: mac_s + write_s + data_s,
    }
}

/// Admits one launch with stage times `t` to an in-order pipeline
/// (unlimited inter-stage buffering) whose stages last completed at
/// `done`; `done[S − 1]` is then the makespan. Stage *s* starts once
/// the launch's stage *s − 1* and the previous launch's stage *s* are
/// through: `done[i][s] = max(done[i][s−1], done[i−1][s]) + t[i][s]`.
/// A stream costs between its busiest stage's total and the eager sum
/// — `fill + Σᵢ maxₛ t[i][s]` when one stage dominates every launch.
/// The pipelined estimate and "measurement" (`S = 3`) and the
/// [`crate::PipelinedExecutor`]'s accounting (`S = 4`) all call this.
pub fn overlap<const S: usize>(done: &mut [f64; S], t: [f64; S]) {
    done[0] += t[0];
    for s in 1..S {
        done[s] = done[s - 1].max(done[s]) + t[s];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, m: usize, c: usize) -> SaConfig {
        SaConfig::new(n, m, c).expect("valid")
    }

    #[test]
    fn mac_latency_formula() {
        // Fully aligned GEMM: no padding, hand-checkable numbers.
        let shape = GemmShape::new(64, 64, 64);
        let l = estimate_gemm(shape, cfg(8, 8, 1), 100.0, 8, 8);
        // n_comp*m_comp*k_mem / (64 MACs * 100 MHz)
        let expect = (64.0 * 64.0 * 64.0) / (64.0 * 100.0e6);
        assert!((l.mac_s - expect).abs() < 1e-15, "{} vs {expect}", l.mac_s);
        // write: 64*64 / (8 * 100 MHz)
        let expect_w = (64.0 * 64.0) / (8.0 * 100.0e6);
        assert!((l.write_s - expect_w).abs() < 1e-15);
        assert!((l.total_s - (l.mac_s + l.write_s + l.data_s)).abs() < 1e-18);
    }

    #[test]
    fn more_cores_reduce_core_time() {
        let shape = GemmShape::new(1024, 512, 512);
        let l1 = estimate_gemm(shape, cfg(8, 8, 1), 200.0, 8, 8);
        let l4 = estimate_gemm(shape, cfg(8, 8, 4), 200.0, 8, 8);
        assert!(
            l4.core_s() < l1.core_s() / 3.0,
            "{} vs {}",
            l4.core_s(),
            l1.core_s()
        );
    }

    #[test]
    fn higher_frequency_scales_core_time() {
        let shape = GemmShape::new(512, 512, 512);
        let slow = estimate_gemm(shape, cfg(8, 8, 2), 100.0, 8, 8);
        let fast = estimate_gemm(shape, cfg(8, 8, 2), 200.0, 8, 8);
        assert!((slow.core_s() / fast.core_s() - 2.0).abs() < 1e-9);
        // PCIe time is frequency-independent.
        assert_eq!(slow.data_s, fast.data_s);
    }

    #[test]
    fn small_gemm_dominated_by_padding() {
        // A 1x1x1 GEMM on a 64x32 array still pays a full tile.
        let l = estimate_gemm(GemmShape::new(1, 1, 1), cfg(64, 32, 1), 150.0, 8, 8);
        let work = estimate_gemm(GemmShape::new(64, 512, 2048), cfg(64, 32, 1), 150.0, 8, 8);
        // The tiny GEMM costs the same MAC time as one full tile pass.
        assert!(l.mac_s > 0.0);
        assert!(work.mac_s > l.mac_s);
    }

    #[test]
    fn wider_outputs_cost_more_pcie() {
        let shape = GemmShape::new(256, 256, 256);
        let narrow = estimate_gemm(shape, cfg(8, 8, 2), 200.0, 8, 8);
        let wide = estimate_gemm(shape, cfg(8, 8, 2), 200.0, 8, 32);
        assert!(wide.data_s > narrow.data_s);
        assert_eq!(wide.mac_s, narrow.mac_s);
    }

    #[test]
    fn stages_sum_to_eager_total() {
        let l = estimate_gemm(GemmShape::new(100, 64, 65), cfg(8, 8, 4), 298.0, 8, 32);
        let [in_s, core_s, out_s] = l.stages();
        assert!((in_s + core_s + out_s - l.total_s).abs() < 1e-15);
        assert!((in_s + out_s - l.data_s).abs() < 1e-15);
        assert_eq!(core_s, l.core_s());
        assert_eq!(l.bottleneck_s(), in_s.max(core_s).max(out_s));
    }

    #[test]
    fn model_cycles_are_the_model_terms() {
        // `core_cycles` is (L_MAC, L_write)·F exactly: the closed
        // forms of the module docs, in integers.
        for (n, m, c) in [(2, 2, 2), (8, 4, 3), (64, 32, 1)] {
            let sa = cfg(n, m, c);
            let p = PaddedGemm::new(GemmShape::new(100, 37, 65), sa, 8);
            let (mac, write) = core_cycles(&p, sa);
            assert_eq!(mac as usize * sa.macs_per_core(), p.core_macs());
            assert_eq!(write as usize * m, p.n_comp * p.m_comp);
        }
    }

    /// The shared recurrence over `times` cut into `S`-stage launches:
    /// a single launch costs its stage sum, and a stream's makespan
    /// sits between its busiest stage's total and the eager sum. (The
    /// sum of per-launch bottlenecks is *not* a lower bound: `[0, 9]`
    /// then `[9, 0]` finishes at 9, not 18.)
    fn check_overlap<const S: usize>(times: &[f64]) {
        let (mut done, mut busy) = ([0.0; S], [0.0; S]);
        for (i, launch) in times.chunks_exact(S).enumerate() {
            let t: [f64; S] = launch.try_into().unwrap();
            overlap(&mut done, t);
            for (b, x) in busy.iter_mut().zip(t) {
                *b += x;
            }
            if i == 0 {
                let sum: f64 = t.iter().sum();
                assert!((done[S - 1] - sum).abs() <= 1e-12, "one launch: no overlap");
            }
            assert!(done.windows(2).all(|w| w[0] <= w[1]), "stages end in order");
        }
        let makespan = done[S - 1];
        let busiest = busy.into_iter().fold(0.0, f64::max);
        let eager: f64 = busy.iter().sum();
        assert!(busiest <= makespan + 1e-9, "{busiest} > {makespan}");
        assert!(makespan <= eager + 1e-9, "{makespan} > {eager}");
    }

    proptest::proptest! {
        /// At both widths the recurrence is used at (3: the estimate
        /// and the simulated iteration; 4: the executor's clock).
        #[test]
        fn pipelined_workload_between_bounds(
            times in proptest::collection::vec(0.0f64..10.0, 4..96),
        ) {
            check_overlap::<3>(&times);
            check_overlap::<4>(&times);
        }
    }
}
