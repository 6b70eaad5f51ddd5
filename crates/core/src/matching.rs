//! The offline matching algorithm (paper Section IV-B).
//!
//! Given a model's training-iteration GEMM workload, the matcher
//! walks it once per pre-generated configuration
//! ([`iteration_latency`]) — for each GEMM taking the best of the
//! transpose/partition mappings — and returns the `⟨N, M, C⟩` with the
//! minimum estimated latency. The same walk yields the "measured"
//! figure of the cycle-level simulator's timing (the model plus
//! pipeline fill, PCIe at 80% and launch overhead), reproducing the
//! estimated-vs-measured comparison of Fig. 7.

use mpt_arith::GemmShape;
use mpt_fpga::{best_mapping, overlap, Accelerator, SaConfig, SynthesisDb};

/// Output width over PCIe used by the performance model. The paper's
/// `S_data` counts all three matrices uniformly in operand-width
/// elements (Section IV-A), so the estimate uses the operand width;
/// the host casts back to FP32 after the transfer.
const OUT_BITS: u32 = 8;

/// One workload's iteration latencies on one configuration: what
/// [`iteration_latency`] computes for any, and [`select_accelerator`]
/// returns for the chosen one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchResult {
    /// The configuration.
    pub config: SaConfig,
    /// Its operating frequency (MHz) from the synthesis database.
    pub freq_mhz: f64,
    /// Estimated training-iteration latency (performance model), s.
    pub estimated_s: f64,
    /// Measured iteration latency from the cycle-level timing model, s.
    pub measured_s: f64,
    /// Estimated iteration latency under the staged launch queue,
    /// where consecutive GEMMs overlap transfer and compute
    /// (`L_total = fill + Σ bottleneck`, not `Σ L_total`). Always
    /// `≤ estimated_s`; selection still ranks by the eager figure so
    /// the choice matches the paper's offline matcher.
    pub pipelined_s: f64,
    /// `measured_s` under the same staged queue: the simulator's stage
    /// times through the recurrence `pipelined_s` uses.
    pub measured_pipelined_s: f64,
}

/// The one walk over a workload. Each GEMM is mapped once
/// ([`best_mapping`] — the simulator keeps the mapping the *estimator*
/// chose, exactly how the paper validates its model); the model's
/// latency and the simulator's ([`Accelerator::timing_only`]) for that
/// mapping are each summed, and each threaded as transfer-in / compute
/// / transfer-out stages through [`overlap`], where PCIe transfers
/// hide behind the previous launch's compute.
pub fn iteration_latency(
    workload: &[GemmShape],
    cfg: SaConfig,
    freq_mhz: f64,
    in_bits: u32,
) -> MatchResult {
    let acc = Accelerator::new(cfg, freq_mhz);
    let (mut estimated_s, mut measured_s) = (0.0, 0.0);
    let (mut est_done, mut sim_done) = ([0.0; 3], [0.0; 3]);
    for &s in workload {
        let mapping = best_mapping(s, cfg, freq_mhz, in_bits, OUT_BITS);
        let sim = acc.timing_only(mapping.effective_shape(), in_bits);
        estimated_s += mapping.latency.total_s;
        measured_s += sim.total_s;
        overlap(&mut est_done, mapping.latency.stages());
        overlap(&mut sim_done, sim.stages());
    }
    MatchResult {
        config: cfg,
        freq_mhz,
        estimated_s,
        measured_s,
        pipelined_s: est_done[2],
        measured_pipelined_s: sim_done[2],
    }
}

/// Walks `workload` over every feasible configuration in the database
/// and keeps the one with the lowest `key` (the first, on ties).
fn argmin(
    workload: &[GemmShape],
    db: &SynthesisDb,
    in_bits: u32,
    key: fn(&MatchResult) -> f64,
) -> MatchResult {
    db.feasible_configs()
        .into_iter()
        .map(|cfg| {
            let freq = db
                .frequency(cfg.n(), cfg.m(), cfg.c())
                .expect("feasible configs have frequencies");
            iteration_latency(workload, cfg, freq, in_bits)
        })
        .reduce(|best, r| if key(&r) < key(&best) { r } else { best })
        .expect("configuration database is non-empty")
}

/// Brute-forces every feasible configuration in the database and
/// returns the one minimizing the *estimated* iteration latency
/// (with its measured counterpart for validation).
///
/// # Panics
///
/// Panics if the database is empty.
pub fn select_accelerator(workload: &[GemmShape], db: &SynthesisDb, in_bits: u32) -> MatchResult {
    let chosen = argmin(workload, db, in_bits, |r| r.estimated_s);
    if mpt_telemetry::enabled() {
        // Auditable predicted-vs-actual records for the winning
        // configuration: L_total from the performance model against
        // the cycle-level timing (Fig. 7's comparison), both for the
        // eager launch sequence and for the staged/overlapped one.
        for (context, predicted_s, measured_s) in [
            ("select_accelerator", chosen.estimated_s, chosen.measured_s),
            (
                "select_accelerator_pipelined",
                chosen.pipelined_s,
                chosen.measured_pipelined_s,
            ),
        ] {
            mpt_telemetry::record_calibration(mpt_telemetry::CalibrationRecord {
                context: context.into(),
                label: format!("{}@{:.1}MHz", chosen.config, chosen.freq_mhz),
                predicted_s,
                measured_s,
            });
        }
    }
    chosen
}

/// The configuration minimizing the *measured* iteration latency —
/// [`select_accelerator`]'s choice, if the model "identifies the
/// optimal configuration" (Fig. 7). Panics if the database is empty.
pub fn measured_optimum(workload: &[GemmShape], db: &SynthesisDb, in_bits: u32) -> MatchResult {
    argmin(workload, db, in_bits, |r| r.measured_s)
}

/// Estimated iteration latency for a fixed `(n, m)` array across all
/// feasible core counts — the Table IV sweep. Returns
/// `(c, freq_mhz, estimated_s)` triples in ascending `c`.
pub fn sweep_core_counts(
    workload: &[GemmShape],
    db: &SynthesisDb,
    n: usize,
    m: usize,
    in_bits: u32,
) -> Vec<(usize, f64, f64)> {
    let Some(c_max) = db.max_cores(n, m) else {
        return Vec::new();
    };
    (1..=c_max)
        .map(|c| {
            let cfg = SaConfig::new(n, m, c).expect("table shapes are valid");
            let freq = db.frequency(n, m, c).expect("in range");
            let estimated_s = iteration_latency(workload, cfg, freq, in_bits).estimated_s;
            (c, freq, estimated_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_models::ModelDesc;

    #[test]
    fn estimate_scales_with_workload() {
        let db = SynthesisDb::u55();
        let cfg = SaConfig::new(8, 8, 4).unwrap();
        let f = db.frequency(8, 8, 4).unwrap();
        let one = vec![GemmShape::new(128, 128, 128)];
        let two = vec![GemmShape::new(128, 128, 128); 2];
        let e1 = iteration_latency(&one, cfg, f, 8);
        let e2 = iteration_latency(&two, cfg, f, 8);
        assert!((e2.estimated_s - 2.0 * e1.estimated_s).abs() < 1e-12);
        assert!((e2.measured_s - 2.0 * e1.measured_s).abs() < 1e-12);
        // One launch has nothing to overlap with.
        assert!((e1.pipelined_s - e1.estimated_s).abs() < 1e-15);
        assert!((e1.measured_pipelined_s - e1.measured_s).abs() < 1e-15);
    }

    #[test]
    fn measured_exceeds_estimated() {
        // Fig. 7: measured latencies sit slightly above estimates
        // (PCIe at 80%, pipeline fill, launch overhead).
        let db = SynthesisDb::u55();
        let workload = ModelDesc::lenet5(64).training_gemms();
        let cfg = SaConfig::new(8, 8, 7).unwrap();
        let f = db.frequency(8, 8, 7).unwrap();
        let r = iteration_latency(&workload, cfg, f, 8);
        let (est, meas) = (r.estimated_s, r.measured_s);
        assert!(meas > est, "measured {meas} <= estimated {est}");
        assert!(meas < est * 2.0, "model far off: {meas} vs {est}");
    }

    #[test]
    fn selection_is_global_minimum() {
        let db = SynthesisDb::u55();
        let workload = ModelDesc::lenet5(64).training_gemms();
        let chosen = select_accelerator(&workload, &db, 8);
        let optimum = measured_optimum(&workload, &db, 8);
        for cfg in db.feasible_configs() {
            let f = db.frequency(cfg.n(), cfg.m(), cfg.c()).unwrap();
            let r = iteration_latency(&workload, cfg, f, 8);
            assert!(
                chosen.estimated_s <= r.estimated_s,
                "{cfg} beats chosen {} ({} < {})",
                chosen.config,
                r.estimated_s,
                chosen.estimated_s
            );
            assert!(
                optimum.measured_s <= r.measured_s,
                "{cfg} beats the optimum"
            );
        }
    }

    /// `select_accelerator` on the paper's five benchmarks, bit for
    /// bit as of the commit before the timing model was folded into
    /// one walk: `(name, ⟨N, M, C⟩, MHz, estimated, measured,
    /// pipelined, measured pipelined)`, seconds as `f64` bits.
    #[test]
    fn selection_is_pinned_for_the_five_benchmarks() {
        #[rustfmt::skip]
        let pins = [
            ("LeNet5", (8, 8, 5), 299.8, [0x3f7e18bbf2c0b3e5, 0x3f80b9cecd7a51a6, 0x3f7aba72bc40f00e, 0x3f7d3dc216d4ee7b]),
            ("VGG16", (32, 32, 2), 197.3, [0x3fdc6c957362701a, 0x3fdd66de75ab530b, 0x3fd94371e3905580, 0x3fd9737201e4b1cb]),
            ("ResNet20", (32, 32, 2), 197.3, [0x3fd66e7a42d7e3c2, 0x3fd77abfe05cf492, 0x3fd33542de2140eb, 0x3fd371f8edfbcf4f]),
            ("ResNet50", (32, 32, 2), 197.3, [0x3fe8f1e0be543667, 0x3fe9fd2446121e34, 0x3fe5d412c4831bea, 0x3fe617e2cdccbd30]),
            ("Nano-GPT", (32, 16, 4), 198.4, [0x400147ca34c8eaf9, 0x400512d4830b9949, 0x3fff5771514daf80, 0x40030fbe93e10381]),
        ];
        let db = SynthesisDb::u55();
        for (model, (name, (n, m, c), freq_mhz, bits)) in
            ModelDesc::all_benchmarks().into_iter().zip(pins)
        {
            assert_eq!(model.name(), name);
            let r = select_accelerator(&model.training_gemms(), &db, 8);
            assert_eq!(r.config, SaConfig::new(n, m, c).unwrap(), "{name}");
            assert_eq!(r.freq_mhz, freq_mhz, "{name}");
            let got = [
                r.estimated_s,
                r.measured_s,
                r.pipelined_s,
                r.measured_pipelined_s,
            ]
            .map(f64::to_bits);
            assert_eq!(got, bits, "{name}: {r:?}");
        }
    }

    #[test]
    fn pipelined_estimate_overlaps_but_never_cheats() {
        // Overlap can only hide transfer behind compute: the staged
        // figure sits strictly below the eager sum for a multi-GEMM
        // workload, but never below the compute-stage total (the
        // pipeline's bottleneck lower bound is at least one stage).
        let db = SynthesisDb::u55();
        let workload = ModelDesc::lenet5(64).training_gemms();
        let cfg = SaConfig::new(8, 8, 7).unwrap();
        let f = db.frequency(8, 8, 7).unwrap();
        let r = iteration_latency(&workload, cfg, f, 8);
        let (eager, pipelined) = (r.estimated_s, r.pipelined_s);
        assert!(pipelined < eager, "no overlap won: {pipelined} vs {eager}");
        assert!(pipelined > eager * 0.3, "overlap too good: {pipelined}");
        assert!(r.measured_pipelined_s < r.measured_s);
        assert!(
            r.measured_pipelined_s > pipelined,
            "measured sits above the estimate"
        );
    }

    #[test]
    fn selection_carries_pipelined_figure() {
        let db = SynthesisDb::u55();
        let workload = ModelDesc::lenet5(64).training_gemms();
        let chosen = select_accelerator(&workload, &db, 8);
        assert!(chosen.pipelined_s > 0.0);
        assert!(chosen.pipelined_s < chosen.estimated_s);
        let direct = iteration_latency(&workload, chosen.config, chosen.freq_mhz, 8);
        assert_eq!(chosen, direct);
    }

    #[test]
    fn sweep_covers_all_core_counts() {
        let db = SynthesisDb::u55();
        let workload = ModelDesc::lenet5(64).training_gemms();
        let sweep = sweep_core_counts(&workload, &db, 8, 8, 8);
        assert_eq!(sweep.len(), 10);
        assert_eq!(sweep[0].0, 1);
        assert_eq!(sweep[0].1, 378.3);
        assert!(sweep.iter().all(|&(_, _, s)| s > 0.0));
        assert!(sweep_core_counts(&workload, &db, 3, 3, 8).is_empty());
    }

    #[test]
    fn mid_core_counts_win_for_small_models_like_table_iv() {
        // Table IV: LeNet5's optimum over the 8x8 sweep is C=7, not
        // C=10 — fewer cores run faster and small GEMMs can't use the
        // full parallelism. Assert the optimum is interior (not C=1,
        // and the C=10 point is not strictly better than the best).
        let db = SynthesisDb::u55();
        let workload = ModelDesc::lenet5(64).training_gemms();
        let sweep = sweep_core_counts(&workload, &db, 8, 8, 8);
        let best = sweep
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
            .expect("non-empty");
        assert!(best.0 > 1, "C=1 should not win for batch-64 LeNet5");
        let c10 = sweep.last().unwrap();
        assert!(best.2 <= c10.2, "optimum must be at least as good as C=10");
    }
}
