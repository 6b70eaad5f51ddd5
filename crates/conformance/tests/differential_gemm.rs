//! Differential GEMM conformance: `qgemm_reference` ≡ fast kernels ≡
//! `qgemm_parallel` (1/2/4/8 threads) ≡ `fpga::sim::execute` ≡ its
//! structural per-PE oracle, bit-for-bit, over the full format ×
//! rounding × shape grid.

use conformance::digest::bits_equal;
use conformance::{
    check_all_paths, degenerate_shapes, format_rounding_grid, standard_shapes, Corpus, DiffCase,
};
use mpt_arith::{qgemm_reference, MacConfig, QGemmConfig};
use mpt_formats::{FloatFormat, Quantizer, Rounding};
use mpt_fpga::{Accelerator, SaConfig};
use proptest::prelude::*;

/// The headline grid: 25 format×rounding configurations, each run
/// over every standard shape (125 differential cases).
#[test]
fn full_grid_all_paths_bitwise_equal() {
    let grid = format_rounding_grid();
    assert!(grid.len() >= 25, "grid shrank below the acceptance floor");
    let mut cases = 0usize;
    for (ci, (name, cfg)) in grid.iter().enumerate() {
        for (si, &(n, k, m)) in standard_shapes().iter().enumerate() {
            let case = DiffCase {
                name: format!("{name} [{n}x{k}x{m}]"),
                cfg: *cfg,
                n,
                k,
                m,
                seed: (ci * 100 + si) as u64,
            };
            case.run().unwrap_or_else(|e| panic!("{e}"));
            cases += 1;
        }
    }
    assert!(cases >= 125, "only {cases} differential cases ran");
}

/// Degenerate shapes — zero-sized outputs/reductions, `K = 1`, 1×1×1 —
/// must agree on every path too (the padding logic of the systolic
/// simulator and the tile-grid clamping of the parallel path both
/// have edge cases exactly here).
#[test]
fn degenerate_shapes_all_paths_bitwise_equal() {
    let grid = format_rounding_grid();
    // RN, SR and NR of each family cover all kernel dispatch classes.
    let picked: Vec<&(String, QGemmConfig)> = grid
        .iter()
        .filter(|(n, _)| n.ends_with("RN") || n.ends_with("SR") || n.ends_with("NR"))
        .collect();
    assert_eq!(picked.len(), 15);
    for (ci, (name, cfg)) in picked.iter().enumerate() {
        for (si, &(n, k, m)) in degenerate_shapes().iter().enumerate() {
            let case = DiffCase {
                name: format!("{name} [{n}x{k}x{m}]"),
                cfg: *cfg,
                n,
                k,
                m,
                seed: 7000 + (ci * 100 + si) as u64,
            };
            case.run().unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// The identity (FP32 baseline) pipeline: all paths must equal the
/// plain matmul fast path, including on operands containing values a
/// scalar E8M23 quantization would saturate.
#[test]
fn fp32_identity_pipeline_agrees_on_all_paths() {
    for &(n, k, m) in standard_shapes() {
        let case = DiffCase {
            name: format!("fp32-identity [{n}x{k}x{m}]"),
            cfg: QGemmConfig::fp32(),
            n,
            k,
            m,
            seed: 31_000 + (n * 100 + k * 10 + m) as u64,
        };
        case.run().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The paper's headline FP8×FP12-SR configuration on non-tile-aligned
/// shapes with several stochastic seeds.
#[test]
fn headline_sr_config_non_aligned_shapes() {
    for seed in [1u64, 99, 12345] {
        for &(n, k, m) in &[(13usize, 29usize, 7usize), (33, 17, 9), (7, 64, 3)] {
            let case = DiffCase {
                name: format!("fp8_fp12_sr(seed={seed}) [{n}x{k}x{m}]"),
                cfg: QGemmConfig::fp8_fp12_sr().with_seed(seed),
                n,
                k,
                m,
                seed: seed ^ 0xabcd,
            };
            case.run().unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized shapes and seeds under the headline configuration:
    /// shrinking (satellite of this PR) walks failing shapes down to
    /// a minimal reproducer.
    #[test]
    fn random_shapes_agree(
        (n, k, m) in (0usize..10, 0usize..12, 0usize..10),
        seed in 0u64..1000,
    ) {
        let mut corpus = Corpus::new(seed ^ 0x51ab);
        let a = corpus.matrix(n, k, -2.0, 2.0);
        let b = corpus.matrix(k, m, -2.0, 2.0);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(seed);
        let outcome = check_all_paths(&format!("random [{n}x{k}x{m}] seed={seed}"), &a, &b, &cfg);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// The numerics the simulator must reproduce without walking the
/// array: the headline FP8×FP12 pipeline under RN and SR, the FP32
/// identity pipeline (plain `matmul` stepping), fixed point (the
/// generic scalar kernel), and quantized operands into an identity
/// MAC — which is *not* an identity pipeline and must keep the fused
/// MAC stepping.
fn oracle_numerics() -> impl Strategy<Value = QGemmConfig> {
    let fp8 = Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest);
    prop_oneof![
        Just(QGemmConfig::for_mac(MacConfig::fp8_fp12(Rounding::Nearest))),
        Just(QGemmConfig::fp8_fp12_sr()),
        Just(QGemmConfig::fp32()),
        Just(QGemmConfig::for_mac(MacConfig::fxp4_4(Rounding::Nearest))),
        Just(QGemmConfig::new(fp8, fp8, MacConfig::fp32())),
    ]
}

// Default config on purpose: 64 cases under tier-1, and the
// conformance CI job raises it through `PROPTEST_CASES`.
proptest! {
    /// Functional = kernel, timing = closed form, structure = oracle:
    /// on any array geometry the kernel-backed `execute`, the per-PE
    /// `execute_structural` and the scalar `qgemm_reference` agree on
    /// every output bit, and `execute`'s closed-form latency equals
    /// the cycles and bytes the structural walk counts — with 1×1×1
    /// and tile-straddling shapes, an all-zero row of `A`, and a
    /// non-finite value in `B` (where zero-skipping must not fire).
    #[test]
    fn kernel_backed_sim_equals_structural_oracle(
        (n, k, m) in (1usize..20, 1usize..70, 1usize..20),
        (pn, pm, cores) in prop_oneof![Just((2usize, 2usize, 2usize)), Just((8, 4, 3)), Just((8, 8, 4))],
        cfg in oracle_numerics(),
        seed in 0u64..1 << 16,
        zero_row in 0usize..40,
        special in prop_oneof![
            Just(None),
            Just(Some(f32::INFINITY)),
            Just(Some(f32::NEG_INFINITY)),
            Just(Some(f32::NAN)),
        ],
        pos in 0usize..1400,
    ) {
        let cfg = cfg.with_seed(seed);
        let mut corpus = Corpus::new(seed ^ 0x0a1c);
        let mut a = corpus.matrix(n, k, -2.0, 2.0);
        if zero_row < n {
            a.data_mut()[zero_row * k..(zero_row + 1) * k].fill(0.0);
        }
        let mut b = corpus.matrix(k, m, -2.0, 2.0);
        if let Some(v) = special {
            b.data_mut()[pos % (k * m)] = v;
        }

        let acc = Accelerator::new(SaConfig::new(pn, pm, cores).expect("valid config"), 250.0);
        let (fast, closed_form) = acc.execute(&a, &b, &cfg).expect("conforming");
        let (structural, counted) = acc.execute_structural(&a, &b, &cfg).expect("conforming");
        let reference = qgemm_reference(&a, &b, &cfg, 0, 0).expect("conforming");

        prop_assert!(bits_equal(&fast, &structural), "kernel-backed != structural");
        prop_assert!(bits_equal(&fast, &reference), "kernel-backed != qgemm_reference");
        // Every field: core_cycles, core_s, data_s, total_s.
        prop_assert_eq!(closed_form, counted);
    }
}
