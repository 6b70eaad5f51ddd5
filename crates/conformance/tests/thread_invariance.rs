//! Thread-count invariance of `qgemm_parallel` (satellite of the
//! conformance PR, CI-enforced).
//!
//! The parallel path quantizes operands once and indexes every
//! rounding event by logical matrix coordinates, so the result must
//! be bit-identical no matter how the rows are split into bands — at
//! 1, 2 and 8 threads, including under stochastic rounding where any
//! scheduling dependence would show up immediately.

use conformance::Corpus;
use mpt_arith::{qgemm, qgemm_parallel, CpuBackend, GemmBackend, MacConfig, QGemmConfig};
use mpt_formats::{FloatFormat, Quantizer, Rounding};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// SR everywhere: stochastic input quantizers (events indexed by
/// `input_event_index(row, col)`) feeding a stochastic accumulator
/// (events indexed by `sr_event_index(i, j, k, stage)`).
fn sr_everywhere(seed: u64) -> QGemmConfig {
    let input = Quantizer::new(FloatFormat::e4m3(), Rounding::stochastic());
    let mul = Quantizer::new(FloatFormat::e4m3(), Rounding::NoRound);
    let acc = Quantizer::new(FloatFormat::e5m10(), Rounding::stochastic());
    QGemmConfig::new(input, input, MacConfig::new(mul, acc)).with_seed(seed)
}

fn configs() -> Vec<(String, QGemmConfig)> {
    vec![
        ("fp32-identity".into(), QGemmConfig::fp32()),
        (
            "fp8_fp12_sr(seed=2)".into(),
            QGemmConfig::fp8_fp12_sr().with_seed(2),
        ),
        (
            "fp8_fp12_sr(seed=77)".into(),
            QGemmConfig::fp8_fp12_sr().with_seed(77),
        ),
        ("sr-everywhere(seed=5)".into(), sr_everywhere(5)),
    ]
}

/// Row counts that do not divide evenly stress the short last band,
/// where a scheduling-dependent event index would first diverge.
const SHAPES: [(usize, usize, usize); 4] = [(13, 29, 7), (8, 8, 8), (1, 64, 1), (33, 5, 17)];

#[test]
fn qgemm_parallel_is_thread_count_invariant() {
    for (name, cfg) in configs() {
        for (si, &(n, k, m)) in SHAPES.iter().enumerate() {
            let mut corpus = Corpus::new(0x7_1000 + si as u64);
            let a = corpus.matrix(n, k, -2.0, 2.0);
            let b = corpus.matrix(k, m, -2.0, 2.0);
            let sequential = qgemm(&a, &b, &cfg).expect("qgemm");
            for threads in THREAD_COUNTS {
                let par = qgemm_parallel(&a, &b, &cfg, threads).expect("qgemm_parallel");
                assert_eq!(
                    par, sequential,
                    "{name} [{n}x{k}x{m}]: qgemm_parallel x{threads} != sequential qgemm"
                );
            }
            if let Ok(extra) = std::env::var("CONFORMANCE_THREADS") {
                let threads: usize = extra.parse().expect("CONFORMANCE_THREADS is a number");
                let par = qgemm_parallel(&a, &b, &cfg, threads).expect("qgemm_parallel");
                assert_eq!(
                    par, sequential,
                    "{name} [{n}x{k}x{m}]: diverged at CONFORMANCE_THREADS={threads}"
                );
            }
        }
    }
}

/// The backend wrapper must inherit the same invariance: a
/// `CpuBackend` pinned to any worker count equals the sequential path.
#[test]
fn cpu_backend_thread_pinning_is_bitwise_invariant() {
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(41);
    let mut corpus = Corpus::new(0xbac0);
    let a = corpus.matrix(11, 19, -2.0, 2.0);
    let b = corpus.matrix(19, 6, -2.0, 2.0);
    let sequential = qgemm(&a, &b, &cfg).expect("qgemm");
    for threads in THREAD_COUNTS {
        let backend = CpuBackend::with_threads(threads);
        let out = backend.gemm(&a, &b, &cfg).expect("backend gemm");
        assert_eq!(
            out, sequential,
            "CpuBackend::with_threads({threads}) != sequential qgemm"
        );
    }
}
