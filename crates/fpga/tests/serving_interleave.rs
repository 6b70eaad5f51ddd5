//! Serving-style cache interleaving: consecutive launches share
//! packed operands while optimizer-style weight updates and eviction
//! churn the [`OperandCache`](mpt_fpga::OperandCache) underneath.
//!
//! This is the access pattern a serving dispatcher round produces —
//! many same-weight activations launched one after another, weights
//! re-keyed between rounds — replayed across cache budgets from
//! "disabled" to "everything resident". Every output must be
//! bit-identical to the eager kernel on the *current* weights, and the
//! hit/miss counters must account for every operand lookup.

use mpt_arith::{qgemm_parallel, QGemmConfig};
use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig};
use mpt_tensor::Tensor;

/// One deterministic pseudo-random matrix; `tag` decorrelates streams.
fn matrix(rows: usize, cols: usize, tag: u64) -> Tensor {
    Tensor::from_fn(vec![rows, cols], |i| {
        let x = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        ((x >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
    })
}

#[test]
fn coalesced_batches_race_weight_updates_across_budgets() {
    // 0: caching disabled; 700: fits roughly one operand, so every
    // round churns through eviction; 1 MiB: everything stays resident.
    for budget in [0usize, 700, 1 << 20] {
        let acc = Accelerator::new(SaConfig::new(4, 4, 2).expect("valid"), 300.0);
        let mut px = PipelinedExecutor::new(acc, budget);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(13);

        let mut weights = matrix(6, 5, 0);
        let mut launches = 0u64;
        for epoch in 0..6u64 {
            // A serving round: four activation batches (one
            // repeated from the previous round — the cache's hit path)
            // against the current weights, as consecutive launches.
            let acts: Vec<Tensor> = (0..3)
                .map(|i| matrix(4, 6, 1 + epoch * 8 + i))
                .chain(std::iter::once(matrix(
                    4,
                    6,
                    1 + epoch.saturating_sub(1) * 8,
                )))
                .collect();
            for a in &acts {
                let (got, _) = px.launch(a, &weights, &cfg).expect("valid shapes");
                launches += 1;
                let want = qgemm_parallel(a, &weights, &cfg, 2).expect("valid shapes");
                assert_eq!(
                    got, want,
                    "budget {budget}, epoch {epoch}: served launch diverged from eager"
                );
            }
            // The optimizer step between rounds: same shape, new bits.
            // A stale packed image of the old weights must never be
            // returned (the cache keys on content, not identity).
            weights = matrix(6, 5, 100 + epoch);
        }

        let stats = px.cache_stats();
        assert_eq!(
            stats.hits + stats.misses,
            2 * launches,
            "budget {budget}: every launch looks up exactly two operands"
        );
        match budget {
            0 => assert_eq!(stats.hits, 0, "zero budget must never hit"),
            b if b >= 1 << 20 => assert!(
                stats.hits > 0,
                "ample budget: weights shared across a round must hit"
            ),
            _ => {}
        }
    }
}
