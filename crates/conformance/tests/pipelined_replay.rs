//! Pipelined-executor conformance: the staged launch queue with
//! packed-operand caching must be invisible to the numbers.
//!
//! Two angles:
//!
//! * the full LeNet training replay runs through a pipelined
//!   [`FpgaBackend`] and must land on the same golden weight digest
//!   as the eager CPU path (`tests/golden/lenet_fp8_replay.digest`);
//! * a property test interleaves arbitrary weight updates with
//!   cached launches — under any cache budget (including zero and
//!   eviction-churning ones) every launch must be bit-identical to
//!   the uncached eager kernel on the *current* weights, i.e. a
//!   stale cache read is impossible.
//!
//! A third test pins what the replay does *not* do: build HBM images
//! (packed words + CRC) nobody reads. Only a faulted transfer does.

use conformance::{replay_digest_path, replay_lenet, replay_lenet_with};
use mpt_arith::{qgemm_parallel, GemmBackend, QGemmConfig};
use mpt_core::TrainOptions;
use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
use mpt_fpga::{Accelerator, FpgaBackend, PipelinedExecutor, SaConfig};
use mpt_tensor::Tensor;
use proptest::prelude::*;
use std::rc::Rc;

#[test]
fn pipelined_fpga_training_reproduces_golden_digest() {
    let clean = replay_lenet(1);
    let golden = std::fs::read_to_string(replay_digest_path()).ok();

    let backend = Rc::new(
        FpgaBackend::new(Accelerator::new(
            SaConfig::new(8, 8, 4).expect("valid"),
            298.0,
        ))
        .pipelined(),
    );
    let pipelined = replay_lenet_with(
        Rc::clone(&backend) as Rc<dyn GemmBackend>,
        &TrainOptions::default(),
    )
    .expect("no checkpoint I/O configured");

    let stats = backend.cache_stats().expect("pipelined mode");
    assert!(stats.misses > 0, "training never launched — vacuous test");
    assert!(
        backend.pipelined_elapsed_s() > 0.0,
        "overlap accounting recorded no hardware time"
    );

    // Same bits as the fault-free eager CPU replay...
    assert_eq!(
        pipelined.digest, clean.digest,
        "the staged/cached executor changed the trained weights"
    );
    // ...and as the checked-in golden digest, when present.
    if let Some(golden) = &golden {
        assert_eq!(
            pipelined.digest,
            golden.trim(),
            "pipelined digest diverged from the golden file"
        );
    }
}

/// HBM images are materialised on demand: a whole training replay
/// builds none when fault-free or when an armed plan never fires, and
/// exactly one per corrupted transfer — with the pack stage's modeled
/// counts and the trained weights identical in all three.
#[test]
fn hbm_images_are_built_only_for_faulted_transfers() {
    let run = |plan: Option<FaultPlan>| {
        let mut backend = FpgaBackend::new(Accelerator::new(
            SaConfig::new(8, 8, 4).expect("valid"),
            298.0,
        ))
        .pipelined()
        .with_retry_policy(RetryPolicy::no_delay(3));
        if let Some(plan) = plan {
            backend = backend.with_fault_plan(plan);
        }
        let backend = Rc::new(backend);
        let out = replay_lenet_with(backend.clone(), &TrainOptions::default())
            .expect("no checkpoint I/O configured");
        assert_eq!(backend.fallback_count(), 0, "single faults retry clean");
        (out.digest, backend.cache_stats().expect("pipelined mode"))
    };
    let (clean_digest, clean) = run(None);
    assert!(clean.packs > 0, "training never launched — vacuous test");
    assert_eq!(clean.images_built, 0, "fault-free run built an image");

    // Armed, every trigger beyond the run's last launch.
    let idle = FaultPlan::new(7)
        .with(FaultSite::HbmCorruption, Trigger::AtLaunch(u64::MAX))
        .with(FaultSite::LaunchTimeout, Trigger::AtLaunch(u64::MAX));
    let (idle_digest, idle) = run(Some(idle));
    assert_eq!(idle.images_built, 0, "armed-but-idle run built an image");

    let (hit_digest, hit) = run(Some(
        FaultPlan::new(7).with(FaultSite::HbmCorruption, Trigger::AtLaunch(5)),
    ));
    assert_eq!(hit.images_built, 1, "one corrupted transfer, one image");

    for (digest, stats) in [(idle_digest, idle), (hit_digest, hit)] {
        assert_eq!(digest, clean_digest);
        assert_eq!(
            (stats.packs, stats.bytes_packed, stats.hits, stats.misses),
            (clean.packs, clean.bytes_packed, clean.hits, clean.misses),
            "modeled pack-stage work must not depend on image materialisation"
        );
    }
}

/// One deterministic pseudo-random matrix; `tag` decorrelates streams.
fn matrix(rows: usize, cols: usize, tag: u64) -> Tensor {
    Tensor::from_fn(vec![rows, cols], |i| {
        let x = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        ((x >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaves weight updates with launches under a randomized
    /// cache budget. After every update the next launch must see the
    /// new weights: the cache keys on operand *content*, so an update
    /// re-keys the operand and the stale entry can never be returned.
    #[test]
    fn cached_launches_track_weight_updates(
        ops in proptest::collection::vec(0u8..3, 1..14),
        seed in 0u64..1000,
        budget_sel in 0usize..3,
    ) {
        // 0: caching disabled; 1: tiny budget (fits roughly one
        // operand, so the working set churns through eviction);
        // 2: ample budget (everything stays resident).
        let budget = [0, 700, 1 << 20][budget_sel];
        let acc = Accelerator::new(SaConfig::new(4, 4, 2).expect("valid"), 300.0);
        let mut px = PipelinedExecutor::new(acc, budget);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(seed);

        let mut weights = matrix(6, 5, seed);
        let mut generation = 0u64;
        let mut launches = 0u64;
        for (step, op) in ops.iter().enumerate() {
            match op {
                // Weight update: new content, same shape.
                0 => {
                    generation += 1;
                    weights = matrix(6, 5, seed ^ (generation << 32));
                }
                // Launch on a fresh activation batch.
                1 => {
                    let a = matrix(4, 6, seed.wrapping_add(step as u64) | 1 << 60);
                    let (got, _) = px.launch(&a, &weights, &cfg).expect("valid shapes");
                    let want = qgemm_parallel(&a, &weights, &cfg, 2).expect("valid shapes");
                    prop_assert_eq!(got, want, "fresh launch diverged at step {}", step);
                    launches += 1;
                }
                // Re-launch a previously seen activation (the cache's
                // hit path, when the budget allows residency).
                _ => {
                    let a = matrix(4, 6, seed | 1 << 60);
                    let (got, _) = px.launch(&a, &weights, &cfg).expect("valid shapes");
                    let want = qgemm_parallel(&a, &weights, &cfg, 2).expect("valid shapes");
                    prop_assert_eq!(got, want, "replayed launch diverged at step {}", step);
                    launches += 1;
                }
            }
        }
        let stats = px.cache_stats();
        prop_assert_eq!(stats.hits + stats.misses, 2 * launches);
        if budget == 0 {
            prop_assert_eq!(stats.hits, 0, "zero budget must never hit");
        }
    }
}
