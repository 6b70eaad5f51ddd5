//! Chaos conformance: training under injected FPGA faults must
//! reproduce the fault-free golden weight digest.
//!
//! The replay recipe of `training_replay.rs` is run through the FPGA
//! backend — at the zero-byte and the default operand-cache budget,
//! one launch route either way — with a deterministic [`FaultPlan`] armed: launch
//! timeouts, transient failures, CRC-caught HBM corruption and a
//! sticky fault that exhausts the retry budget and forces a CPU
//! fallback. Because retry re-executes the identical launch and the
//! fallback path is the bit-identical emulation kernel, the trained
//! weights must not change by a single bit.
//!
//! The fault seed comes from `MPT_FAULT_SEED` (default 42) so the CI
//! chaos matrix can sweep seeds without recompiling.

use conformance::{replay_digest_path, replay_lenet, replay_lenet_with};
use mpt_arith::GemmBackend;
use mpt_core::TrainOptions;
use mpt_faults::{FaultPlan, FaultSite, RetryPolicy, Trigger};
use mpt_fpga::{Accelerator, FpgaBackend, SaConfig};
use std::rc::Rc;

fn fault_seed() -> u64 {
    std::env::var("MPT_FAULT_SEED")
        .ok()
        .map(|s| s.parse().expect("MPT_FAULT_SEED is a number"))
        .unwrap_or(42)
}

/// The chaos schedule: every site armed, including a sticky fault
/// that forces at least one CPU fallback mid-training.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultSite::LaunchTimeout, Trigger::Probability(0.10))
        .with(FaultSite::LaunchTransient, Trigger::Probability(0.15))
        .with(FaultSite::HbmCorruption, Trigger::EveryNth(7))
        .with(FaultSite::BitstreamLoad, Trigger::StickyAtLaunch(11))
}

/// A fresh `<8,8,4>` backend, with the default operand cache or none,
/// under `plan`.
fn fpga_backend(pipelined: bool, plan: FaultPlan) -> Rc<FpgaBackend> {
    let uncached = FpgaBackend::new(Accelerator::new(
        SaConfig::new(8, 8, 4).expect("valid"),
        298.0,
    ))
    .with_fault_plan(plan)
    .with_retry_policy(RetryPolicy::no_delay(3));
    Rc::new(if pipelined {
        uncached.pipelined()
    } else {
        uncached
    })
}

#[test]
fn faulted_fpga_training_reproduces_fault_free_digest() {
    // With MPT_TELEMETRY_JSONL set (the CI chaos job), the injected
    // fault/fallback events stream to the artifact file. Telemetry is
    // proven non-perturbing by telemetry_invariance.rs.
    let telemetry = mpt_telemetry::init_from_env();
    let seed = fault_seed();
    let clean = replay_lenet(1);
    let golden = std::fs::read_to_string(replay_digest_path()).ok();

    // One gate sequence serves both budgets, so both face the same
    // schedule and must land on the same bits.
    for pipelined in [false, true] {
        let backend = fpga_backend(pipelined, chaos_plan(seed));
        let mode = format!("{} cached={pipelined}", backend.label());
        let chaos = replay_lenet_with(backend.clone(), &TrainOptions::default())
            .expect("no checkpoint I/O configured");

        let injector = backend.injector().expect("every backend holds one");
        assert!(
            injector.injected_count() > 0,
            "{mode}: chaos run injected no faults (seed {seed}) — the test is vacuous"
        );
        assert!(
            backend.fallback_count() >= 1,
            "{mode}: the sticky bitstream fault must force at least one CPU fallback"
        );

        // Same bits as the fault-free CPU replay...
        assert_eq!(
            chaos.digest,
            clean.digest,
            "{mode}: fault recovery changed the trained weights (seed {seed}, \
             {} faults injected, {} fallbacks)",
            injector.injected_count(),
            backend.fallback_count()
        );
        // ...and as the checked-in golden digest, when present.
        if let Some(golden) = &golden {
            assert_eq!(
                chaos.digest,
                golden.trim(),
                "{mode}: chaos digest diverged from the golden file (seed {seed})"
            );
        }

        // Stage replays never re-pack, and a degraded launch has
        // still packed: the pack stage's work is the fault-free run's,
        // whatever the schedule did downstream of it.
        let fault_free = fpga_backend(pipelined, FaultPlan::new(seed));
        replay_lenet_with(fault_free.clone(), &TrainOptions::default())
            .expect("no checkpoint I/O configured");
        let (faulted, free) = (
            backend.cache_stats().expect("every backend has a cache"),
            fault_free.cache_stats().expect("every backend has a cache"),
        );
        assert!(
            faulted.images_built > 0,
            "{mode}: no corrupted transfer was CRC-checked"
        );
        assert_eq!(
            (faulted.packs, faulted.bytes_packed),
            (free.packs, free.bytes_packed),
            "{mode}: fault recovery changed the pack stage's work (seed {seed})"
        );
    }
    if telemetry {
        mpt_telemetry::sink::flush();
    }
}

#[test]
fn chaos_schedule_is_deterministic_across_runs() {
    let seed = fault_seed();
    let run = |_: usize| {
        let backend = fpga_backend(false, chaos_plan(seed));
        let out = replay_lenet_with(backend.clone(), &TrainOptions::default())
            .expect("no checkpoint I/O configured");
        let inj = backend.injector().expect("every backend holds one");
        (
            out.digest,
            inj.injected_count(),
            backend.fallback_count(),
            inj.launch_count(),
        )
    };
    assert_eq!(
        run(0),
        run(1),
        "the same fault seed must replay the same fault schedule"
    );
}
