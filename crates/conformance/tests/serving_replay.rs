//! Serving-front-end conformance: the golden LeNet training replay
//! runs *through the queue* — the trainer is one more client behind
//! admission control, arrival-order rounds and the circuit breaker,
//! with concurrent inference clients hammering the same service — and
//! must land on the same weight digest as the direct pipelined
//! backend.
//!
//! Degradation is a latency statement, never a correctness one: the
//! chaos variant arms every fault site and still pins the digest.

use conformance::{replay_digest_path, replay_lenet, replay_lenet_with};
use mpt_arith::{qgemm, QGemmConfig};
use mpt_core::TrainOptions;
use mpt_faults::{FaultPlan, FaultSite, Injector, Trigger};
use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig, DEFAULT_CACHE_BUDGET};
use mpt_serving::{
    GemmService, RequestClass, ServeConfig, ServeHandle, ServeResult, ServingBackend,
};
use mpt_tensor::Tensor;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start_service(injector: Option<Injector>) -> GemmService {
    // The same accelerator geometry as the direct pipelined replay.
    let acc = Accelerator::new(SaConfig::new(8, 8, 4).expect("valid"), 298.0);
    GemmService::start(
        ServeConfig::default(),
        PipelinedExecutor::new(acc, DEFAULT_CACHE_BUDGET),
        injector,
    )
}

/// An inference client looping small GEMMs until `stop`, checking
/// every completed response bit-for-bit against the eager kernel.
/// Returns how many requests it got served.
fn spawn_inference(h: ServeHandle, stop: Arc<AtomicBool>, client: u64) -> JoinHandle<u64> {
    std::thread::spawn(move || {
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(21 + client);
        let a = Tensor::from_fn(vec![5 + client as usize, 9], |i| {
            ((i * 31 % 37) as f32 - 18.0) * 0.05
        });
        let b = Tensor::from_fn(vec![9, 6], |i| ((i * 29 % 33) as f32 - 16.0) * 0.04);
        let want = qgemm(&a, &b, &cfg).expect("conforming operands");
        let mut served = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let deadline = Some(Instant::now() + Duration::from_secs(30));
            match h
                .call(&a, &b, &cfg, RequestClass::Inference, deadline)
                .expect("conforming operands")
            {
                ServeResult::Done { out, .. } => {
                    assert_eq!(out, want, "client {client}: corrupted inference response");
                    served += 1;
                }
                // Injected expiry under the chaos variant.
                ServeResult::DeadlineExceeded => {}
                other => panic!("client {client}: unexpected {other:?}"),
            }
        }
        served
    })
}

/// Runs the golden replay with the trainer behind the queue and
/// `clients` concurrent inference threads; returns the digest.
fn replay_through_service(injector: Option<Injector>, clients: u64) -> String {
    let service = start_service(injector);
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (1..=clients)
        .map(|c| spawn_inference(service.handle(), Arc::clone(&stop), c))
        .collect();

    let backend = Rc::new(ServingBackend::new(service.handle()));
    let outcome =
        replay_lenet_with(backend, &TrainOptions::default()).expect("no checkpoint I/O configured");

    stop.store(true, Ordering::Relaxed);
    let served: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(
        served > 0,
        "inference traffic never interleaved with training — vacuous test"
    );
    service.shutdown();
    outcome.digest
}

#[test]
fn training_through_serving_queue_reproduces_golden_digest() {
    let digest = replay_through_service(None, 2);
    let clean = replay_lenet(1);
    assert_eq!(
        digest, clean.digest,
        "the serving queue changed the trained weights"
    );
    if let Ok(golden) = std::fs::read_to_string(replay_digest_path()) {
        assert_eq!(
            digest,
            golden.trim(),
            "serving-path digest diverged from the golden file"
        );
    }
}

#[test]
fn training_through_serving_queue_survives_chaos_bit_identically() {
    // Every site armed: sticky exhaustions trip the breaker early,
    // overload sheds whole rounds, injected deadlines expire
    // inference requests. The trainer carries no deadline and retries
    // through backpressure, so training completes — on the same bits.
    let plan = FaultPlan::new(42)
        .with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(1))
        .with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(2))
        .with(FaultSite::HbmCorruption, Trigger::EveryNth(7))
        .with(FaultSite::BitstreamLoad, Trigger::Probability(0.02))
        .with(FaultSite::QueueOverload, Trigger::EveryNth(11))
        .with(FaultSite::DeadlineExceeded, Trigger::EveryNth(6));
    let digest = replay_through_service(Some(Injector::new(plan)), 2);
    let clean = replay_lenet(1);
    assert_eq!(
        digest, clean.digest,
        "chaos through the serving queue corrupted training"
    );
}
