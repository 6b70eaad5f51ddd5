//! Integration tests: concurrent clients, backpressure, deadlines,
//! breaker trip/recovery, coalescing — all asserting bit-equality
//! against the eager CPU reference (chaos must never corrupt data).

use mpt_arith::{qgemm, QGemmConfig};
use mpt_faults::{FaultPlan, FaultSite, Injector, RetryPolicy, Trigger};
use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig, DEFAULT_CACHE_BUDGET};
use mpt_serving::{BreakerState, GemmService, RequestClass, ServeConfig, ServeResult};
use mpt_tensor::Tensor;
use std::time::{Duration, Instant};

fn executor() -> PipelinedExecutor {
    let acc = Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0);
    PipelinedExecutor::new(acc, DEFAULT_CACHE_BUDGET)
}

fn operands(n: usize, k: usize, m: usize) -> (Tensor, Tensor) {
    (
        Tensor::from_fn(vec![n, k], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05),
        Tensor::from_fn(vec![k, m], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04),
    )
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let service = GemmService::start(ServeConfig::default(), executor(), None);
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
    let mut workers = Vec::new();
    for client in 0..4u64 {
        let h = service.handle();
        workers.push(std::thread::spawn(move || {
            for round in 0..8 {
                let (a, b) = operands(5 + client as usize, 9, 4 + round % 3);
                let want = qgemm(&a, &b, &cfg).unwrap();
                match h
                    .call(&a, &b, &cfg, RequestClass::Inference, None, client)
                    .unwrap()
                {
                    ServeResult::Done { out, .. } => assert_eq!(out, want),
                    other => panic!("client {client}: unexpected {other:?}"),
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let (completed, rejected, degraded, expired) = service.handle().stats().snapshot();
    assert_eq!(completed, 32);
    assert_eq!((rejected, degraded, expired), (0, 0, 0));
    service.shutdown();
}

#[test]
fn full_queue_rejects_with_retry_after_and_clients_recover() {
    let cfg = ServeConfig {
        queue_cap: 2,
        batch_max: 1,
        ..ServeConfig::default()
    };
    let service = GemmService::start(cfg, executor(), None);
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
    // Large-ish GEMMs keep the dispatcher busy so the tiny queue
    // actually fills; `call` retries shed requests until served.
    let mut workers = Vec::new();
    for client in 0..6u64 {
        let h = service.handle();
        workers.push(std::thread::spawn(move || {
            let (a, b) = operands(24, 24, 24);
            let want = qgemm(&a, &b, &qcfg).unwrap();
            for _ in 0..4 {
                match h
                    .call(&a, &b, &qcfg, RequestClass::Inference, None, client)
                    .unwrap()
                {
                    ServeResult::Done { out, .. } => assert_eq!(out, want),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    let (completed, _, degraded, expired) = service.handle().stats().snapshot();
    assert_eq!(completed, 24, "every request eventually completes");
    assert_eq!((degraded, expired), (0, 0));
    service.shutdown();
}

#[test]
fn expired_deadline_is_cancelled_cooperatively() {
    let service = GemmService::start(ServeConfig::default(), executor(), None);
    let h = service.handle();
    let cfg = QGemmConfig::fp8_fp12_sr();
    let (a, b) = operands(6, 8, 4);
    // A deadline already in the past must never launch.
    let rx = h.submit(
        a.clone(),
        b.clone(),
        cfg,
        RequestClass::Inference,
        Some(Instant::now() - Duration::from_millis(1)),
    );
    assert!(matches!(rx.recv().unwrap(), ServeResult::DeadlineExceeded));
    // A generous deadline completes normally.
    let rx = h.submit(
        a.clone(),
        b.clone(),
        cfg,
        RequestClass::Inference,
        Some(Instant::now() + Duration::from_secs(60)),
    );
    match rx.recv().unwrap() {
        ServeResult::Done { out, .. } => assert_eq!(out, qgemm(&a, &b, &cfg).unwrap()),
        other => panic!("unexpected {other:?}"),
    }
    let (_, _, _, expired) = h.stats().snapshot();
    assert_eq!(expired, 1);
    service.shutdown();
}

/// The acceptance-pinned breaker sequence: two consecutive sticky
/// exhaustions trip it (closed→open), the cooldown of bypassed
/// requests half-opens it, and a clean probe closes it again — with
/// every response bit-identical throughout.
#[test]
fn breaker_trips_to_cpu_and_recovers_pinned_sequence() {
    let plan = FaultPlan::new(1)
        .with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(1))
        .with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(2));
    let cfg = ServeConfig {
        breaker_threshold: 2,
        breaker_cooldown: 3,
        retry: RetryPolicy::no_delay(3),
        ..ServeConfig::default()
    };
    let service = GemmService::start(cfg, executor(), Some(Injector::new(plan)));
    let h = service.handle();
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(7);
    let (a, b) = operands(7, 9, 5);
    let want = qgemm(&a, &b, &qcfg).unwrap();

    // Serve strictly one at a time so request k maps to launch k
    // while the breaker is closed.
    let mut degraded_flags = Vec::new();
    for client in 0..8u64 {
        match h
            .call(&a, &b, &qcfg, RequestClass::Inference, None, client)
            .unwrap()
        {
            ServeResult::Done { out, degraded } => {
                assert_eq!(out, want, "no route may corrupt the result");
                degraded_flags.push(degraded);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Launch 1 and 2 exhaust (degraded), trip the breaker; requests
    // 3–5 bypass on CPU (degraded) through the cooldown; request 6 is
    // the half-open probe on a clean launch; 7–8 flow normally.
    assert_eq!(
        degraded_flags,
        [true, true, true, true, true, false, false, false]
    );
    let seq: Vec<String> = h
        .breaker_transitions()
        .iter()
        .map(|t| t.to_string())
        .collect();
    assert_eq!(
        seq,
        ["closed->open", "open->half_open", "half_open->closed"],
        "the trip/recovery sequence is pinned"
    );
    assert_eq!(h.breaker_state(), BreakerState::Closed);
    let (completed, _, degraded, _) = h.stats().snapshot();
    assert_eq!(completed, 8);
    assert_eq!(degraded, 5);
    service.shutdown();
}

#[test]
fn same_shape_requests_coalesce_into_batched_launches() {
    let cfg = ServeConfig {
        batch_max: 16,
        ..ServeConfig::default()
    };
    let service = GemmService::start(cfg, executor(), None);
    let h = service.handle();
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(9);
    let (a, b) = operands(8, 12, 6);
    let want = qgemm(&a, &b, &qcfg).unwrap();
    // Occupy the dispatcher with a heavyweight GEMM, then flood
    // identical small requests: they queue behind it and drain as one
    // coalesced round. Retry a few rounds — scheduling can race.
    let mut saw_coalescing = false;
    for _ in 0..10 {
        let (big_a, big_b) = operands(96, 96, 96);
        let big_rx = h.submit(big_a, big_b, qcfg, RequestClass::Inference, None);
        let rxs: Vec<_> = (0..8)
            .map(|_| h.submit(a.clone(), b.clone(), qcfg, RequestClass::Inference, None))
            .collect();
        assert!(matches!(big_rx.recv().unwrap(), ServeResult::Done { .. }));
        for rx in rxs {
            match rx.recv().unwrap() {
                ServeResult::Done { out, .. } => assert_eq!(out, want),
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = h.stats();
        if stats.coalesced.load(std::sync::atomic::Ordering::Relaxed) >= 2 {
            saw_coalescing = true;
            break;
        }
    }
    assert!(saw_coalescing, "identical queued requests must coalesce");
    service.shutdown();
}

/// A sticky launch inside a coalesced group degrades that request
/// alone; the rest of the group stays on the device.
#[test]
fn sticky_launch_in_a_coalesced_group_degrades_only_its_request() {
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(9);
    let (a, b) = operands(8, 12, 6);
    let want = qgemm(&a, &b, &qcfg).unwrap();
    // Launch 1 is the heavyweight GEMM occupying the dispatcher; the 8
    // small requests queued behind it are launches 2–9 in submission
    // order however they are grouped, so small request 2 is launch 4.
    // Retry until all 8 rode coalesced groups — scheduling can race.
    for _ in 0..10 {
        let plan = FaultPlan::new(2).with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(4));
        let service = GemmService::start(
            ServeConfig::default(),
            executor(),
            Some(Injector::new(plan)),
        );
        let h = service.handle();
        let (big_a, big_b) = operands(96, 96, 96);
        let big_rx = h.submit(big_a, big_b, qcfg, RequestClass::Inference, None);
        let rxs: Vec<_> = (0..8)
            .map(|_| h.submit(a.clone(), b.clone(), qcfg, RequestClass::Inference, None))
            .collect();
        assert!(matches!(
            big_rx.recv().unwrap(),
            ServeResult::Done {
                degraded: false,
                ..
            }
        ));
        for (i, rx) in rxs.into_iter().enumerate() {
            match rx.recv().unwrap() {
                ServeResult::Done { out, degraded } => {
                    assert_eq!(out, want, "request {i}");
                    assert_eq!(degraded, i == 2, "request {i}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = h.stats();
        assert_eq!(stats.snapshot().2, 1, "exactly one degraded reply");
        let coalesced = stats.coalesced.load(std::sync::atomic::Ordering::Relaxed);
        service.shutdown();
        if coalesced == 8 {
            return;
        }
    }
    panic!("the 8 identical queued requests never all coalesced");
}

/// A client still holding a handle after shutdown gets a panic naming
/// the shutdown, not a rejection it would retry forever.
#[test]
fn call_after_shutdown_panics_instead_of_retrying() {
    let service = GemmService::start(ServeConfig::default(), executor(), None);
    let h = service.handle();
    service.shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let (a, b) = operands(4, 6, 3);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let _ = h.call(&a, &b, &cfg, RequestClass::Training, None, 0);
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(5)) {
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
        Ok(()) => panic!("call after shutdown returned"),
        Err(e) => panic!("call after shutdown still running after 5 s: {e}"),
    }
    let payload = client.join().expect_err("the client thread panicked");
    let msg = payload
        .downcast_ref::<String>()
        .expect("an expect() message");
    assert!(msg.contains("shut down"), "panic message: {msg}");
}

#[test]
fn chaos_storm_never_corrupts_any_response() {
    // Every site armed, probability triggers — the full storm. Each
    // response is checked against the eager CPU reference.
    let plan = FaultPlan::new(42)
        .with(FaultSite::LaunchTimeout, Trigger::Probability(0.10))
        .with(FaultSite::LaunchTransient, Trigger::Probability(0.15))
        .with(FaultSite::HbmCorruption, Trigger::EveryNth(7))
        .with(FaultSite::BitstreamLoad, Trigger::StickyAtLaunch(11))
        .with(FaultSite::QueueOverload, Trigger::EveryNth(9))
        .with(FaultSite::DeadlineExceeded, Trigger::EveryNth(5));
    let cfg = ServeConfig {
        retry: RetryPolicy::no_delay(3),
        ..ServeConfig::default()
    };
    let service = GemmService::start(cfg, executor(), Some(Injector::new(plan)));
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(11);
    let mut workers = Vec::new();
    for client in 0..4u64 {
        let h = service.handle();
        workers.push(std::thread::spawn(move || {
            let mut served = 0u64;
            let mut expired = 0u64;
            for round in 0..12 {
                let (a, b) = operands(4 + (client + round) as usize % 5, 8, 5);
                let want = qgemm(&a, &b, &qcfg).unwrap();
                // Generous wall-clock deadline: only injected expiry
                // fires in practice.
                let deadline = Some(Instant::now() + Duration::from_secs(60));
                match h
                    .call(&a, &b, &qcfg, RequestClass::Inference, deadline, client)
                    .unwrap()
                {
                    ServeResult::Done { out, .. } => {
                        assert_eq!(out, want, "chaos corrupted a response");
                        served += 1;
                    }
                    ServeResult::DeadlineExceeded => expired += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
            (served, expired)
        }));
    }
    let mut total_served = 0;
    for w in workers {
        let (served, _) = w.join().unwrap();
        total_served += served;
    }
    assert!(total_served > 0, "the storm must not starve everyone");
    let (completed, _, _, expired) = service.handle().stats().snapshot();
    assert_eq!(completed, total_served);
    // The injected DeadlineExceeded site fired at least once.
    assert!(expired > 0, "deadline chaos must fire under EveryNth(5)");
    service.shutdown();
}
