//! Integration tests: concurrent clients, backpressure, deadlines,
//! breaker trip/recovery, arrival-order rounds — all asserting
//! bit-equality against the eager CPU reference (chaos must never
//! corrupt data).

use mpt_arith::{qgemm, QGemmConfig};
use mpt_faults::{FaultPlan, FaultSite, Injector, RetryPolicy, Trigger};
use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig, DEFAULT_CACHE_BUDGET};
use mpt_serving::{
    BreakerState, GemmService, RequestClass, ServeConfig, ServeHandle, ServeResult, BATCH_MAX,
    QUEUE_CAP,
};
use mpt_tensor::Tensor;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
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

/// Occupies the dispatcher with a 96³ GEMM, then queues `small`
/// behind it, so they drain together in a later round. Returns the
/// heavyweight's receiver and one receiver per small request.
fn queue_behind_heavyweight(
    h: &ServeHandle,
    cfg: QGemmConfig,
    small: &[(Tensor, Tensor)],
) -> (Receiver<ServeResult>, Vec<Receiver<ServeResult>>) {
    let (big_a, big_b) = operands(96, 96, 96);
    let big_rx = h.submit(big_a, big_b, cfg, RequestClass::Inference, None);
    let rxs = small
        .iter()
        .map(|(a, b)| h.submit(a.clone(), b.clone(), cfg, RequestClass::Inference, None))
        .collect();
    (big_rx, rxs)
}

/// The `degraded` flag of a reply, after checking its bits.
fn degraded_flag(rx: Receiver<ServeResult>, a: &Tensor, b: &Tensor, cfg: &QGemmConfig) -> bool {
    match rx.recv().unwrap() {
        ServeResult::Done { out, degraded } => {
            assert_eq!(out, qgemm(a, b, cfg).unwrap(), "no route may corrupt");
            degraded
        }
        other => panic!("unexpected {other:?}"),
    }
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
                match h.call(&a, &b, &cfg, RequestClass::Inference, None).unwrap() {
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
    let service = GemmService::start(ServeConfig::default(), executor(), None);
    let h = service.handle();
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(5);
    let (a, b) = operands(6, 8, 4);
    let want = qgemm(&a, &b, &qcfg).unwrap();
    // More requests than the queue holds, submitted while a
    // heavyweight GEMM keeps the dispatcher busy: the overflow is shed
    // at once. Retry a few rounds — scheduling can race.
    let n = QUEUE_CAP + 2 * BATCH_MAX;
    for round in 1..=10u64 {
        let small = vec![(a.clone(), b.clone()); n];
        let (big_rx, rxs) = queue_behind_heavyweight(&h, qcfg, &small);
        let mut rejected = 0;
        for rx in rxs {
            match rx.recv().unwrap() {
                ServeResult::Done { out, .. } => assert_eq!(out, want),
                ServeResult::Rejected { retry_after } => {
                    rejected += 1;
                    assert!(
                        (Duration::from_micros(10)..=Duration::from_millis(50))
                            .contains(&retry_after),
                        "retry_after {retry_after:?}"
                    );
                    // A shed client recovers through `call`.
                    match h
                        .call(&a, &b, &qcfg, RequestClass::Inference, None)
                        .unwrap()
                    {
                        ServeResult::Done { out, .. } => assert_eq!(out, want),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(big_rx.recv().unwrap(), ServeResult::Done { .. }));
        if rejected > 0 {
            let (completed, _, degraded, expired) = h.stats().snapshot();
            assert_eq!(completed, round * (n as u64 + 1), "every request completes");
            assert_eq!((degraded, expired), (0, 0));
            // A shed request found the queue full, and it never grows
            // past full.
            assert_eq!(
                h.stats().queue_high_water.load(Ordering::Relaxed),
                QUEUE_CAP as u64
            );
            service.shutdown();
            return;
        }
    }
    panic!("{n} queued requests never overflowed a queue of {QUEUE_CAP}");
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

/// The pinned breaker sequence: two consecutive sticky exhaustions
/// trip it (closed→open), the cooldown of 8 bypassed requests
/// half-opens it, and a clean probe closes it again — with every
/// response bit-identical throughout, and the state each reply left
/// readable as soon as the reply arrives.
#[test]
fn breaker_trips_to_cpu_and_recovers_pinned_sequence() {
    let plan = FaultPlan::new(1)
        .with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(1))
        .with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(2));
    let cfg = ServeConfig {
        retry: RetryPolicy::no_delay(3),
    };
    let service = GemmService::start(cfg, executor(), Some(Injector::new(plan)));
    let h = service.handle();
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(7);
    let (a, b) = operands(7, 9, 5);

    // Serve strictly one at a time so request k maps to launch k
    // while the breaker is closed.
    let mut degraded_flags = Vec::new();
    let mut states = Vec::new();
    for _ in 0..13 {
        let rx = h.submit(a.clone(), b.clone(), qcfg, RequestClass::Inference, None);
        degraded_flags.push(degraded_flag(rx, &a, &b, &qcfg));
        states.push(h.breaker_state());
    }
    // Replies 1–2 exhaust launches 1–2 and trip the breaker; 3–10
    // bypass on the CPU through the cooldown; 11 is the half-open
    // probe on a clean launch; 12–13 flow normally.
    let want: Vec<bool> = (1..=13).map(|reply| reply <= 10).collect();
    assert_eq!(degraded_flags, want);
    let want: Vec<BreakerState> = (1..=13)
        .map(|reply| match reply {
            2..=9 => BreakerState::Open,
            10 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        })
        .collect();
    assert_eq!(states, want, "the state after each reply");
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
    let (completed, _, degraded, _) = h.stats().snapshot();
    assert_eq!(completed, 13);
    assert_eq!(degraded, 10);
    service.shutdown();
}

#[test]
fn queued_requests_drain_in_one_round() {
    let service = GemmService::start(ServeConfig::default(), executor(), None);
    let h = service.handle();
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(9);
    let (a, b) = operands(8, 12, 6);
    // Occupy the dispatcher with a heavyweight GEMM, then queue small
    // requests: they drain together in one round. Retry a few rounds
    // — scheduling can race.
    for _ in 0..10 {
        let small = vec![(a.clone(), b.clone()); 8];
        let (big_rx, rxs) = queue_behind_heavyweight(&h, qcfg, &small);
        assert!(matches!(big_rx.recv().unwrap(), ServeResult::Done { .. }));
        for rx in rxs {
            assert!(!degraded_flag(rx, &a, &b, &qcfg));
        }
        if h.stats().coalesced.load(Ordering::Relaxed) >= 2 {
            service.shutdown();
            return;
        }
    }
    panic!("requests queued behind a busy dispatcher never shared a round");
}

/// Runs `small` behind a heavyweight GEMM under `plan` on a fresh
/// service, hands each small request's `degraded` flag to `check`,
/// and retries until at least `min_shared` requests shared one
/// drained round.
fn check_degraded_in_shared_round(
    plan: impl Fn() -> FaultPlan,
    small: &[(Tensor, Tensor)],
    min_shared: u64,
    check: impl Fn(&[bool]),
) {
    let qcfg = QGemmConfig::fp8_fp12_sr().with_seed(9);
    for _ in 0..10 {
        let service = GemmService::start(
            ServeConfig::default(),
            executor(),
            Some(Injector::new(plan())),
        );
        let h = service.handle();
        let (big_rx, rxs) = queue_behind_heavyweight(&h, qcfg, small);
        let (big_a, big_b) = operands(96, 96, 96);
        assert!(!degraded_flag(big_rx, &big_a, &big_b, &qcfg));
        let flags: Vec<bool> = rxs
            .into_iter()
            .zip(small)
            .map(|(rx, (a, b))| degraded_flag(rx, a, b, &qcfg))
            .collect();
        check(&flags);
        let coalesced = h.stats().coalesced.load(Ordering::Relaxed);
        service.shutdown();
        if coalesced >= min_shared {
            return;
        }
    }
    panic!("the queued requests never shared one round");
}

/// A sticky launch inside a round degrades that request alone; the
/// rest of the round stays on the device.
#[test]
fn sticky_launch_in_a_round_degrades_only_its_request() {
    // Launch 1 is the heavyweight GEMM occupying the dispatcher; the 8
    // small requests queued behind it are launches 2–9 in arrival
    // order, so small request 2 is launch 4.
    let plan = || FaultPlan::new(2).with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(4));
    let small = vec![operands(8, 12, 6); 8];
    let want: Vec<bool> = (0..8).map(|i| i == 2).collect();
    check_degraded_in_shared_round(plan, &small, 8, |flags| assert_eq!(flags, want));
}

/// When the breaker trips in the middle of a round, every request
/// after the trip bypasses to the CPU: the breaker is checked before
/// each launch, not once per round.
#[test]
fn breaker_trip_mid_round_bypasses_the_rest_of_the_round() {
    // Small requests 0 and 1 (launches 2 and 3) exhaust and trip the
    // breaker; the cooldown of 8 outlasts the 6 that follow.
    let plan = || {
        FaultPlan::new(3)
            .with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(2))
            .with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(3))
    };
    let small = vec![operands(8, 12, 6); 8];
    check_degraded_in_shared_round(plan, &small, 8, |flags| {
        assert_eq!(flags, [true; 8], "requests after the trip must bypass")
    });
}

/// A round is served in arrival order: X, Y, X queued together launch
/// as 2, 3, 4, so the sticky launch 3 is Y's.
#[test]
fn a_round_launches_in_arrival_order() {
    let plan = || FaultPlan::new(4).with(FaultSite::LaunchTransient, Trigger::StickyAtLaunch(3));
    let (x, y) = (operands(8, 12, 6), operands(5, 12, 6));
    let small = [x.clone(), y, x];
    check_degraded_in_shared_round(plan, &small, 3, |flags| {
        assert_eq!(flags, [false, true, false], "Y is launch 3")
    });
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
        let _ = h.call(&a, &b, &cfg, RequestClass::Training, None);
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
                    .call(&a, &b, &qcfg, RequestClass::Inference, deadline)
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
