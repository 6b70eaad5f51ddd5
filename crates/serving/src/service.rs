//! The queue + dispatcher: admission control, deadlines, breaker.
//!
//! One dispatcher thread owns the [`PipelinedExecutor`] and the
//! [`Injector`] (the empty plan unless the service was started
//! chaos-armed); clients only touch the bounded queue and read the
//! [`CircuitBreaker`], which only the dispatcher moves. Each round the
//! dispatcher drains up to [`BATCH_MAX`] requests, expires the ones
//! whose deadline passed, and serves the rest in arrival order, one
//! launch each, computed on this thread — through the FPGA path while
//! the breaker allows it, straight to [`degrade`] (the bit-identical
//! CPU fallback) while it is open. Every response is bit-identical to
//! eager execution regardless of the route taken; chaos only moves
//! latency and the `degraded` flag.

use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker};
use crate::config::{ServeConfig, BATCH_MAX, BREAKER_COOLDOWN, BREAKER_THRESHOLD, QUEUE_CAP};
use crate::request::{GemmRequest, RequestClass, ServeResult};
use mpt_arith::QGemmConfig;
use mpt_faults::{FaultPlan, FaultSite, Injector};
use mpt_fpga::{degrade, PipelinedExecutor};
use mpt_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Floor/ceiling for the backpressure hint.
const RETRY_AFTER_MIN: Duration = Duration::from_micros(10);
const RETRY_AFTER_MAX: Duration = Duration::from_millis(50);

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<GemmRequest>,
    shutdown: bool,
}

/// Cross-thread service statistics (relaxed atomics — monotonic
/// counters, read for reporting only).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests answered with a result.
    pub completed: AtomicU64,
    /// Requests shed by admission control or injected overload.
    pub rejected: AtomicU64,
    /// Completed requests that took the CPU fallback.
    pub degraded: AtomicU64,
    /// Requests cancelled at their deadline.
    pub deadline_exceeded: AtomicU64,
    /// GEMMs served in a round with more than one live request.
    pub coalesced: AtomicU64,
    /// The deepest the admission queue has been.
    pub queue_high_water: AtomicU64,
}

impl ServeStats {
    fn get(&self, c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// (completed, rejected, degraded, deadline_exceeded) snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.get(&self.completed),
            self.get(&self.rejected),
            self.get(&self.degraded),
            self.get(&self.deadline_exceeded),
        )
    }
}

#[derive(Debug)]
struct Shared {
    queue: Mutex<QueueState>,
    notify: Condvar,
    cfg: ServeConfig,
    /// EWMA of per-request service time, nanoseconds (the
    /// backpressure hint's unit of work).
    ewma_ns: AtomicU64,
    stats: ServeStats,
    /// Moved by the dispatcher before each reply, so a client that
    /// got its reply reads the state that reply left.
    breaker: Mutex<CircuitBreaker>,
}

impl Shared {
    fn retry_after(&self, depth: usize) -> Duration {
        let ewma = self.ewma_ns.load(Ordering::Relaxed).max(1_000);
        Duration::from_nanos(ewma.saturating_mul(depth as u64 + 1))
            .clamp(RETRY_AFTER_MIN, RETRY_AFTER_MAX)
    }

    fn observe_service_ns(&self, ns: u64) {
        // EWMA with α = 1/8, integer arithmetic.
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
        self.ewma_ns.store(new, Ordering::Relaxed);
    }
}

/// A cloneable client handle: submit GEMMs, read stats.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle").finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// Submits one GEMM. Admission control answers immediately with
    /// [`ServeResult::Rejected`] when the queue is at capacity;
    /// otherwise the result arrives on the returned receiver once the
    /// dispatcher serves the request. A submit to a shut-down service
    /// gets no answer: the receiver reports its sender dropped.
    pub fn submit(
        &self,
        a: Tensor,
        b: Tensor,
        cfg: QGemmConfig,
        class: RequestClass,
        deadline: Option<Instant>,
    ) -> mpsc::Receiver<ServeResult> {
        let (tx, rx) = mpsc::channel();
        let req = GemmRequest {
            a,
            b,
            cfg,
            class,
            deadline,
            enqueued: Instant::now(),
            resp: tx,
        };
        let mut q = self.shared.queue.lock().unwrap();
        if q.shutdown {
            // Dropping `req` drops the reply sender.
            return rx;
        }
        let depth = q.jobs.len();
        if depth >= QUEUE_CAP {
            drop(q);
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = req.resp.send(ServeResult::Rejected {
                retry_after: self.shared.retry_after(depth),
            });
            return rx;
        }
        q.jobs.push_back(req);
        self.shared
            .stats
            .queue_high_water
            .fetch_max(depth as u64 + 1, Ordering::Relaxed);
        drop(q);
        self.shared.notify.notify_one();
        rx
    }

    /// Submits and blocks until the request completes, retrying
    /// rejections after their hint (or the retry policy's backoff, if
    /// longer). Deadline expirations are surfaced to the caller — only
    /// backpressure is retried.
    ///
    /// # Errors
    ///
    /// Returns [`mpt_tensor::ShapeError`] for malformed operands.
    ///
    /// # Panics
    ///
    /// Panics if the service has been shut down.
    pub fn call(
        &self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
        class: RequestClass,
        deadline: Option<Instant>,
    ) -> Result<ServeResult, mpt_tensor::ShapeError> {
        let mut attempt = 0u32;
        loop {
            let rx = self.submit(a.clone(), b.clone(), *cfg, class, deadline);
            match rx.recv().expect("GemmService was shut down") {
                ServeResult::Rejected { retry_after } => {
                    let base = self.shared.cfg.retry.delay(attempt);
                    std::thread::sleep(retry_after.min(RETRY_AFTER_MAX).max(base));
                    attempt = attempt.saturating_add(1);
                }
                ServeResult::Failed(e) => return Err(e),
                done => return Ok(done),
            }
        }
    }

    /// Service counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// The breaker's position as of the last reply sent.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.lock().unwrap().state()
    }

    /// Breaker transitions so far, in order.
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        self.shared.breaker.lock().unwrap().transitions().to_vec()
    }

    /// Live queue depth (approximate under concurrency).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }
}

/// The serving front-end: a bounded queue feeding one dispatcher
/// thread that owns the pipelined executor.
///
/// Dropping the service (or calling [`shutdown`](Self::shutdown))
/// stops the dispatcher after the queue drains.
#[derive(Debug)]
pub struct GemmService {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl GemmService {
    /// Starts the dispatcher over `executor`, optionally chaos-armed
    /// with `injector` (moved onto the dispatcher thread — its
    /// schedule stays deterministic because only that thread draws
    /// from it). `None` is the empty plan: the same dispatch path,
    /// and no site ever fires.
    pub fn start(
        cfg: ServeConfig,
        executor: PipelinedExecutor,
        injector: Option<Injector>,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            notify: Condvar::new(),
            cfg,
            ewma_ns: AtomicU64::new(0),
            stats: ServeStats::default(),
            breaker: Mutex::new(CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN)),
        });
        let dispatcher = Dispatcher {
            shared: Arc::clone(&shared),
            executor,
            injector: injector.unwrap_or_else(|| Injector::new(FaultPlan::new(0))),
            drains: 0,
            deadline_checks: 0,
        };
        let dispatcher = std::thread::Builder::new()
            .name("mpt-serve-dispatch".into())
            .spawn(move || dispatcher.run())
            .expect("spawn dispatcher");
        GemmService {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// A client handle (cloneable, sendable across threads).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drains the queue and stops the dispatcher.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.notify.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GemmService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The dispatcher thread's state. Only this thread draws from the
/// injector, which keeps the fault schedule deterministic.
struct Dispatcher {
    shared: Arc<Shared>,
    executor: PipelinedExecutor,
    injector: Injector,
    // Service-level injection sites draw on their own monotonic
    // counters so executor launch ids stay 1, 2, 3, … for launches.
    drains: u64,
    deadline_checks: u64,
}

impl Dispatcher {
    /// The dispatch loop: drain → expire → launch → respond, until
    /// shutdown finds the queue empty.
    fn run(mut self) {
        loop {
            let round = {
                let mut q = self.shared.queue.lock().unwrap();
                while q.jobs.is_empty() && !q.shutdown {
                    q = self.shared.notify.wait(q).unwrap();
                }
                if q.jobs.is_empty() && q.shutdown {
                    return;
                }
                let n = q.jobs.len().min(BATCH_MAX);
                q.jobs.drain(..n).collect::<Vec<_>>()
            };
            self.serve_round(round);
        }
    }

    /// Serves one drained round, in arrival order.
    fn serve_round(&mut self, requests: Vec<GemmRequest>) {
        self.drains += 1;
        let stats = &self.shared.stats;

        // Injected load spike: the whole drained round is shed with a
        // retry-after, exactly as if admission control had caught it.
        let overload = self
            .injector
            .check(FaultSite::QueueOverload, self.drains, 0);
        if overload.is_some() {
            let depth = requests.len();
            for req in requests {
                stats.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = req.resp.send(ServeResult::Rejected {
                    retry_after: self.shared.retry_after(depth),
                });
            }
            return;
        }

        // Cooperative deadline cancellation: expire before launching.
        let now = Instant::now();
        let mut live: Vec<GemmRequest> = Vec::with_capacity(requests.len());
        for req in requests {
            let mut expired = req.deadline.is_some_and(|d| now >= d);
            if !expired && req.deadline.is_some() {
                self.deadline_checks += 1;
                // Injected slow-client chaos — only requests that
                // actually carry a deadline can expire.
                expired = self
                    .injector
                    .check(FaultSite::DeadlineExceeded, self.deadline_checks, 0)
                    .is_some();
            }
            if expired {
                stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                let _ = req.resp.send(ServeResult::DeadlineExceeded);
            } else {
                live.push(req);
            }
        }

        // Counted before any reply, so a client holding every reply
        // of the round reads the final count.
        if live.len() > 1 {
            stats
                .coalesced
                .fetch_add(live.len() as u64, Ordering::Relaxed);
        }
        for req in live {
            self.serve(req);
        }
    }

    /// Launches one request — through the FPGA path while the breaker
    /// allows it, on the CPU bypass while it is open — and replies.
    fn serve(&mut self, req: GemmRequest) {
        // Enqueue → reply, back-dated to the enqueue: the launch's
        // spans nest under it. The name is formatted only when on.
        let latency = mpt_telemetry::enabled().then(|| {
            mpt_telemetry::span_from(format!("serve:latency:{}", req.class.name()), req.enqueued)
        });
        let shared = &*self.shared;
        let (injector, retry) = (&self.injector, &shared.cfg.retry);
        let (a, b, cfg) = (&req.a, &req.b, &req.cfg);
        // Held until the outcome is recorded, before the reply.
        let mut breaker = shared.breaker.lock().unwrap();
        let launched = breaker.allows_fpga();
        // The FPGA result, or `None` where the request degrades.
        // Malformed operands fail before claiming a launch id.
        let launch = if launched {
            self.executor.launch_resilient(injector, retry, a, b, cfg)
        } else {
            Ok(None)
        };
        let degraded = !matches!(launch, Ok(Some(_)));
        // Exhausted or bypassed: the bit-identical CPU path.
        let out = launch.and_then(|launch| match launch {
            Some((t, ..)) => {
                breaker.on_success();
                Ok(t)
            }
            // The id is the launch that just gave up — or, never
            // having reached the device, the last one: no attempts.
            None => {
                let attempts = if launched {
                    breaker.on_failure();
                    retry.max_attempts
                } else {
                    breaker.on_bypass();
                    0
                };
                degrade("serve", injector.launch_count(), attempts, a, b, cfg)
            }
        });
        drop(breaker);
        let out = match out {
            Ok(t) => t,
            Err(e) => {
                let _ = req.resp.send(ServeResult::Failed(e));
                return;
            }
        };
        let service_ns = req.enqueued.elapsed().as_nanos() as u64;
        shared.observe_service_ns(service_ns);
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        if degraded {
            shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
        }
        drop(latency);
        let _ = req.resp.send(ServeResult::Done { out, degraded });
    }
}
