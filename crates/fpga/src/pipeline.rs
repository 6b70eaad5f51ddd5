//! Staged, double-buffered launch execution — every FPGA launch.
//!
//! Each launch costs the `pack → HBM-transfer → compute → unpack`
//! sequence; their sum is the eager account. Real deployments
//! overlap those stages across consecutive GEMMs of a training step:
//! while launch *i* computes on the fabric, the host packs and
//! transfers launch *i+1*'s operands, and launch *i−1*'s result
//! streams back. [`PipelinedExecutor`] accounts both figures:
//!
//! ```text
//!            t ─────────────────────────────────▶
//! launch i   [pack][xfer][ compute ][unpack]
//! launch i+1       [pack][xfer][ compute ][unpack]
//! launch i+2             [pack][xfer][ compute ][unpack]
//! ```
//!
//! * **Functionally** nothing changes: results stay bit-identical to
//!   [`Accelerator::execute`] and CPU emulation (the conformance
//!   oracles run this path). The operand cache skips re-quantizing and
//!   re-packing resident operands, which is also bit-transparent
//!   because quantization is a pure function of (bits, quantizer). A
//!   zero-byte cache keeps nothing resident: every launch packs.
//! * **Latency**: each launch's stage times enter the pipeline
//!   recurrence ([`crate::perf::overlap`]) over the executor's
//!   per-stage completion times, so a flushed queue reports the
//!   overlapped makespan — fill time plus the per-launch bottleneck
//!   stage, not the eager sum.
//! * **Host wall-clock** does not overlap: every launch computes on
//!   the calling thread, in order. A batch of independent GEMMs (a
//!   serving dispatcher round) is consecutive launches.
//!
//! Every launch is one body — pack, then the fault gates of
//! [`crate::resilient`], then accounting, then compute — under the
//! caller's [`Injector`]: [`PipelinedExecutor::launch_resilient`];
//! [`PipelinedExecutor::launch`] is that body under an empty plan.
//! Faults replay the *failed stage*, not the whole queue: a
//! corrupted HBM transfer re-sends the operand the launch packed (the
//! pack stage never re-runs), a launch timeout re-runs compute only.
//! That re-send is the one place a launch materialises an HBM image —
//! pack and transfer *time* come from the image's closed-form size, so
//! a launch whose transfer does not fault never builds the words +
//! CRC. A stage that exhausts its [`RetryPolicy`] budget hands the
//! launch back as `None` for the caller to
//! [`degrade`](crate::resilient::degrade).

use crate::cache::{CacheStats, FetchedOperand, OperandCache};
use crate::perf::overlap;
use crate::resilient::pass_gates;
use crate::sim::{Accelerator, MeasuredLatency, PCIE_ACHIEVED_BPS};
use mpt_arith::{GemmShape, QGemmConfig};
use mpt_faults::{FaultPlan, Injector, RetryPolicy};
use mpt_tensor::{ShapeError, Tensor};

/// Modeled host-side packing throughput (quantized carriers into
/// 512-bit HBM words), bytes per second. Memory-bound `memcpy`-class
/// work: faster than PCIe, slower than DRAM copy.
pub const HOST_PACK_GBPS: f64 = 8.0;

/// Number of pipeline stages: pack, transfer, compute, unpack.
pub const STAGES: usize = 4;

/// Stage names in pipeline order — used for the `fpga_launch`
/// event's `<stage>_s` / `<stage>_end_s` fields (the trace's
/// `fpga-pipeline/<stage>` tracks), the `stage_utilization` event's
/// `busy_<stage>_s` / `util_<stage>` fields, and report tables.
pub const STAGE_NAMES: [&str; STAGES] = ["pack", "transfer", "compute", "unpack"];

/// Modeled seconds one launch spends in each pipeline stage,
/// *including* any stage replays forced by injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimes {
    /// Host packing of non-resident operands into HBM words (zero on
    /// a full cache hit).
    pub pack_s: f64,
    /// PCIe transfer of the bytes packed this launch (resident images
    /// are already device-side and cost nothing).
    pub transfer_s: f64,
    /// Fabric compute, including the per-launch overhead.
    pub compute_s: f64,
    /// Result stream-back and host-side decode.
    pub unpack_s: f64,
}

impl StageTimes {
    /// The stages in pipeline order.
    pub fn as_array(&self) -> [f64; STAGES] {
        [self.pack_s, self.transfer_s, self.compute_s, self.unpack_s]
    }

    /// Un-overlapped (eager) latency: the sum of all stages.
    pub fn eager_s(&self) -> f64 {
        self.as_array().iter().sum()
    }

    /// The bottleneck stage — the marginal cost of this launch once
    /// the pipeline is full.
    pub fn bottleneck_s(&self) -> f64 {
        self.as_array().into_iter().fold(0.0, f64::max)
    }
}

/// The staged launch engine: operand cache + overlap accounting
/// around an [`Accelerator`].
///
/// Launches ([`launch`](Self::launch),
/// [`launch_resilient`](Self::launch_resilient)) are synchronous — the
/// training tape consumes each GEMM's output immediately — while the
/// accounting tracks what the overlapped hardware schedule would cost.
#[derive(Debug)]
pub struct PipelinedExecutor {
    accelerator: Accelerator,
    cache: OperandCache,
    /// Completion time of the last launch in each stage since the last
    /// flush; the last stage's is the live queue's makespan.
    stage_done: [f64; STAGES],
    /// Launches admitted since construction or the last reset.
    launches: usize,
    /// Overlapped seconds accumulated by past flushes.
    drained_s: f64,
    /// Eager-equivalent seconds (Σ stage sums) since construction or
    /// the last reset.
    eager_s: f64,
    /// Modeled busy seconds per stage over the executor's lifetime
    /// (Σ launch stage times, including fault replays).
    stage_busy_s: [f64; STAGES],
}

impl PipelinedExecutor {
    /// Wraps an accelerator with an operand cache of `budget_bytes`
    /// (`0` keeps nothing resident: every launch packs).
    pub fn new(accelerator: Accelerator, budget_bytes: usize) -> Self {
        PipelinedExecutor {
            accelerator,
            cache: OperandCache::new(budget_bytes),
            stage_done: [0.0; STAGES],
            launches: 0,
            drained_s: 0.0,
            eager_s: 0.0,
            stage_busy_s: [0.0; STAGES],
        }
    }

    /// The wrapped accelerator.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accelerator
    }

    /// Operand-cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Launches accounted since construction or the last
    /// [`reset_accounting`](Self::reset_accounting).
    pub(crate) fn launch_count(&self) -> usize {
        self.launches
    }

    /// Overlapped hardware seconds: past drains plus the live queue.
    pub fn pipelined_elapsed_s(&self) -> f64 {
        self.drained_s + self.stage_done[STAGES - 1]
    }

    /// Eager-equivalent hardware seconds (what the un-pipelined
    /// schedule would have cost) over the executor's lifetime.
    pub fn eager_elapsed_s(&self) -> f64 {
        self.eager_s
    }

    /// Modeled busy seconds per stage (pack, transfer, compute,
    /// unpack) over the executor's lifetime. Invariant:
    /// `max(stage_busy_s) ≤ pipelined_elapsed_s ≤ Σ stage_busy_s` —
    /// a stage can't be busy longer than the makespan, and the
    /// makespan can't beat the sum of all work (= eager time).
    pub fn stage_busy_s(&self) -> [f64; STAGES] {
        self.stage_busy_s
    }

    /// Stage occupancy: busy time per stage ÷ overlapped wall time,
    /// in `[0, 1]` per stage. All zeros before the first launch.
    pub fn stage_utilization(&self) -> [f64; STAGES] {
        let wall = self.pipelined_elapsed_s();
        if wall <= 0.0 {
            return [0.0; STAGES];
        }
        let mut util = self.stage_busy_s;
        for u in &mut util {
            *u /= wall;
        }
        util
    }

    /// Folds one admitted launch into the accounting: eager sum,
    /// per-stage busy totals, the overlap recurrence, and — when
    /// telemetry is on — one `fpga_launch` event holding each stage's
    /// window on the modeled timeline: it ends at `<stage>_end_s` and
    /// lasts `<stage>_s` (the trace's `fpga-pipeline/<stage>` tracks,
    /// so Perfetto shows the pack/transfer/compute/unpack overlap).
    fn account_launch(&mut self, times: &StageTimes) {
        self.eager_s += times.eager_s();
        let stage_t = times.as_array();
        for (busy, t) in self.stage_busy_s.iter_mut().zip(stage_t) {
            *busy += t;
        }
        overlap(&mut self.stage_done, stage_t);
        self.launches += 1;
        if mpt_telemetry::enabled() {
            use mpt_telemetry::json::Field;
            const KEYS: [(&str, &str); STAGES] = [
                ("pack_s", "pack_end_s"),
                ("transfer_s", "transfer_end_s"),
                ("compute_s", "compute_end_s"),
                ("unpack_s", "unpack_end_s"),
            ];
            let mut fields = vec![
                Field::Str("type", "fpga_launch"),
                Field::U64("launch", self.launches as u64),
            ];
            for (s, (dur_key, end_key)) in KEYS.into_iter().enumerate() {
                fields.push(Field::F64(dur_key, stage_t[s]));
                fields.push(Field::F64(end_key, self.drained_s + self.stage_done[s]));
            }
            mpt_telemetry::event(&fields);
        }
    }

    /// Flushes the launch queue at a step boundary: its makespan moves
    /// into the accumulated total and the stages return to idle (the
    /// cache keeps its residents — weights survive across steps;
    /// updated ones re-key themselves). Returns the drained makespan.
    pub fn flush(&mut self) -> f64 {
        let makespan = self.stage_done[STAGES - 1];
        self.drained_s += makespan;
        self.stage_done = [0.0; STAGES];
        // Every launch computes for a positive time, so an empty queue
        // is exactly a zero makespan.
        if makespan > 0.0 && mpt_telemetry::enabled() {
            // Derived occupancy so far: lifetime busy per stage over
            // the overlapped wall time (read by `mpt-report`).
            let busy = self.stage_busy_s;
            let util = self.stage_utilization();
            let mut fields = vec![
                mpt_telemetry::json::Field::Str("type", "stage_utilization"),
                mpt_telemetry::json::Field::F64("pipelined_elapsed_s", self.pipelined_elapsed_s()),
                mpt_telemetry::json::Field::F64("eager_elapsed_s", self.eager_s),
            ];
            let busy_keys = [
                "busy_pack_s",
                "busy_transfer_s",
                "busy_compute_s",
                "busy_unpack_s",
            ];
            let util_keys = ["util_pack", "util_transfer", "util_compute", "util_unpack"];
            for s in 0..STAGES {
                fields.push(mpt_telemetry::json::Field::F64(busy_keys[s], busy[s]));
                fields.push(mpt_telemetry::json::Field::F64(util_keys[s], util[s]));
            }
            mpt_telemetry::event(&fields);
        }
        makespan
    }

    /// Resets the latency accounting and the launch count (cache
    /// residents and cumulative cache counters stay).
    pub fn reset_accounting(&mut self) {
        self.stage_done = [0.0; STAGES];
        self.launches = 0;
        self.drained_s = 0.0;
        self.eager_s = 0.0;
        self.stage_busy_s = [0.0; STAGES];
    }

    /// One staged launch under the empty fault plan: cache-aware pack,
    /// modeled transfer, fabric compute, modeled unpack. Bit-identical
    /// to [`Accelerator::execute`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for non-conforming operands.
    pub fn launch(
        &mut self,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<(Tensor, StageTimes), ShapeError> {
        // Fault-free is the empty plan, whose gates never fire, so the
        // retry policy is moot.
        let inj = Injector::new(FaultPlan::new(0));
        let launched = self.launch_resilient(&inj, &RetryPolicy::no_delay(1), a, b, cfg)?;
        let (out, times, _) = launched.expect("the empty plan never degrades");
        Ok((out, times))
    }

    /// One staged launch under `inj`'s fault plan with **per-stage**
    /// retry: a faulted stage replays itself (its time is charged
    /// again) without repeating earlier stages — a corrupted transfer
    /// re-sends the already-packed image, a compute fault re-runs the
    /// kernel only.
    ///
    /// The pack stage (both operands through the cache — host memory,
    /// no fault site) runs first, so a launch that degrades has still
    /// left its operands resident; then the modeled stage times, the
    /// fault gates, the accounting, and compute on the calling thread.
    ///
    /// Returns the result, the charged stage times and the launch as a
    /// [`MeasuredLatency`] (`data_s` counts only bytes
    /// actually moved — cache hits shrink it to the result stream-back)
    /// — or `Ok(None)` when any single stage exhausts the retry budget;
    /// the launch is then unaccounted and the caller degrades to the
    /// bit-identical CPU path.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for non-conforming operands (never
    /// retried), before anything is packed or a launch id claimed.
    pub fn launch_resilient(
        &mut self,
        inj: &Injector,
        retry: &RetryPolicy,
        a: &Tensor,
        b: &Tensor,
        cfg: &QGemmConfig,
    ) -> Result<Option<(Tensor, StageTimes, MeasuredLatency)>, ShapeError> {
        // Host wall-clock spans. Only pack and compute do host work;
        // transfer and unpack are modeled time, kept as markers so a
        // trace shows all four stages.
        let mut pack_span = mpt_telemetry::span("fpga:pack");
        let shape = GemmShape::of_product(a, b, "PipelinedExecutor::launch")?;
        let fa = self.cache.get_or_pack(a, &cfg.quant_a)?;
        let fb = self.cache.get_or_pack(b, &cfg.quant_b)?;
        // What the pack stage actually produced: zero on full cache
        // hits — resident images are already device-side, so the
        // transfer stage moves nothing either. Compute and the result
        // stream-back are `timing_only`'s closed-form stages.
        let missed = |f: &FetchedOperand| if f.hit { 0 } else { f.image_bytes };
        let packed_bytes = missed(&fa) + missed(&fb);
        let bits = cfg.quant_a.format().bit_width();
        let priced = self.accelerator.timing_only(shape, bits);
        let [_, compute_s, unpack_s] = priced.stages();
        let mut times = StageTimes {
            pack_s: packed_bytes as f64 / (HOST_PACK_GBPS * 1.0e9),
            transfer_s: packed_bytes as f64 / PCIE_ACHIEVED_BPS,
            compute_s,
            unpack_s,
        };

        // A faulted transfer re-sends the operand this launch fetched:
        // this closure is the one place outside tests where the packed
        // words + CRC are built, and the pack stage never runs again.
        let cache = &mut self.cache;
        let Some(replays) = pass_gates(inj, retry, "fpga", || cache.image_of(&fa, &cfg.quant_a))
        else {
            return Ok(None);
        };
        // A replayed pass repeats the core time *and* the launch
        // overhead: the record scales them separately.
        let compute_passes = 1 + replays.compute;
        times.transfer_s *= 1.0 + replays.transfer as f64;
        times.compute_s *= compute_passes as f64;
        self.account_launch(&times);
        if pack_span.is_active() {
            let hits = fa.hit as u64 + fb.hit as u64;
            pack_span
                .field(mpt_telemetry::SpanField::U64("hits", hits))
                .add_bytes(packed_bytes as u64);
        }
        drop(pack_span);
        drop(mpt_telemetry::span("fpga:transfer"));
        let compute_span = mpt_telemetry::span("fpga:compute");
        let (out, _) = self
            .accelerator
            .execute_quantized(&fa.quantized, &fb.quantized, cfg)?;
        drop(compute_span);
        drop(mpt_telemetry::span("fpga:unpack"));
        let latency = MeasuredLatency {
            core_cycles: priced.core_cycles * compute_passes as u64,
            core_s: priced.core_s * compute_passes as f64,
            data_s: times.transfer_s + times.unpack_s,
            total_s: times.eager_s(),
            in_s: times.transfer_s,
            out_s: times.unpack_s,
        };
        Ok(Some((out, times, latency)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CACHE_BUDGET;
    use crate::config::SaConfig;
    use mpt_arith::qgemm;
    use mpt_faults::{FaultSite, Trigger};

    fn acc() -> Accelerator {
        Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0)
    }

    fn operands(n: usize, k: usize, m: usize) -> (Tensor, Tensor) {
        (
            Tensor::from_fn(vec![n, k], |i| ((i * 37 % 41) as f32 - 20.0) * 0.05),
            Tensor::from_fn(vec![k, m], |i| ((i * 43 % 47) as f32 - 23.0) * 0.04),
        )
    }

    #[test]
    fn launch_is_bit_identical_cold_and_warm() {
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let (a, b) = operands(13, 29, 7);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(77);
        let want = qgemm(&a, &b, &cfg).unwrap();
        let (cold, t_cold) = px.launch(&a, &b, &cfg).unwrap();
        let (warm, t_warm) = px.launch(&a, &b, &cfg).unwrap();
        assert_eq!(cold, want);
        assert_eq!(warm, want, "cache hits must not perturb results");
        assert!(t_cold.pack_s > 0.0 && t_cold.transfer_s > 0.0);
        assert_eq!(t_warm.pack_s, 0.0, "warm launch packs nothing");
        assert_eq!(t_warm.transfer_s, 0.0, "resident images are not re-sent");
        assert_eq!(px.cache_stats().hits, 2);
    }

    #[test]
    fn clock_overlap_beats_eager_sum() {
        let mut px = PipelinedExecutor::new(acc(), 0);
        let t = StageTimes {
            pack_s: 1.0,
            transfer_s: 2.0,
            compute_s: 4.0,
            unpack_s: 1.0,
        };
        for _ in 0..10 {
            px.account_launch(&t);
        }
        // Exact recurrence: fill (1+2+4+1) + 9 × bottleneck (4).
        assert!((px.pipelined_elapsed_s() - (8.0 + 9.0 * 4.0)).abs() < 1e-12);
        assert_eq!(px.eager_elapsed_s(), 10.0 * t.eager_s());
        assert_eq!(px.flush(), 8.0 + 9.0 * 4.0);
        assert_eq!(px.stage_done, [0.0; STAGES], "the queue is idle");
        assert_eq!(px.launch_count(), 10);
        px.reset_accounting();
        assert_eq!(px.launch_count(), 0);
        assert_eq!((px.pipelined_elapsed_s(), px.eager_elapsed_s()), (0.0, 0.0));
    }

    #[test]
    fn executor_accounts_overlapped_less_than_eager() {
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let (a, b) = operands(64, 64, 64);
        for _ in 0..6 {
            px.launch(&a, &b, &cfg).unwrap();
        }
        let pipelined = px.pipelined_elapsed_s();
        let eager = px.eager_elapsed_s();
        assert!(pipelined > 0.0);
        assert!(
            pipelined < eager,
            "overlap must win: pipelined {pipelined} vs eager {eager}"
        );
        let drained = px.flush();
        assert!((drained - pipelined).abs() < 1e-15);
        assert_eq!(px.stage_done[STAGES - 1], 0.0);
        assert!(
            (px.pipelined_elapsed_s() - pipelined).abs() < 1e-15,
            "drained time is retained"
        );
    }

    #[test]
    fn stage_busy_brackets_pipelined_elapsed() {
        // The acceptance invariant for the utilization counters:
        // max busy ≤ overlapped wall time ≤ Σ busy (= eager time).
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr();
        for i in 0..7 {
            let (a, b) = operands(16 + i, 24, 12);
            px.launch(&a, &b, &cfg).unwrap();
        }
        px.flush();
        let busy = px.stage_busy_s();
        let wall = px.pipelined_elapsed_s();
        let max_busy = busy.into_iter().fold(0.0, f64::max);
        let sum_busy: f64 = busy.iter().sum();
        assert!(max_busy > 0.0);
        assert!(max_busy <= wall + 1e-12, "max {max_busy} vs wall {wall}");
        assert!(wall <= sum_busy + 1e-12, "wall {wall} vs sum {sum_busy}");
        assert!((sum_busy - px.eager_elapsed_s()).abs() < 1e-9);
        for u in px.stage_utilization() {
            assert!((0.0..=1.0 + 1e-12).contains(&u), "utilization {u}");
        }
    }

    #[test]
    fn traced_launches_emit_all_four_stage_tracks() {
        use mpt_telemetry::json::{self, Value};
        mpt_telemetry::enable();
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(11);
        for i in 0..3 {
            let (a, b) = operands(10 + i, 20, 8);
            px.launch(&a, &b, &cfg).unwrap();
        }
        px.flush();
        mpt_telemetry::disable();
        let trace = mpt_telemetry::trace::render(mpt_telemetry::sink::buffered_events());
        let doc = json::parse(&trace).expect("trace parses");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array")
        };
        let str_of = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_owned);
        for stage in STAGE_NAMES {
            let track = format!("fpga-pipeline/{stage}");
            let tid = events
                .iter()
                .find(|e| e.get("args").and_then(|a| str_of(a, "name")).as_deref() == Some(&track))
                .and_then(|e| e.get("tid"))
                .unwrap_or_else(|| panic!("missing stage track {track}"));
            let on_track: Vec<_> = events
                .iter()
                .filter(|e| str_of(e, "ph").as_deref() == Some("X") && e.get("tid") == Some(tid))
                .collect();
            assert!(!on_track.is_empty(), "no slice on {track}");
            // Stage windows sit on the modeled timeline: positive
            // duration, start ≥ 0.
            for e in on_track {
                let num = |key| e.get(key).and_then(Value::as_f64).unwrap();
                assert!(num("dur") > 0.0 && num("ts") >= -1e-9, "bad window {e:?}");
            }
        }
    }

    #[test]
    fn stage_fault_replays_stage_not_pack() {
        let inj =
            Injector::new(FaultPlan::new(9).with(FaultSite::HbmCorruption, Trigger::AtLaunch(2)));
        let retry = RetryPolicy::no_delay(3);
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let (a, b) = operands(13, 29, 7);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let want = qgemm(&a, &b, &cfg).unwrap();
        let (first, t1, _) = px
            .launch_resilient(&inj, &retry, &a, &b, &cfg)
            .unwrap()
            .unwrap();
        let packs_after_first = px.cache_stats().packs;
        let (second, t2, _) = px
            .launch_resilient(&inj, &retry, &a, &b, &cfg)
            .unwrap()
            .unwrap();
        assert_eq!(first, want);
        assert_eq!(second, want, "stage retry must not perturb results");
        assert_eq!(
            px.cache_stats().packs,
            packs_after_first,
            "transfer replay must not re-run the pack stage"
        );
        assert_eq!(inj.injected_at(FaultSite::HbmCorruption), 1);
        // The replayed transfer is charged; warm transfer_s is zero,
        // so the faulted launch's transfer time stays zero × 2 = 0 —
        // charge shows up on cold-path faults instead.
        assert!(t2.compute_s > 0.0);
        assert!(t1.transfer_s > 0.0);
    }

    #[test]
    fn images_are_built_only_when_a_transfer_faults() {
        let retry = RetryPolicy::no_delay(3);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let pairs: Vec<(Tensor, Tensor)> = (0..4).map(|i| operands(8 + i, 16, 6)).collect();
        let armed_idle = FaultPlan::new(9)
            .with(FaultSite::LaunchTimeout, Trigger::AtLaunch(1_000))
            .with(FaultSite::HbmCorruption, Trigger::AtLaunch(1_000));
        let one_cold = FaultPlan::new(9).with(FaultSite::HbmCorruption, Trigger::AtLaunch(2));
        let one_warm = FaultPlan::new(9).with(FaultSite::HbmCorruption, Trigger::AtLaunch(7));
        // A sticky corruption re-sends (and rebuilds) once per attempt.
        let sticky = FaultPlan::new(9).with(FaultSite::HbmCorruption, Trigger::StickyAtLaunch(3));
        // Each plan launches the 4 pairs twice (ids 1–8; 5–8 warm).
        for (plan, want_images, want_degraded) in [
            (FaultPlan::new(9), 0, 0),
            (armed_idle, 0, 0),
            (one_cold, 1, 0),
            (one_warm, 1, 0),
            (sticky, 3, 1),
        ] {
            let inj = Injector::new(plan);
            let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
            let mut degraded = 0;
            for (a, b) in pairs.iter().chain(&pairs) {
                match px.launch_resilient(&inj, &retry, a, b, &cfg).unwrap() {
                    Some((out, ..)) => assert_eq!(out, qgemm(a, b, &cfg).unwrap()),
                    None => degraded += 1,
                }
            }
            let stats = px.cache_stats();
            assert_eq!(stats.images_built, want_images, "{:?}", inj.plan());
            assert_eq!(degraded, want_degraded, "{:?}", inj.plan());
            assert_eq!(inj.injected_at(FaultSite::HbmCorruption), want_images);
            assert_eq!(stats.packs, 5, "4 activations + 1 shared weight");
        }
    }

    /// A corrupted transfer is CRC-checked whether or not its operand
    /// stayed resident: at a zero budget, at one smaller than either
    /// operand, and at the default.
    #[test]
    fn faulted_transfer_builds_an_image_at_any_budget() {
        let (a, b) = operands(13, 29, 7);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        for (budget, resident) in [(0, 0), (700, 0), (DEFAULT_CACHE_BUDGET, 2)] {
            let plan = FaultPlan::new(9).with(FaultSite::HbmCorruption, Trigger::AtLaunch(1));
            let inj = Injector::new(plan);
            let mut px = PipelinedExecutor::new(acc(), budget);
            let (out, ..) = px
                .launch_resilient(&inj, &RetryPolicy::no_delay(3), &a, &b, &cfg)
                .unwrap()
                .expect("one re-send clears the corruption");
            assert_eq!(out, qgemm(&a, &b, &cfg).unwrap());
            let stats = px.cache_stats();
            assert_eq!(stats.entries, resident, "budget {budget}");
            assert_eq!(stats.images_built, 1, "budget {budget}");
        }
    }

    /// Fault-free is the empty plan: `launch` and `launch_resilient`
    /// under an empty `FaultPlan` agree on everything observable, on
    /// cold operands (round 0) and warm ones.
    #[test]
    fn empty_plan_is_what_launch_does() {
        let retry = RetryPolicy::no_delay(3);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let pairs: Vec<(Tensor, Tensor)> = (0..4).map(|i| operands(8 + i, 16, 6)).collect();
        let inj = Injector::new(FaultPlan::new(7));
        let mut plain = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let mut armed = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        for round in 0..4 {
            for (a, b) in &pairs {
                let want = plain.launch(a, b, &cfg).unwrap();
                let (out, times, latency) = armed
                    .launch_resilient(&inj, &retry, a, b, &cfg)
                    .unwrap()
                    .expect("the empty plan never degrades");
                assert_eq!((out, times), want, "output or stage times, round {round}");
                assert_eq!(latency.total_s, times.eager_s());
            }
            assert_eq!(armed.cache_stats(), plain.cache_stats(), "round {round}");
            assert_eq!(armed.pipelined_elapsed_s(), plain.pipelined_elapsed_s());
            assert_eq!(armed.eager_elapsed_s(), plain.eager_elapsed_s());
            assert_eq!(armed.stage_busy_s(), plain.stage_busy_s());
        }
        let stats = plain.cache_stats();
        assert_eq!(
            (stats.packs, stats.hits),
            (5, 27),
            "16 launches, 5 operands"
        );
        assert_eq!(stats.images_built, 0, "no fault, no image");
        assert_eq!((inj.launch_count(), inj.injected_count()), (16, 0));
    }

    /// A replayed compute pass repeats the core time and the launch
    /// overhead, and the launch's latency record says so term by term
    /// (it used to be re-derived as `compute_s − overhead`, reporting
    /// `2·core + overhead` as core time after one replay).
    #[test]
    fn compute_replay_scales_core_time_and_overhead_separately() {
        let inj =
            Injector::new(FaultPlan::new(4).with(FaultSite::LaunchTimeout, Trigger::AtLaunch(1)));
        let retry = RetryPolicy::no_delay(3);
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let (a, b) = operands(13, 29, 7);
        let cfg = QGemmConfig::fp8_fp12_sr().with_seed(3);
        let (_, times, latency) = px
            .launch_resilient(&inj, &retry, &a, &b, &cfg)
            .unwrap()
            .expect("one retry clears the timeout");
        assert_eq!(inj.injected_at(FaultSite::LaunchTimeout), 1);
        let clean = acc().timing_only(GemmShape::new(13, 29, 7), 8);
        assert_eq!(latency.core_s, 2.0 * clean.core_s);
        assert_eq!(latency.core_cycles, 2 * clean.core_cycles);
        assert_eq!(times.compute_s, 2.0 * clean.stages()[1]);
        assert_eq!(latency.total_s, times.eager_s());
        assert_eq!(latency.data_s, times.transfer_s + times.unpack_s);
    }

    #[test]
    fn exhausted_stage_budget_degrades() {
        let inj = Injector::new(
            FaultPlan::new(1).with(FaultSite::LaunchTimeout, Trigger::StickyAtLaunch(1)),
        );
        let retry = RetryPolicy::no_delay(3);
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let (a, b) = operands(5, 7, 3);
        let cfg = QGemmConfig::fp8_fp12_sr();
        let out = px.launch_resilient(&inj, &retry, &a, &b, &cfg).unwrap();
        assert!(out.is_none(), "sticky compute fault must force fallback");
        assert_eq!(inj.injected_at(FaultSite::LaunchTimeout), 3);
    }

    #[test]
    fn shape_mismatch_is_not_retried() {
        let inj = Injector::new(FaultPlan::new(0));
        let mut px = PipelinedExecutor::new(acc(), DEFAULT_CACHE_BUDGET);
        let a = Tensor::zeros(vec![3, 4]);
        let b = Tensor::zeros(vec![5, 2]);
        let cfg = QGemmConfig::fp32();
        assert!(px.launch(&a, &b, &cfg).is_err());
        assert!(px
            .launch_resilient(&inj, &RetryPolicy::no_delay(3), &a, &b, &cfg)
            .is_err());
    }
}
