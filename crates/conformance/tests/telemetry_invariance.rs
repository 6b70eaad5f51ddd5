//! Observation must not perturb the experiment.
//!
//! Telemetry instruments the quantizers, the GEMM kernels, the tape
//! and the trainer — and the one hard rule is that turning it on
//! changes nothing about the numerics. This suite replays the golden
//! LeNet-5 training run with telemetry enabled and asserts (a) the
//! weight digest is bit-identical to the telemetry-off run and the
//! checked-in golden file, and (b) the run actually emitted the
//! events the acceptance criteria call for: per-layer forward,
//! backward and GEMM spans, one `trainer:step` span per `step` event
//! with the GEMM spans nested under it, nonzero SR rounding counters
//! for the FP8×FP12-SR pipeline, loss-scale events, a valid Chrome
//! trace rendered from the log, and a perf-model calibration record.
//! The digest comparison runs with everything on — counters, spans
//! and the event log the trace is drawn from — so the whole
//! observability stack is covered by the bit-identical guarantee at
//! once. A second replay goes through the pipelined FPGA backend: its
//! MACs run in the same tallied kernel, so the accumulator's SR
//! up/down counts must show up there too — globally and in layer
//! scope — where the per-PE simulator loop used to report 0/0; and its
//! trace must hold the four `fpga-pipeline/<stage>` tracks.
//!
//! Everything lives in one `#[test]` because the telemetry enable
//! flag and event buffer are process-global.

use conformance::{replay_digest_path, replay_lenet, replay_lenet_with};
use mpt_arith::GemmShape;
use mpt_core::{select_accelerator, TrainOptions};
use mpt_fpga::{Accelerator, FpgaBackend, SaConfig, SynthesisDb};
use mpt_telemetry::json::{self, Value};
use mpt_telemetry::QuantCat;
use std::fs;
use std::rc::Rc;

/// The trace events of the Chrome trace rendered from the buffered
/// log.
fn trace_events() -> Vec<Value> {
    let rendered = mpt_telemetry::trace::render(mpt_telemetry::sink::buffered_events());
    let doc = json::parse(&rendered).expect("trace JSON parses");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array in rendered trace")
    };
    events.clone()
}

#[test]
fn telemetry_on_is_bit_identical_and_emits_required_events() {
    // Baseline: telemetry off (the default, but make it explicit).
    mpt_telemetry::disable();
    mpt_telemetry::reset();
    let off = replay_lenet(2);
    assert!(off.report.telemetry.is_none());

    // Instrumented run, same recipe — with the full observability
    // stack on: counters, spans and the event log.
    mpt_telemetry::enable();
    let on = replay_lenet(2);
    mpt_telemetry::disable();

    assert_eq!(
        on.digest, off.digest,
        "enabling telemetry changed the trained weights"
    );
    assert_eq!(
        on.report.epoch_losses, off.report.epoch_losses,
        "enabling telemetry changed the loss trajectory"
    );
    if std::env::var("MPT_REGEN_GOLDEN").is_err() {
        let golden = fs::read_to_string(replay_digest_path())
            .expect("golden digest present (scripts/regen_golden.sh)")
            .trim()
            .to_string();
        assert_eq!(
            on.digest, golden,
            "telemetry-on digest diverged from golden"
        );
    }

    // (b) The snapshot rode back on the report and holds the goods.
    let snap = on.report.telemetry.as_ref().expect("snapshot captured");

    // Per-GEMM spans with shape/config, per-layer forward and
    // backward spans and the step span: one latency row per name.
    let row = |name: &str| snap.latency.iter().find(|r| r.name == name);
    assert!(
        row("gemm:cpu").is_some_and(|r| r.bytes > 0),
        "no gemm spans in {:?}",
        snap.latency.iter().map(|r| &r.name).collect::<Vec<_>>()
    );
    for prefix in ["fwd:", "bwd:", "trainer:step"] {
        assert!(
            snap.latency.iter().any(|r| r.name.starts_with(prefix)),
            "no {prefix} row"
        );
    }

    // Nonzero SR rounding counters from the FP8 pipeline: the
    // accumulator quantizer rounds stochastically in both directions.
    let sr = snap
        .quant
        .iter()
        .find(|q| q.label.starts_with("acc:") && q.label.ends_with("-SR"))
        .unwrap_or_else(|| {
            panic!(
                "no SR accumulator counters in {:?}",
                snap.quant.iter().map(|q| &q.label).collect::<Vec<_>>()
            )
        });
    assert!(sr[QuantCat::Rounded] > 0, "SR accumulator never rounded");
    assert!(
        sr[QuantCat::SrUp] > 0 && sr[QuantCat::SrDown] > 0,
        "SR went one way only: {sr:?}"
    );

    // Loss-scale events: every step reports ok/growth/overflow, so
    // they exist even when nothing overflowed.
    assert_eq!(mpt_telemetry::sink::dropped_events(), 0);
    let events: Vec<Value> = mpt_telemetry::sink::buffered_events()
        .iter()
        .map(|l| json::parse(l).expect("sink lines are valid JSON"))
        .collect();
    let str_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
    let typed = |t: &'static str| {
        events
            .iter()
            .filter(move |v| str_of(v, "type").as_deref() == Some(t))
    };
    assert!(typed("loss_scale").count() > 0, "no loss_scale events");
    assert!(typed("epoch").count() > 0, "no epoch events");

    // The log holds every latency: backward spans, one step span per
    // step event, and the GEMMs inside a step nested under it.
    let spans: Vec<(String, u64, u64)> = typed("span")
        .map(|v| {
            let id = |key| v.get(key).and_then(Value::as_u64).unwrap();
            (str_of(v, "name").unwrap(), id("id"), id("parent"))
        })
        .collect();
    let named = |prefix: &'static str| spans.iter().filter(move |s| s.0.starts_with(prefix));
    assert!(named("bwd:").count() > 0, "no bwd: span lines");
    let steps = typed("step").count();
    assert!(steps > 0, "no step events");
    assert_eq!(named("trainer:step").count(), steps);
    let parent_of: std::collections::HashMap<u64, (&str, u64)> = spans
        .iter()
        .map(|(name, id, parent)| (*id, (name.as_str(), *parent)))
        .collect();
    let under_a_step = |mut parent: u64| {
        while let Some(&(name, grandparent)) = parent_of.get(&parent) {
            if name == "trainer:step" {
                return true;
            }
            parent = grandparent;
        }
        false
    };
    assert!(
        named("gemm:cpu").any(|s| under_a_step(s.2)),
        "no gemm:cpu span nests under a trainer:step span"
    );

    // Chrome trace rendered from the log: one complete event per span
    // line, sorted by timestamp.
    let tev = trace_events();
    let ts: Vec<f64> = tev
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("ts").and_then(Value::as_f64))
        .collect();
    assert_eq!(ts.len(), spans.len(), "one trace slice per span line");
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "trace not time-sorted");

    // Perf-model calibration: run the offline matcher over this
    // model's GEMM workload and audit predicted vs measured L_total.
    mpt_telemetry::enable();
    let workload = [GemmShape::new(8, 256, 120), GemmShape::new(8, 120, 84)];
    let chosen = select_accelerator(&workload, &SynthesisDb::u55(), 8);
    mpt_telemetry::disable();
    let cal = mpt_telemetry::calibration_records();
    let rec = cal
        .iter()
        .find(|r| r.context == "select_accelerator")
        .expect("select_accelerator calibration record");
    assert_eq!(rec.predicted_s, chosen.estimated_s);
    assert_eq!(rec.measured_s, chosen.measured_s);
    assert!(rec.rel_err().is_finite() && rec.rel_err().abs() < 1.0);

    // The same replay through the pipelined FPGA backend, telemetry
    // on: same weights, and the accumulator's SR tallies are not lost
    // on the way through the simulator.
    mpt_telemetry::reset();
    mpt_telemetry::enable();
    let accelerator = Accelerator::new(SaConfig::new(8, 8, 4).expect("valid"), 298.0);
    let fpga = replay_lenet_with(
        Rc::new(FpgaBackend::new(accelerator).pipelined()),
        &TrainOptions::default(),
    )
    .expect("no checkpoint I/O configured");
    mpt_telemetry::disable();
    let stage_tracks = trace_events()
        .iter()
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_owned))
        .filter(|track| track.starts_with("fpga-pipeline/"))
        .count();
    assert_eq!(
        stage_tracks, 4,
        "the FPGA replay's trace lacks stage tracks"
    );
    assert_eq!(
        fpga.digest, off.digest,
        "telemetry-on FPGA replay diverged from the telemetry-off CPU replay"
    );
    let snap = fpga.report.telemetry.as_ref().expect("snapshot captured");
    assert!(
        snap.latency.iter().any(|r| r.name == "gemm:fpga"),
        "the replay did not run on the pipelined FPGA backend"
    );
    let two_way = |prefix: &str| {
        snap.quant.iter().any(|q| {
            q.label.starts_with(prefix) && q[QuantCat::SrUp] > 0 && q[QuantCat::SrDown] > 0
        })
    };
    // FP8×FP12-SR rounds stochastically at the accumulator only, so a
    // layer group with both directions can only have got them from it.
    assert!(
        two_way("acc:") && two_way("layer:"),
        "FPGA-backend accumulator SR tallies missing (global or layer scope): {:?}",
        snap.quant
            .iter()
            .map(|q| (&q.label, q[QuantCat::SrUp], q[QuantCat::SrDown]))
            .collect::<Vec<_>>()
    );

    mpt_telemetry::reset();
}
