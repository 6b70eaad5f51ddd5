//! A served FPGA launch is observed like a trained one: its `fpga:*`
//! stage spans nest under the request's `serve:latency:<class>` span,
//! which is in the log and in the registry alike. A file of its own
//! because telemetry is process-global.

use mpt_arith::{qgemm, QGemmConfig};
use mpt_fpga::{Accelerator, PipelinedExecutor, SaConfig, DEFAULT_CACHE_BUDGET};
use mpt_serving::{GemmService, RequestClass, ServeConfig, ServeResult};
use mpt_telemetry::json::{self, Value};
use mpt_tensor::Tensor;

#[test]
fn served_launches_emit_fpga_spans_next_to_request_latency() {
    mpt_telemetry::enable();
    let acc = Accelerator::new(SaConfig::new(4, 4, 2).unwrap(), 300.0);
    let service = GemmService::start(
        ServeConfig::default(),
        PipelinedExecutor::new(acc, DEFAULT_CACHE_BUDGET),
        None,
    );
    let h = service.handle();
    let cfg = QGemmConfig::fp8_fp12_sr().with_seed(4);
    for i in 0..8 {
        let a = Tensor::from_fn(vec![6, 10], |j| ((j * 37 + i) % 41) as f32 * 0.05 - 1.0);
        let b = Tensor::from_fn(vec![10, 5], |j| ((j * 43) % 47) as f32 * 0.04 - 0.9);
        match h.call(&a, &b, &cfg, RequestClass::Inference, None).unwrap() {
            ServeResult::Done { out, degraded } => {
                assert_eq!(out, qgemm(&a, &b, &cfg).unwrap());
                assert!(!degraded);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    service.shutdown();
    mpt_telemetry::disable();
    let snap = mpt_telemetry::Snapshot::capture();
    for name in ["fpga:pack", "fpga:compute", "serve:latency:inference"] {
        let row = snap.latency.iter().find(|r| r.name == name);
        assert_eq!(row.map(|r| r.count), Some(8), "{name}");
    }

    let spans: Vec<Value> = mpt_telemetry::sink::buffered_events()
        .iter()
        .map(|l| json::parse(l).expect("sink lines are valid JSON"))
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("span"))
        .collect();
    let named = |name: &'static str| {
        spans
            .iter()
            .filter(move |v| v.get("name").and_then(Value::as_str) == Some(name))
    };
    let requests: Vec<u64> = named("serve:latency:inference")
        .filter_map(|v| v.get("id").and_then(Value::as_u64))
        .collect();
    assert_eq!(requests.len(), 8);
    assert!(
        named("fpga:compute")
            .all(|v| requests.contains(&v.get("parent").and_then(Value::as_u64).unwrap())),
        "every launch nests under its request"
    );
}
