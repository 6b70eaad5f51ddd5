//! Span self-time with nested and sibling children, and the trace
//! export.

use mpt_benchmark::spans::{chrome_trace, self_times_ns, Recorder, Span};

fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start_ns: start,
        end_ns: end,
        parent,
        unit: 0,
        detail: String::new(),
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = vec![
        span("unit", 0, 100, None),
        span("fwd", 10, 60, Some(0)),
        span("gemm", 20, 50, Some(1)),
        span("bwd", 60, 90, Some(0)),
    ];
    // unit: 100 - (50 + 30); fwd: 50 - 30; leaves keep their duration.
    assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
}

#[test]
fn overlapping_siblings_are_counted_once_and_clipped_to_the_parent() {
    let spans = vec![
        span("parent", 100, 200, None),
        span("a", 110, 150, Some(0)),
        span("b", 140, 180, Some(0)), // overlaps a by 10
        span("c", 190, 250, Some(0)), // runs 50 past the parent
        span("d", 50, 105, Some(0)),  // starts before the parent
    ];
    // Covered: [100,105] + [110,180] + [190,200] = 5 + 70 + 10.
    assert_eq!(self_times_ns(&spans)[0], 100 - 85);
}

#[test]
fn recorder_nests_by_open_order_and_sums_per_unit() {
    let mut rec = Recorder::new();
    rec.set_unit(0);
    let unit = rec.open("unit", String::new());
    let fwd = rec.open("nn.fwd", String::new());
    let g = rec.open("gemm", "2x3x4".into());
    rec.close(g);
    rec.close(fwd);
    rec.close(unit);
    rec.set_unit(1);
    let unit = rec.open("unit", String::new());
    rec.close(unit);

    let spans = rec.spans();
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[3].parent, None);
    assert_eq!(spans[3].unit, 1);

    let totals = rec.per_unit_ms("unit", false);
    let selfs = rec.per_unit_ms("unit", true);
    assert_eq!(totals.len(), 2);
    assert!(selfs[0] <= totals[0]);
    let fwd_total = rec.per_unit_ms("nn.fwd", false);
    assert_eq!(fwd_total[1], 0.0, "unit 1 has no forward span");
    let parts = selfs[0] + fwd_total[0];
    assert!((parts - totals[0]).abs() < 1e-9, "self + children = total");
}

#[test]
#[should_panic(expected = "innermost-first")]
fn closing_out_of_order_is_a_bug() {
    let mut rec = Recorder::new();
    let outer = rec.open("outer", String::new());
    let _inner = rec.open("inner", String::new());
    rec.close(outer);
}

#[test]
fn chrome_trace_is_valid_json_with_one_event_per_span() {
    let spans = vec![
        span("unit", 0, 2_000, None),
        span("gemm \"quoted\"", 500, 1_500, Some(0)),
    ];
    let doc = mpt_telemetry::json::parse(&chrome_trace(&spans)).expect("valid JSON");
    let mpt_telemetry::json::Value::Array(events) = doc.get("traceEvents").unwrap() else {
        panic!("traceEvents is an array");
    };
    assert_eq!(events.len(), 2);
    assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
    assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(0.5));
    assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        events[1]
            .get("args")
            .unwrap()
            .get("parent")
            .unwrap()
            .as_f64(),
        Some(0.0)
    );
}
