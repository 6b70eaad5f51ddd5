//! Span nesting reconstruction from the emitted event stream, the
//! one in-process row a closed span leaves, a back-dated span, and
//! `reset`.
//!
//! One test function: the enabled flag and the event buffer are
//! process-global, so this binary serializes everything through a
//! single `#[test]`.

use mpt_telemetry::json::{self, Value};

fn span_events(events: &[String]) -> Vec<Value> {
    events
        .iter()
        .map(|l| json::parse(l).expect("sink lines are valid JSON"))
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("span"))
        .collect()
}

#[test]
fn nesting_order_and_aggregates() {
    mpt_telemetry::reset();
    mpt_telemetry::enable();

    {
        let mut outer = mpt_telemetry::span("outer");
        outer.add_bytes(64);
        {
            let _mid = mpt_telemetry::span("mid");
            let _inner = mpt_telemetry::span("inner");
            // inner drops before mid: close order inner, mid, outer.
        }
        let _sibling = mpt_telemetry::span("sibling");
    }
    // A clock that started before the span opened (a request's
    // enqueue instant): the span measures from there.
    let enqueued = std::time::Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let waited = {
        let _late = mpt_telemetry::span_from("late", enqueued);
        enqueued.elapsed()
    };
    mpt_telemetry::counter("test.nesting.counter").add(3);
    let mut tally = mpt_telemetry::QuantTally::new(448.0, false);
    tally.record(1.0, 1.0);
    tally.flush("test.nesting.quant");

    let events = span_events(&mpt_telemetry::sink::buffered_events());
    mpt_telemetry::disable();

    let by_name = |name: &str| -> &Value {
        events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no span event named {name}"))
    };

    // Close order: guards emit on drop, innermost first.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, ["inner", "mid", "sibling", "outer", "late"]);

    // Parent links and depths reconstruct the tree.
    let outer = by_name("outer");
    let mid = by_name("mid");
    let inner = by_name("inner");
    let sibling = by_name("sibling");
    let outer_id = outer.get("id").and_then(Value::as_u64).unwrap();
    let mid_id = mid.get("id").and_then(Value::as_u64).unwrap();
    assert_eq!(outer.get("parent").and_then(Value::as_u64), Some(0));
    assert_eq!(outer.get("depth").and_then(Value::as_u64), Some(0));
    assert_eq!(mid.get("parent").and_then(Value::as_u64), Some(outer_id));
    assert_eq!(mid.get("depth").and_then(Value::as_u64), Some(1));
    assert_eq!(inner.get("parent").and_then(Value::as_u64), Some(mid_id));
    assert_eq!(inner.get("depth").and_then(Value::as_u64), Some(2));
    assert_eq!(
        sibling.get("parent").and_then(Value::as_u64),
        Some(outer_id)
    );
    assert_eq!(sibling.get("depth").and_then(Value::as_u64), Some(1));

    // Bytes ride on the close event.
    assert_eq!(outer.get("bytes").and_then(Value::as_u64), Some(64));

    // The back-dated span covers everything since its start.
    let late_ns = by_name("late").get("dur_ns").and_then(Value::as_u64);
    assert!(
        late_ns.unwrap() >= waited.as_nanos() as u64,
        "{late_ns:?} < {waited:?}"
    );

    // In process a closed span is exactly one row: the count, the
    // total and maximum the event reported, and the bytes.
    let snap = mpt_telemetry::Snapshot::capture();
    let rows = |name: &str| -> Vec<_> { snap.latency.iter().filter(|r| r.name == name).collect() };
    let [row] = rows("outer")[..] else {
        panic!("one row per span name, got {:?}", rows("outer"))
    };
    let dur_ns = outer.get("dur_ns").and_then(Value::as_u64).unwrap();
    assert_eq!(
        (row.count, row.sum_ns, row.max_ns, row.bytes),
        (1, dur_ns, dur_ns, 64)
    );
    let table = snap.render_table();
    assert_eq!(table.matches("\nouter ").count(), 1, "{table}");
    assert!(!table.contains("-- spans --") && !table.contains("p50"));

    // Disabled spans are inert: no new events, guard reports inactive.
    let n = mpt_telemetry::sink::buffered_events().len();
    {
        let g = mpt_telemetry::span("ghost");
        assert!(!g.is_active());
    }
    assert_eq!(mpt_telemetry::sink::buffered_events().len(), n);

    // `reset` zeroes every kind of record; handles stay valid.
    assert!(!snap.quant.is_empty() && !snap.counters.is_empty());
    mpt_telemetry::reset();
    let cleared = mpt_telemetry::Snapshot::capture();
    assert!(cleared.quant.is_empty(), "{:?}", cleared.quant);
    assert!(cleared.latency.is_empty(), "{:?}", cleared.latency);
    assert!(cleared.counters.is_empty(), "{:?}", cleared.counters);
    assert!(mpt_telemetry::sink::buffered_events().is_empty());
    mpt_telemetry::counter("test.nesting.counter").incr();
    assert_eq!(mpt_telemetry::counter("test.nesting.counter").get(), 1);
}
