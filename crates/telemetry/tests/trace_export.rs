//! The Chrome trace rendered from a logged run: deterministic
//! ordering and a valid export.
//!
//! Spans close in whatever order the scheduler runs threads, so the
//! log's line order is non-deterministic; [`trace::render`] must sort
//! slices by (start, track, line) so that trace files are stable, and
//! rendering one log twice must give the same bytes.

use mpt_telemetry::json::{self, Field, Value};
use mpt_telemetry::trace;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier};
use std::thread;

/// One combined test: log spans from several threads plus modeled
/// stage windows, then validate the rendered trace. (Combined because
/// the event buffer is process-global.)
#[test]
fn multithreaded_capture_is_sorted_and_exports_valid_json() {
    mpt_telemetry::reset();
    mpt_telemetry::enable();

    const THREADS: usize = 4;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..8u64 {
                    let mut g = mpt_telemetry::span(format!("work:{t}"));
                    g.add_bytes(64 * i);
                    std::hint::black_box(i * t as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Modeled stage windows, one line per launch, as the pipelined
    // executor logs them: each stage ends where the next begins.
    for launch in 1..=2u64 {
        let base = (launch - 1) as f64 * 40e-6;
        let mut fields = vec![
            Field::Str("type", "fpga_launch"),
            Field::U64("launch", launch),
        ];
        let keys = [
            ("pack_s", "pack_end_s"),
            ("transfer_s", "transfer_end_s"),
            ("compute_s", "compute_end_s"),
            ("unpack_s", "unpack_end_s"),
        ];
        for (i, (dur, end)) in keys.into_iter().enumerate() {
            fields.push(Field::F64(dur, 10e-6));
            fields.push(Field::F64(end, base + (i + 1) as f64 * 10e-6));
        }
        mpt_telemetry::event(&fields);
    }
    mpt_telemetry::disable();

    let lines = mpt_telemetry::sink::buffered_events();
    let doc = trace::render(&lines);
    assert_eq!(doc, trace::render(&lines), "render must be deterministic");

    let v = json::parse(&doc).expect("trace must parse");
    let Some(Value::Array(arr)) = v.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    let str_of = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_owned);
    let track_of: BTreeMap<u64, String> = arr
        .iter()
        .filter(|e| str_of(e, "name").as_deref() == Some("thread_name"))
        .map(|e| {
            let tid = e.get("tid").and_then(Value::as_u64).unwrap();
            (tid, e.get("args").and_then(|a| str_of(a, "name")).unwrap())
        })
        .collect();
    let complete: Vec<(String, f64, &String)> = arr
        .iter()
        .filter(|e| str_of(e, "ph").as_deref() == Some("X"))
        .map(|e| {
            let tid = e.get("tid").and_then(Value::as_u64).unwrap();
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            (str_of(e, "name").unwrap(), ts, &track_of[&tid])
        })
        .collect();
    assert_eq!(complete.len(), THREADS * 8 + 4 * 2, "{complete:?}");

    // Slices are sorted by (start, track).
    for w in complete.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!(
            a.1 < b.1 || (a.1 == b.1 && a.2 <= b.2),
            "unsorted: {a:?} then {b:?}"
        );
    }

    // One named track per pipeline stage, and one per worker thread,
    // each holding all of that worker's spans.
    let stage_tracks = track_of
        .values()
        .filter(|t| t.starts_with("fpga-pipeline/"))
        .count();
    assert_eq!(stage_tracks, 4, "tracks: {track_of:?}");
    let mut tracks_of_worker: BTreeMap<&str, BTreeSet<&String>> = BTreeMap::new();
    for (name, _, track) in &complete {
        if name.starts_with("work:") {
            tracks_of_worker.entry(name).or_default().insert(track);
        }
    }
    assert_eq!(tracks_of_worker.len(), THREADS);
    let worker_tracks: BTreeSet<&String> = tracks_of_worker
        .values()
        .map(|tracks| {
            assert_eq!(tracks.len(), 1, "a worker's spans on {tracks:?}");
            *tracks.first().unwrap()
        })
        .collect();
    assert_eq!(worker_tracks.len(), THREADS, "{worker_tracks:?}");
    assert!(worker_tracks.iter().all(|t| t.starts_with("thread-")));
    mpt_telemetry::reset();
}
