//! The timeline the log carries: every `span` line holds its start
//! (`ts_us`) and its thread (`thread`), so nesting shows in time and
//! not only through `parent` links, and the trace is drawn from the
//! log alone — also from a log cut off mid-line.

use mpt_telemetry::json::{self, Value};
use mpt_telemetry::trace;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Barrier};

/// One span line's timeline, in nanoseconds.
struct Window {
    thread: u64,
    parent: u64,
    start_ns: f64,
    end_ns: f64,
}

#[test]
fn child_windows_lie_inside_their_parents_on_the_same_thread() {
    mpt_telemetry::reset();
    mpt_telemetry::enable();

    const THREADS: usize = 3;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let _outer = mpt_telemetry::span("outer");
                for i in 0..3u64 {
                    let _mid = mpt_telemetry::span("mid");
                    let _inner = mpt_telemetry::span("inner");
                    std::hint::black_box(i * t as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    mpt_telemetry::disable();

    let lines = mpt_telemetry::sink::buffered_events();
    let mut windows: HashMap<u64, Window> = HashMap::new();
    for line in &lines {
        let ev = json::parse(line).expect("sink lines are valid JSON");
        if ev.get("type").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let num = |key| {
            ev.get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("span line without `{key}`: {line}"))
        };
        let start_ns = num("ts_us") * 1e3;
        windows.insert(
            num("id") as u64,
            Window {
                thread: num("thread") as u64,
                parent: num("parent") as u64,
                start_ns,
                end_ns: start_ns + num("dur_ns"),
            },
        );
    }
    assert_eq!(windows.len(), THREADS * 7, "one outer, three mid and inner");
    let threads: BTreeSet<u64> = windows.values().map(|w| w.thread).collect();
    assert_eq!(threads.len(), THREADS, "spans nest on several threads");

    // `ts_us` is a float of microseconds: allow its rounding.
    const SLACK_NS: f64 = 1e-3;
    let mut children = 0;
    for (id, child) in &windows {
        if child.parent == 0 {
            continue;
        }
        let parent = &windows[&child.parent];
        assert_eq!(child.thread, parent.thread, "span {id} left its thread");
        assert!(
            child.start_ns >= parent.start_ns - SLACK_NS
                && child.end_ns <= parent.end_ns + SLACK_NS,
            "span {id} [{}, {}] outside its parent [{}, {}]",
            child.start_ns,
            child.end_ns,
            parent.start_ns,
            parent.end_ns
        );
        children += 1;
    }
    assert_eq!(children, THREADS * 6);

    // A run cut off mid-write: the trace renders its complete lines.
    let (last, whole) = lines.split_last().unwrap();
    let mut cut = whole.to_vec();
    cut.push(last[..last.len() / 2].to_string());
    assert_eq!(trace::render(&cut), trace::render(whole));
    assert_ne!(trace::render(whole), trace::render(&lines));
    mpt_telemetry::reset();
}
