//! Chrome-trace (`chrome://tracing` / Perfetto) rendering of the
//! telemetry log.
//!
//! Nothing is captured for the trace: [`render`] draws it from the
//! JSONL lines of one run — the file `MPT_TELEMETRY_JSONL` names
//! (`mpt-report --trace-out` reads it) or
//! [`crate::sink::buffered_events`]. Two line types become slices:
//!
//! * a `span` line is one slice on its thread's track, `thread-<n>`,
//!   starting at its `ts_us` and lasting its `dur_ns`;
//! * an `fpga_launch` line, one per pipelined-executor launch, is one
//!   slice per stage with modeled time in it, on the virtual
//!   `fpga-pipeline/<stage>` tracks: the stage's window on the
//!   executor's modeled timeline ends at `<stage>_end_s` and lasts
//!   `<stage>_s`, so the pack → transfer → compute → unpack overlap
//!   is visible.
//!
//! Lines that do not parse (a run cut off mid-write) and lines of
//! other types are skipped. The output is the trace-event JSON object
//! format, `{"traceEvents": [...]}`: each track becomes a `tid` with a
//! `thread_name` metadata record, timestamps and durations are
//! microseconds, and slices are sorted by (start, track, line index),
//! so one log always renders to the same bytes.

use crate::json::{self, Field, Value};

/// One slice of the timeline (a Chrome-trace "complete" event).
struct Slice {
    name: String,
    track: String,
    ts_us: f64,
    dur_us: f64,
    /// Index of the log line it came from: the last sort key.
    line: usize,
}

/// Renders the Chrome trace of one run from its JSONL `lines`.
pub fn render<L: AsRef<str>>(lines: impl IntoIterator<Item = L>) -> String {
    let mut slices = Vec::new();
    for (line, text) in lines.into_iter().enumerate() {
        let Ok(ev) = json::parse(text.as_ref()) else {
            continue;
        };
        match ev.get("type").and_then(Value::as_str) {
            Some("span") => slices.extend(span_slice(&ev, line)),
            Some("fpga_launch") => launch_slices(&ev, line, &mut slices),
            _ => {}
        }
    }
    slices.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then_with(|| a.track.cmp(&b.track))
            .then(a.line.cmp(&b.line))
    });
    write(&slices)
}

/// A `span` line's slice; `None` for a line that lacks a field.
fn span_slice(ev: &Value, line: usize) -> Option<Slice> {
    let num = |key| ev.get(key).and_then(Value::as_f64);
    Some(Slice {
        name: ev.get("name")?.as_str()?.to_string(),
        track: format!("thread-{}", ev.get("thread")?.as_u64()?),
        ts_us: num("ts_us")?,
        dur_us: num("dur_ns")? / 1e3,
        line,
    })
}

/// An `fpga_launch` line's slices: one per `<stage>_end_s` key whose
/// `<stage>_s` is positive.
fn launch_slices(ev: &Value, line: usize, out: &mut Vec<Slice>) {
    let (Value::Object(fields), Some(launch)) = (ev, ev.get("launch").and_then(Value::as_u64))
    else {
        return;
    };
    for (key, end) in fields {
        let Some(stage) = key.strip_suffix("_end_s") else {
            continue;
        };
        let t = ev.get(&format!("{stage}_s")).and_then(Value::as_f64);
        let (Some(end_s), Some(t)) = (end.as_f64(), t) else {
            continue;
        };
        if t > 0.0 {
            out.push(Slice {
                name: format!("{stage} #{launch}"),
                track: format!("fpga-pipeline/{stage}"),
                ts_us: (end_s - t) * 1e6,
                dur_us: t * 1e6,
                line,
            });
        }
    }
}

/// Serializes sorted `slices` as a Chrome trace-event JSON document.
/// Tracks are assigned `tid`s in sorted-name order, each introduced
/// by a `thread_name` metadata record.
fn write(slices: &[Slice]) -> String {
    let mut tracks: Vec<&str> = slices.iter().map(|e| e.track.as_str()).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let tid_of = |track: &str| tracks.binary_search(&track).unwrap_or(0) as u64;

    let mut records = vec![
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"mpt\"}}"
            .to_string(),
    ];
    for (tid, track) in tracks.iter().enumerate() {
        let mut name = String::new();
        json::escape_into(&mut name, track);
        records.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    records.extend(slices.iter().map(|e| {
        json::object(&[
            Field::Str("name", &e.name),
            Field::Str("cat", "mpt"),
            Field::Str("ph", "X"),
            Field::F64("ts", e.ts_us),
            Field::F64("dur", e.dur_us),
            Field::U64("pid", 1),
            Field::U64("tid", tid_of(&e.track)),
        ])
    }));
    format!("{{\"traceEvents\":[\n{}\n]}}\n", records.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_events(doc: &str) -> Vec<Value> {
        let v = json::parse(doc).expect("trace must parse");
        match v.get("traceEvents").unwrap() {
            Value::Array(a) => a.clone(),
            other => panic!("{other:?}"),
        }
    }

    fn str_of<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
        e.get(key).and_then(Value::as_str)
    }

    #[test]
    fn render_is_valid_json_with_named_tracks() {
        let log = [
            "{\"type\":\"fpga_launch\",\"launch\":1,\"pack_s\":1e-5,\"pack_end_s\":1e-5,\
             \"transfer_s\":0.0,\"transfer_end_s\":1e-5,\
             \"compute_s\":5e-6,\"compute_end_s\":1.5e-5}",
            "not json at all",
            "{\"type\":\"step\",\"loss\":1.0}",
        ];
        let arr = trace_events(&render(log));
        // 1 process_name + 2 thread_name + 2 complete events: the
        // zero-length transfer stage is no slice.
        assert_eq!(arr.len(), 5);
        let metas: Vec<&str> = arr
            .iter()
            .filter(|e| str_of(e, "ph") == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(
            metas,
            ["mpt", "fpga-pipeline/compute", "fpga-pipeline/pack"]
        );
        let complete: Vec<_> = arr
            .iter()
            .filter(|e| str_of(e, "ph") == Some("X"))
            .map(|e| {
                let num = |k| e.get(k).and_then(Value::as_f64).unwrap();
                (str_of(e, "name").unwrap(), num("ts"), num("dur"))
            })
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[0].0, "pack #1");
        assert!((complete[0].1 - 0.0).abs() < 1e-9 && (complete[0].2 - 10.0).abs() < 1e-9);
        assert_eq!(complete[1].0, "compute #1");
        assert!((complete[1].1 - 10.0).abs() < 1e-9 && (complete[1].2 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sort_orders_by_start_then_track() {
        let span = |name: &str, thread: u64, ts: f64| {
            format!(
                "{{\"type\":\"span\",\"name\":\"{name}\",\"id\":1,\"parent\":0,\
                 \"depth\":0,\"thread\":{thread},\"ts_us\":{ts:?},\"dur_ns\":1000}}"
            )
        };
        let log = [
            span("b", 1, 5.0),
            span("a", 0, 5.0),
            span("c", 9, 1.0),
            span("d", 0, 5.0),
        ];
        let names: Vec<String> = trace_events(&render(&log))
            .iter()
            .filter(|e| str_of(e, "ph") == Some("X"))
            .map(|e| str_of(e, "name").unwrap().to_string())
            .collect();
        // ts ties broken by track, then by line.
        assert_eq!(names, ["c", "a", "d", "b"]);
    }
}
