//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls *into* the crates (phase spans in
//! the step loop, one span per GEMM in [`crate::train::TimedBackend`],
//! one per served request), kept in memory, and written as a
//! Chrome-trace file when the run ends. Nothing inside the measured
//! program is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `nn.fwd` or `gemm`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The unit (training step or request) this span belongs to.
    pub unit: u64,
    /// Free-form detail (GEMM shape and config, request class).
    pub detail: String,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with a nesting stack: a span opened while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// Sets the unit id stamped on spans opened from here on.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &str, detail: String) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            unit: self.unit,
            detail,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the
    /// benchmark's instrumentation, never in the measured program.
    pub fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Records an already-measured span (a request whose reply arrived
    /// on another thread's clock) with explicit times.
    pub fn push_closed(&mut self, name: &str, detail: String, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            unit: self.unit,
            detail,
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per unit, the summed duration (or self time) in milliseconds of
    /// the spans named `name`; index = unit id. Callers take the median
    /// over units, which a host burst inside a few units cannot move.
    pub fn per_unit_ms(&self, name: &str, self_time: bool) -> Vec<f64> {
        let selfs = if self_time {
            self_times_ns(&self.spans)
        } else {
            self.spans.iter().map(Span::dur_ns).collect()
        };
        let units = self.spans.iter().map(|s| s.unit + 1).max().unwrap_or(0);
        let mut out = vec![0.0; units as usize];
        for (s, ns) in self.spans.iter().zip(selfs) {
            if s.name == name {
                out[s.unit as usize] += ns as f64 / 1e6;
            }
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children are clipped to
/// the parent and overlapping siblings are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Renders spans as a Chrome-trace (`chrome://tracing`, Perfetto)
/// document of complete (`ph: "X"`) events, one track per root name.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut detail = String::new();
        mpt_telemetry::json::escape_into(&mut detail, &s.detail);
        let mut name = String::new();
        mpt_telemetry::json::escape_into(&mut name, &s.name);
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"unit\":{},\"parent\":{},\"detail\":\"{detail}\"}}}}",
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.unit,
            s.parent.map_or(-1, |p| p as i64),
        );
    }
    out.push_str("]}");
    out
}
