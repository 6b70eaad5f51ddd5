//! Spans: the one record of every latency this repository measures.
//!
//! A [`SpanGuard`] times a region and, on drop, writes its two
//! records: one `span` JSONL line and the exact latency row of its
//! name in the registry (count, total, max, bytes). Nesting is tracked
//! per thread: each open span records its parent's id and its depth,
//! so the event stream reconstructs the call tree without any
//! cross-thread coordination. The line also carries the span's start
//! (`ts_us`, microseconds since the first [`crate::enable`]) and its
//! thread's ordinal (`thread`), so the log alone holds the timeline
//! [`crate::trace::render`] draws. [`span_from`] opens a span on a
//! clock that started earlier (a request's enqueue instant).
//!
//! When telemetry is disabled, [`span`] and [`span_from`] hand back an
//! inert guard — no clock read, no allocation beyond moving the name.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{self, Field};

/// Globally unique span ids (0 = "no parent").
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The next thread ordinal.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Ids of the spans currently open on this thread, outermost
    /// first.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's small stable ordinal, assigned at its first closed
    /// span: the `thread` field of its span lines.
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The instant every `ts_us` counts from, pinned by the first
/// [`crate::enable`] so that it precedes every span.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// An extra field attached to a span event.
#[derive(Debug, Clone)]
pub enum SpanField {
    /// Unsigned integer field.
    U64(&'static str, u64),
    /// Float field.
    F64(&'static str, f64),
    /// String field.
    Str(&'static str, String),
}

/// Times a region; emits on drop. Create via [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when telemetry was disabled at open time.
    state: Option<SpanState>,
}

#[derive(Debug)]
struct SpanState {
    id: u64,
    parent: u64,
    depth: usize,
    name: String,
    start: Instant,
    bytes: u64,
    fields: Vec<SpanField>,
}

/// Opens a span named `name`. The guard measures until dropped.
/// Disabled telemetry yields an inert guard.
pub fn span(name: impl Into<String>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { state: None };
    }
    open(name.into(), Instant::now())
}

/// [`span`] on a clock that started at `start`: the recorded duration
/// runs from `start` to the guard's drop. Disabled telemetry yields
/// an inert guard.
pub fn span_from(name: impl Into<String>, start: Instant) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { state: None };
    }
    open(name.into(), start)
}

fn open(name: String, start: Instant) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        let depth = open.len();
        open.push(id);
        (parent, depth)
    });
    SpanGuard {
        state: Some(SpanState {
            id,
            parent,
            depth,
            name,
            start,
            bytes: 0,
            fields: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Attaches an extra field to the close event (no-op when inert).
    pub fn field(&mut self, f: SpanField) -> &mut Self {
        if let Some(s) = &mut self.state {
            s.fields.push(f);
        }
        self
    }

    /// Records bytes moved by the region (summed per name in the
    /// registry and emitted on the event).
    pub fn add_bytes(&mut self, bytes: u64) -> &mut Self {
        if let Some(s) = &mut self.state {
            s.bytes += bytes;
        }
        self
    }

    /// Whether this guard is live (telemetry was enabled at open).
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        let dur = s.start.elapsed();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // Spans are scoped guards, so this span is the innermost
            // open one on its thread; pop defensively by id anyway.
            if let Some(pos) = open.iter().rposition(|&id| id == s.id) {
                open.remove(pos);
            }
        });
        let dur_ns = dur.as_nanos() as u64;
        // A `span_from` clock that started before the epoch starts at 0.
        let ts_us = s
            .start
            .checked_duration_since(epoch())
            .map_or(0.0, |d| d.as_nanos() as f64 / 1e3);
        let mut fields = vec![
            Field::Str("type", "span"),
            Field::Str("name", &s.name),
            Field::U64("id", s.id),
            Field::U64("parent", s.parent),
            Field::U64("depth", s.depth as u64),
            Field::U64("thread", THREAD.with(|t| *t)),
            Field::F64("ts_us", ts_us),
            Field::U64("dur_ns", dur_ns),
        ];
        if s.bytes > 0 {
            fields.push(Field::U64("bytes", s.bytes));
        }
        for f in &s.fields {
            fields.push(match f {
                SpanField::U64(k, v) => Field::U64(k, *v),
                SpanField::F64(k, v) => Field::F64(k, *v),
                SpanField::Str(k, v) => Field::Str(k, v),
            });
        }
        // The two records of a closed span, one writer each: the JSONL
        // line (`mpt-report` and the trace read it) and the registry
        // entry of its name (the summary table).
        crate::sink::emit_line(json::object(&fields));
        crate::registry::record_span(&s.name, dur_ns, s.bytes);
    }
}
