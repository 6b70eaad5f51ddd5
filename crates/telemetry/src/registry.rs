//! The global metrics registry: the in-process record of every
//! observation kind (the crate docs list them with their readers).
//!
//! The three named kinds — quantizer counter groups, counters, latency
//! rows — share one [`Table`]: handles are leaked (`&'static`) so the
//! hot path never holds a lock. The table is consulted once per label
//! lookup (typically once per slice / GEMM flush or span close), after
//! which every update is a relaxed atomic. A latency row is exact: a
//! closed span adds its count, duration and bytes and raises the
//! maximum; percentiles come from the `span` lines of the log.

use std::collections::BTreeMap;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::counter::Counter;
use crate::json::{self, Field};

const POISONED: &str = "a thread panicked while holding a registry lock";

/// What can happen to a value pushed through a quantizer.
///
/// **This is the one list of rounding categories**: the tally, the
/// counter group, the snapshot, the summary table, the `layer_quant`
/// event and `mpt-report` all index or iterate it, so a category
/// cannot be counted in one place and dropped in another. Every value
/// lands in exactly one category other than `Total`, `SrUp` and
/// `SrDown` (those two split `Rounded` by direction under stochastic
/// rounding), so the rest always sum to `Total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantCat {
    /// Values pushed through the quantizer.
    Total,
    /// Output bit-identical to input (value already representable).
    Exact,
    /// Rounded to a different representable value (not saturated,
    /// flushed, or special).
    Rounded,
    /// Clamped to the format's finite max: either an out-of-range
    /// finite input under `saturate=true`, or an infinite input
    /// clamped to a finite value.
    Saturated,
    /// Finite input overflowed to ±inf (`with_infinities` formats).
    OverflowInf,
    /// Infinite input preserved as ±inf.
    InfPassthrough,
    /// Nonzero input flushed to zero (subnormal flush / underflow).
    Flushed,
    /// Stochastic rounding moved the value up (y > x).
    SrUp,
    /// Stochastic rounding moved the value down (y < x).
    SrDown,
    /// NaN inputs (propagated).
    Nan,
}

use QuantCat::*;

impl QuantCat {
    /// Every category, in event-field and table-column order.
    pub const ALL: [QuantCat; 10] = [
        Total,
        Exact,
        Rounded,
        Saturated,
        OverflowInf,
        InfPassthrough,
        Flushed,
        SrUp,
        SrDown,
        Nan,
    ];

    /// The category's JSONL field / table column name.
    pub const fn name(self) -> &'static str {
        match self {
            Total => "total",
            Exact => "exact",
            Rounded => "rounded",
            Saturated => "saturated",
            OverflowInf => "overflow_inf",
            InfPassthrough => "inf_passthrough",
            Flushed => "flushed",
            SrUp => "sr_up",
            SrDown => "sr_down",
            Nan => "nan",
        }
    }
}

/// The counter group every quantizer label owns, indexed by
/// [`QuantCat`].
///
/// One group exists per distinct quantizer `Display` label (e.g.
/// `E5M2-SR` or `acc:E6M5-SR`); all slice/GEMM paths that quantize
/// under that config flush into the same group.
#[derive(Debug, Default)]
pub struct QuantCounters([Counter; 10]);

impl Index<QuantCat> for QuantCounters {
    type Output = Counter;

    fn index(&self, cat: QuantCat) -> &Counter {
        &self.0[cat as usize]
    }
}

/// A thread-local tally accumulated element-by-element and flushed
/// to the registry once per slice / GEMM tile.
///
/// `record` is branch-light (local integer adds, no atomics); the
/// single [`flush`](QuantTally::flush) call does one registry lookup
/// plus ten sharded atomic adds, so instrumenting a million-element
/// quantization costs about as much as eleven uncontended atomics.
#[derive(Debug, Clone)]
pub struct QuantTally {
    /// Saturation range `(min, max)`: the format's most negative and
    /// largest finite values — symmetric for floats, asymmetric for
    /// two's-complement fixed point, `(-inf, +inf)` for formats
    /// without a meaningful clamp (BFP blocks), which then never
    /// report `Saturated`.
    range: (f64, f64),
    /// Whether the rounding mode is stochastic (enables up/down
    /// direction counts).
    sr: bool,
    counts: [u64; 10],
}

impl QuantTally {
    /// A fresh tally for a quantizer whose largest finite magnitude
    /// is `threshold` (a sign-symmetric format), using stochastic
    /// rounding iff `sr`.
    pub fn new(threshold: f64, sr: bool) -> Self {
        QuantTally::with_range(-threshold, threshold, sr)
    }

    /// A fresh tally for a quantizer clamping to `[min, max]`, using
    /// stochastic rounding iff `sr`.
    pub fn with_range(min: f64, max: f64, sr: bool) -> Self {
        QuantTally {
            range: (min, max),
            sr,
            counts: [0; 10],
        }
    }

    /// Classifies one input/output pair.
    ///
    /// Classification order matters and is part of the event schema
    /// (DESIGN.md §8): NaN → infinite input (passthrough vs clamp)
    /// → exact → overflow to inf → finite saturation (input beyond
    /// the range, output at its bound) → flush-to-zero → rounded
    /// (with SR direction).
    #[inline]
    pub fn record(&mut self, x: f64, y: f64) {
        let cat = if x.is_nan() {
            Nan
        } else if x.is_infinite() {
            if y.is_infinite() {
                InfPassthrough
            } else {
                // ±inf clamped to the finite max (saturate=true).
                Saturated
            }
        } else if y == x {
            Exact
        } else if y.is_infinite() {
            OverflowInf
        } else if (x > self.range.1 && y >= self.range.1) || (x < self.range.0 && y <= self.range.0)
        {
            Saturated
        } else if y == 0.0 && x != 0.0 {
            Flushed
        } else {
            if self.sr {
                self.counts[if y > x { SrUp } else { SrDown } as usize] += 1;
            }
            Rounded
        };
        self.counts[Total as usize] += 1;
        self.counts[cat as usize] += 1;
    }

    /// `record` for f32 pairs (slice quantizers).
    #[inline]
    pub fn record_f32(&mut self, x: f32, y: f32) {
        self.record(x as f64, y as f64);
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts[Total as usize] == 0
    }

    /// Adds the tally to the global counters registered under
    /// `label` and clears it.
    ///
    /// When a layer scope is active (see [`set_layer_scope`]), the
    /// same counts are **additionally** flushed into the
    /// `layer:<scope>` counter group, so saturation / overflow /
    /// underflow / SR-direction rates are attributable per layer
    /// without changing any numeric result.
    pub fn flush(&mut self, label: &str) {
        if self.is_empty() {
            return;
        }
        self.add_into(quant_counters(label));
        let scope = REGISTRY.layer_scope.read().expect(POISONED).clone();
        if let Some(scope) = scope {
            self.add_into(quant_counters(&format!("layer:{scope}")));
        }
        self.counts = [0; 10];
    }

    fn add_into(&self, group: &QuantCounters) {
        for (counter, &n) in group.0.iter().zip(&self.counts) {
            counter.add(n);
        }
    }
}

/// Point-in-time copy of one quantizer's counter group, indexed by
/// [`QuantCat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantSnapshot {
    /// The quantizer label the counters were registered under.
    pub label: String,
    counts: [u64; 10],
}

impl Index<QuantCat> for QuantSnapshot {
    type Output = u64;

    fn index(&self, cat: QuantCat) -> &u64 {
        &self.counts[cat as usize]
    }
}

/// Name → leaked handle, created zeroed on first use. The one
/// get-or-create body and the one walk every metric kind shares.
struct Table<T: 'static>(RwLock<BTreeMap<String, &'static T>>);

impl<T: Default> Table<T> {
    const fn new() -> Self {
        Table(RwLock::new(BTreeMap::new()))
    }

    /// The handle registered under `name`. `'static`, so updates
    /// after the lookup are lock-free.
    fn get(&self, name: &str) -> &'static T {
        if let Some(v) = self.0.read().expect(POISONED).get(name) {
            return v;
        }
        let mut map = self.0.write().expect(POISONED);
        map.entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::default()))
    }

    /// Visits every entry in name order.
    fn for_each(&self, mut f: impl FnMut(&str, &'static T)) {
        for (name, v) in self.0.read().expect(POISONED).iter() {
            f(name, v);
        }
    }
}

/// What the closed spans of one name accumulate, exactly: how many,
/// their total and longest duration, and the bytes they reported
/// moving.
#[derive(Default)]
struct Latency {
    count: Counter,
    sum_ns: Counter,
    bytes: Counter,
    max_ns: AtomicU64,
}

/// Point-in-time copy of one span name's latency row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// The span name.
    pub name: String,
    /// Closed spans.
    pub count: u64,
    /// Their total duration (ns).
    pub sum_ns: u64,
    /// The longest one (ns).
    pub max_ns: u64,
    /// Bytes they reported moving.
    pub bytes: u64,
}

struct Registry {
    quant: Table<QuantCounters>,
    counters: Table<Counter>,
    latency: Table<Latency>,
    calibration: Mutex<Vec<CalibrationRecord>>,
    /// The currently attributed layer (`<idx>:<kind>`). Process-wide
    /// rather than thread-local on purpose: GEMM band threads flush
    /// tallies on threads the layer driver never touches, and only
    /// one layer's GEMMs are in flight at a time.
    layer_scope: RwLock<Option<Arc<str>>>,
}

static REGISTRY: Registry = Registry {
    quant: Table::new(),
    counters: Table::new(),
    latency: Table::new(),
    calibration: Mutex::new(Vec::new()),
    layer_scope: RwLock::new(None),
};

/// Sets (or clears, with `None`) the layer attribution scope:
/// while a scope `<idx>:<kind>` is active, every [`QuantTally`]
/// flush is mirrored into the `layer:<idx>:<kind>` counter group.
/// Set by the layer driver around each forward / backward region;
/// callers must clear it when the region ends.
pub fn set_layer_scope(scope: Option<&str>) {
    *REGISTRY.layer_scope.write().expect(POISONED) = scope.map(Arc::from);
}

/// The counter group for quantizer `label`, created on first use.
pub fn quant_counters(label: &str) -> &'static QuantCounters {
    REGISTRY.quant.get(label)
}

/// A named free-standing counter, created on first use.
pub fn counter(name: &str) -> &'static Counter {
    REGISTRY.counters.get(name)
}

/// A closed span's in-process record: its duration and bytes added
/// to the latency row of its name.
pub(crate) fn record_span(name: &str, dur_ns: u64, bytes: u64) {
    let row = REGISTRY.latency.get(name);
    row.count.incr();
    row.sum_ns.add(dur_ns);
    row.bytes.add(bytes);
    row.max_ns.fetch_max(dur_ns, Ordering::Relaxed);
}

/// One predicted-vs-measured latency observation from the perf
/// model (per-GEMM on the FPGA backend, or per-iteration from the
/// accelerator matching pass).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRecord {
    /// Where the observation came from (`"fpga_gemm"`,
    /// `"select_accelerator"`, ...).
    pub context: String,
    /// What was being predicted (shape / accelerator description).
    pub label: String,
    /// Model-predicted seconds (`Latency::total_s` / `L_total`).
    pub predicted_s: f64,
    /// Measured seconds (simulated or wall-clock).
    pub measured_s: f64,
}

impl CalibrationRecord {
    /// Signed relative error of the prediction:
    /// `(predicted - measured) / measured`; zero when measured is 0.
    pub fn rel_err(&self) -> f64 {
        if self.measured_s == 0.0 {
            0.0
        } else {
            (self.predicted_s - self.measured_s) / self.measured_s
        }
    }
}

/// Stores a calibration record and emits it to the JSONL sink.
pub fn record_calibration(rec: CalibrationRecord) {
    let line = json::object(&[
        Field::Str("type", "calibration"),
        Field::Str("context", &rec.context),
        Field::Str("label", &rec.label),
        Field::F64("predicted_s", rec.predicted_s),
        Field::F64("measured_s", rec.measured_s),
        Field::F64("rel_err", rec.rel_err()),
    ]);
    crate::sink::emit_line(line);
    REGISTRY.calibration.lock().expect(POISONED).push(rec);
}

/// All calibration records so far, in insertion order.
pub fn calibration_records() -> Vec<CalibrationRecord> {
    REGISTRY.calibration.lock().expect(POISONED).clone()
}

/// Snapshots every quantizer counter group with nonzero traffic,
/// sorted by label.
pub fn quant_snapshots() -> Vec<QuantSnapshot> {
    let mut out = Vec::new();
    REGISTRY.quant.for_each(|label, group| {
        let counts = group.0.each_ref().map(Counter::get);
        if counts[Total as usize] > 0 {
            out.push(QuantSnapshot {
                label: label.to_string(),
                counts,
            });
        }
    });
    out
}

/// Snapshots every named free-standing counter with a nonzero value,
/// sorted by name.
pub(crate) fn counter_snapshots() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    REGISTRY.counters.for_each(|name, c| {
        let value = c.get();
        if value > 0 {
            out.push((name.to_string(), value));
        }
    });
    out
}

/// Snapshots every span name with at least one closed span, sorted
/// by name.
pub(crate) fn latency_snapshots() -> Vec<LatencySnapshot> {
    let mut out = Vec::new();
    REGISTRY.latency.for_each(|name, row| {
        let count = row.count.get();
        if count > 0 {
            out.push(LatencySnapshot {
                name: name.to_string(),
                count,
                sum_ns: row.sum_ns.get(),
                max_ns: row.max_ns.load(Ordering::Relaxed),
                bytes: row.bytes.get(),
            });
        }
    });
    out
}

/// Zeroes every counter and latency row, drops calibration records,
/// and clears the layer scope. Leaked handles stay valid;
/// only their values reset.
pub(crate) fn reset() {
    REGISTRY
        .quant
        .for_each(|_, group| group.0.iter().for_each(Counter::reset));
    REGISTRY.counters.for_each(|_, c| c.reset());
    REGISTRY.latency.for_each(|_, row| {
        row.count.reset();
        row.sum_ns.reset();
        row.bytes.reset();
        row.max_ns.store(0, Ordering::Relaxed);
    });
    REGISTRY.calibration.lock().expect(POISONED).clear();
    set_layer_scope(None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_classification() {
        // E4M3-ish: max 448, threshold finite.
        let mut t = QuantTally::new(448.0, true);
        t.record(1.0, 1.0); // exact
        t.record(1.1, 1.125); // rounded, sr up
        t.record(1.1, 1.0); // rounded, sr down
        t.record(1e6, 448.0); // finite saturation
        t.record(f64::INFINITY, 448.0); // inf clamped -> saturated
        t.record(f64::INFINITY, f64::INFINITY); // passthrough
        t.record(1e6, f64::INFINITY); // overflow to inf
        t.record(1e-12, 0.0); // flushed
        t.record(f64::NAN, f64::NAN); // nan
                                      // In `QuantCat::ALL` order.
        assert_eq!(t.counts, [9, 1, 2, 2, 1, 1, 1, 1, 1, 1]);
        // Every value landed in exactly one non-direction category.
        let parts: u64 = QuantCat::ALL
            .iter()
            .filter(|c| !matches!(c, Total | SrUp | SrDown))
            .map(|&c| t.counts[c as usize])
            .sum();
        assert_eq!(parts, t.counts[Total as usize]);
    }

    #[test]
    fn tally_flush_accumulates_globally() {
        let label = "test-registry-flush-label";
        let mut t = QuantTally::new(f64::INFINITY, false);
        t.record(1.0, 1.0);
        t.record(2.0, 2.5);
        t.flush(label);
        assert!(t.is_empty());
        let c = quant_counters(label);
        assert_eq!(c[Total].get(), 2);
        assert_eq!(c[Exact].get(), 1);
        assert_eq!(c[Rounded].get(), 1);
        // Second flush adds on top.
        t.record(3.0, 3.0);
        t.flush(label);
        assert_eq!(c[Total].get(), 3);
    }

    #[test]
    fn layer_scope_mirrors_flush() {
        let label = "test-layer-scope-quant";
        set_layer_scope(Some("9:conv2d-test"));
        let mut t = QuantTally::new(f64::INFINITY, false);
        t.record(1.0, 1.0);
        t.record(2.0, 2.5);
        t.flush(label);
        set_layer_scope(None);
        assert!(REGISTRY.layer_scope.read().unwrap().is_none());
        let direct = quant_counters(label);
        let layered = quant_counters("layer:9:conv2d-test");
        assert_eq!(direct[Total].get(), 2);
        // `>=`: sibling tests flushing concurrently while our scope
        // was set may legitimately mirror into the same layer group.
        assert!(layered[Total].get() >= 2);
        assert!(layered[Rounded].get() >= 1);
    }

    /// Eight threads closing spans of one name at once: the row's
    /// count, total and maximum are exact, not estimates.
    #[test]
    fn latency_row_is_exact_under_contention() {
        const NAME: &str = "test-registry-latency";
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50_000;
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        record_span(NAME, t * PER_THREAD + i, 2);
                    }
                });
            }
        });
        let n = THREADS * PER_THREAD;
        let row = latency_snapshots()
            .into_iter()
            .find(|r| r.name == NAME)
            .expect("a closed span leaves a row");
        assert_eq!(
            (row.count, row.sum_ns, row.max_ns, row.bytes),
            (n, n * (n - 1) / 2, n - 1, 2 * n)
        );
    }

    #[test]
    fn calibration_rel_err() {
        let r = CalibrationRecord {
            context: "t".into(),
            label: "l".into(),
            predicted_s: 1.2,
            measured_s: 1.0,
        };
        assert!((r.rel_err() - 0.2).abs() < 1e-12);
    }
}
