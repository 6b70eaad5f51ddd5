//! The global metrics registry.
//!
//! Handles are leaked (`&'static`) so the hot path never holds a
//! lock: the `RwLock`ed maps are consulted once per label lookup
//! (typically once per slice/GEMM flush), after which all increments
//! go straight to the sharded [`Counter`]s.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::counter::Counter;
use crate::gauge::{Gauge, GaugeSnapshot};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::{self, Field};

/// The counter group every quantizer label owns.
///
/// One group exists per distinct quantizer `Display` label (e.g.
/// `E5M2-SR` or `acc:E6M5-SR`); all slice/GEMM paths that quantize
/// under that config flush into the same group.
#[derive(Debug, Default)]
pub struct QuantCounters {
    /// Values pushed through the quantizer.
    pub total: Counter,
    /// Output bit-identical to input (value already representable).
    pub exact: Counter,
    /// Rounded to a different representable value (not saturated,
    /// flushed, or special).
    pub rounded: Counter,
    /// Clamped to the format's finite max: either an out-of-range
    /// finite input under `saturate=true`, or an infinite input
    /// clamped to a finite value.
    pub saturated: Counter,
    /// Finite input overflowed to ±inf (`with_infinities` formats).
    pub overflow_inf: Counter,
    /// Infinite input preserved as ±inf.
    pub inf_passthrough: Counter,
    /// Nonzero input flushed to zero (subnormal flush / underflow).
    pub flushed: Counter,
    /// Stochastic rounding moved the value up (y > x).
    pub sr_up: Counter,
    /// Stochastic rounding moved the value down (y < x).
    pub sr_down: Counter,
    /// NaN inputs (propagated).
    pub nan: Counter,
}

impl QuantCounters {
    fn reset(&self) {
        self.total.reset();
        self.exact.reset();
        self.rounded.reset();
        self.saturated.reset();
        self.overflow_inf.reset();
        self.inf_passthrough.reset();
        self.flushed.reset();
        self.sr_up.reset();
        self.sr_down.reset();
        self.nan.reset();
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
    /// report `saturated`.
    range: (f64, f64),
    /// Whether the rounding mode is stochastic (enables up/down
    /// direction counts).
    sr: bool,
    total: u64,
    exact: u64,
    rounded: u64,
    saturated: u64,
    overflow_inf: u64,
    inf_passthrough: u64,
    flushed: u64,
    sr_up: u64,
    sr_down: u64,
    nan: u64,
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
            total: 0,
            exact: 0,
            rounded: 0,
            saturated: 0,
            overflow_inf: 0,
            inf_passthrough: 0,
            flushed: 0,
            sr_up: 0,
            sr_down: 0,
            nan: 0,
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
        self.total += 1;
        if x.is_nan() {
            self.nan += 1;
        } else if x.is_infinite() {
            if y.is_infinite() {
                self.inf_passthrough += 1;
            } else {
                // ±inf clamped to the finite max (saturate=true).
                self.saturated += 1;
            }
        } else if y == x {
            self.exact += 1;
        } else if y.is_infinite() {
            self.overflow_inf += 1;
        } else if (x > self.range.1 && y >= self.range.1) || (x < self.range.0 && y <= self.range.0)
        {
            self.saturated += 1;
        } else if y == 0.0 && x != 0.0 {
            self.flushed += 1;
        } else {
            self.rounded += 1;
            if self.sr {
                if y > x {
                    self.sr_up += 1;
                } else {
                    self.sr_down += 1;
                }
            }
        }
    }

    /// `record` for f32 pairs (slice quantizers).
    #[inline]
    pub fn record_f32(&mut self, x: f32, y: f32) {
        self.record(x as f64, y as f64);
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Folds another tally into this one (same quantizer label).
    pub fn merge(&mut self, other: &QuantTally) {
        self.total += other.total;
        self.exact += other.exact;
        self.rounded += other.rounded;
        self.saturated += other.saturated;
        self.overflow_inf += other.overflow_inf;
        self.inf_passthrough += other.inf_passthrough;
        self.flushed += other.flushed;
        self.sr_up += other.sr_up;
        self.sr_down += other.sr_down;
        self.nan += other.nan;
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
        if self.total == 0 {
            return;
        }
        self.add_into(quant_counters(label));
        if let Some(scope) = layer_scope() {
            self.add_into(quant_counters(&format!("layer:{scope}")));
        }
        *self = QuantTally::with_range(self.range.0, self.range.1, self.sr);
    }

    fn add_into(&self, c: &QuantCounters) {
        c.total.add(self.total);
        c.exact.add(self.exact);
        c.rounded.add(self.rounded);
        c.saturated.add(self.saturated);
        c.overflow_inf.add(self.overflow_inf);
        c.inf_passthrough.add(self.inf_passthrough);
        c.flushed.add(self.flushed);
        c.sr_up.add(self.sr_up);
        c.sr_down.add(self.sr_down);
        c.nan.add(self.nan);
    }
}

/// Point-in-time copy of one quantizer's counter group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantSnapshot {
    /// The quantizer label the counters were registered under.
    pub label: String,
    /// See the same-named [`QuantCounters`] fields.
    pub total: u64,
    /// Bit-exact passthroughs.
    pub exact: u64,
    /// Ordinary roundings.
    pub rounded: u64,
    /// Clamps to the finite max.
    pub saturated: u64,
    /// Finite → ±inf overflows.
    pub overflow_inf: u64,
    /// ±inf preserved.
    pub inf_passthrough: u64,
    /// Flushes to zero.
    pub flushed: u64,
    /// SR rounds up.
    pub sr_up: u64,
    /// SR rounds down.
    pub sr_down: u64,
    /// NaN inputs.
    pub nan: u64,
}

struct Registry {
    quant: RwLock<HashMap<String, &'static QuantCounters>>,
    counters: RwLock<HashMap<String, &'static Counter>>,
    gauges: RwLock<HashMap<String, &'static Gauge>>,
    histograms: RwLock<HashMap<String, &'static Histogram>>,
    calibration: Mutex<Vec<CalibrationRecord>>,
    /// The currently attributed layer (`<idx>:<kind>`). Process-wide
    /// rather than thread-local on purpose: GEMM pool workers flush
    /// tallies on threads the layer driver never touches, and only
    /// one layer's GEMMs are in flight at a time.
    layer_scope: RwLock<Option<Arc<str>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        quant: RwLock::new(HashMap::new()),
        counters: RwLock::new(HashMap::new()),
        gauges: RwLock::new(HashMap::new()),
        histograms: RwLock::new(HashMap::new()),
        calibration: Mutex::new(Vec::new()),
        layer_scope: RwLock::new(None),
    })
}

/// Sets (or clears, with `None`) the layer attribution scope:
/// while a scope `<idx>:<kind>` is active, every [`QuantTally`]
/// flush is mirrored into the `layer:<idx>:<kind>` counter group.
/// Set by the layer driver around each forward / backward region;
/// callers must clear it when the region ends.
pub fn set_layer_scope(scope: Option<&str>) {
    *registry().layer_scope.write().unwrap() = scope.map(Arc::from);
}

/// The active layer attribution scope, if any.
pub fn layer_scope() -> Option<Arc<str>> {
    registry().layer_scope.read().unwrap().clone()
}

/// The counter group for quantizer `label`, created on first use.
/// The handle is `'static`: increments after lookup are lock-free.
pub fn quant_counters(label: &str) -> &'static QuantCounters {
    let reg = registry();
    if let Some(c) = reg.quant.read().unwrap().get(label) {
        return c;
    }
    let mut map = reg.quant.write().unwrap();
    map.entry(label.to_string())
        .or_insert_with(|| Box::leak(Box::new(QuantCounters::default())))
}

/// A named free-standing counter, created on first use.
pub fn counter(name: &str) -> &'static Counter {
    let reg = registry();
    if let Some(c) = reg.counters.read().unwrap().get(name) {
        return c;
    }
    let mut map = reg.counters.write().unwrap();
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// A named level gauge, created on first use. Like counters, the
/// handle is `'static` so updates after lookup are lock-free.
pub fn gauge(name: &str) -> &'static Gauge {
    let reg = registry();
    if let Some(g) = reg.gauges.read().unwrap().get(name) {
        return g;
    }
    let mut map = reg.gauges.write().unwrap();
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// Snapshots every gauge that has ever moved (nonzero value or
/// high-water mark), sorted by name.
pub fn gauge_snapshots() -> Vec<GaugeSnapshot> {
    let reg = registry();
    let map = reg.gauges.read().unwrap();
    let mut out: Vec<GaugeSnapshot> = map
        .iter()
        .map(|(name, g)| GaugeSnapshot {
            name: name.clone(),
            value: g.get(),
            high_water: g.high_water(),
        })
        .filter(|s| s.value != 0 || s.high_water != 0)
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// A named latency histogram, created on first use. Like counters,
/// the handle is `'static` so recording after lookup is lock-free.
pub fn histogram(name: &str) -> &'static Histogram {
    let reg = registry();
    if let Some(h) = reg.histograms.read().unwrap().get(name) {
        return h;
    }
    let mut map = reg.histograms.write().unwrap();
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Snapshots every histogram with at least one observation, sorted
/// by name.
pub fn histogram_snapshots() -> Vec<HistogramSnapshot> {
    let reg = registry();
    let map = reg.histograms.read().unwrap();
    let mut out: Vec<HistogramSnapshot> = map
        .iter()
        .map(|(name, h)| HistogramSnapshot::capture(name, h))
        .filter(|s| s.count > 0)
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
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
    registry().calibration.lock().unwrap().push(rec);
}

/// All calibration records so far, in insertion order.
pub fn calibration_records() -> Vec<CalibrationRecord> {
    registry().calibration.lock().unwrap().clone()
}

/// Snapshots every quantizer counter group with nonzero traffic,
/// sorted by label.
pub fn quant_snapshots() -> Vec<QuantSnapshot> {
    let reg = registry();
    let map = reg.quant.read().unwrap();
    let mut out: Vec<QuantSnapshot> = map
        .iter()
        .map(|(label, c)| QuantSnapshot {
            label: label.clone(),
            total: c.total.get(),
            exact: c.exact.get(),
            rounded: c.rounded.get(),
            saturated: c.saturated.get(),
            overflow_inf: c.overflow_inf.get(),
            inf_passthrough: c.inf_passthrough.get(),
            flushed: c.flushed.get(),
            sr_up: c.sr_up.get(),
            sr_down: c.sr_down.get(),
            nan: c.nan.get(),
        })
        .filter(|s| s.total > 0)
        .collect();
    out.sort_by(|a, b| a.label.cmp(&b.label));
    out
}

/// Snapshots every named free-standing counter with a nonzero value,
/// sorted by name.
pub fn counter_snapshots() -> Vec<(String, u64)> {
    let reg = registry();
    let map = reg.counters.read().unwrap();
    let mut out: Vec<(String, u64)> = map
        .iter()
        .map(|(k, c)| (k.clone(), c.get()))
        .filter(|(_, v)| *v > 0)
        .collect();
    out.sort();
    out
}

/// Zeroes all counters and histograms, drops calibration records,
/// and clears the layer scope. Leaked handles stay valid; only their
/// values reset.
pub fn reset() {
    let reg = registry();
    for c in reg.quant.read().unwrap().values() {
        c.reset();
    }
    for c in reg.counters.read().unwrap().values() {
        c.reset();
    }
    for g in reg.gauges.read().unwrap().values() {
        g.reset();
    }
    for h in reg.histograms.read().unwrap().values() {
        h.reset();
    }
    reg.calibration.lock().unwrap().clear();
    *reg.layer_scope.write().unwrap() = None;
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
        assert_eq!(t.total, 9);
        assert_eq!(t.exact, 1);
        assert_eq!(t.rounded, 2);
        assert_eq!(t.sr_up, 1);
        assert_eq!(t.sr_down, 1);
        assert_eq!(t.saturated, 2);
        assert_eq!(t.inf_passthrough, 1);
        assert_eq!(t.overflow_inf, 1);
        assert_eq!(t.flushed, 1);
        assert_eq!(t.nan, 1);
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
        assert_eq!(c.total.get(), 2);
        assert_eq!(c.exact.get(), 1);
        assert_eq!(c.rounded.get(), 1);
        // Second flush adds on top.
        t.record(3.0, 3.0);
        t.flush(label);
        assert_eq!(c.total.get(), 3);
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
        assert!(layer_scope().is_none());
        let direct = quant_counters(label);
        let layered = quant_counters("layer:9:conv2d-test");
        assert_eq!(direct.total.get(), 2);
        // `>=`: sibling tests flushing concurrently while our scope
        // was set may legitimately mirror into the same layer group.
        assert!(layered.total.get() >= 2);
        assert!(layered.rounded.get() >= 1);
    }

    #[test]
    fn histogram_registry_roundtrip() {
        let h = histogram("test-registry-histogram");
        h.record(1_000);
        h.record(3_000);
        let snaps = histogram_snapshots();
        let s = snaps
            .iter()
            .find(|s| s.name == "test-registry-histogram")
            .expect("registered histogram must snapshot");
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_ns, 4_000);
        assert_eq!(s.max_ns, 3_000);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
    }

    #[test]
    fn gauge_registry_roundtrip() {
        let g = gauge("test-registry-gauge");
        g.add(4);
        g.add(-1);
        let snaps = gauge_snapshots();
        let s = snaps
            .iter()
            .find(|s| s.name == "test-registry-gauge")
            .expect("registered gauge must snapshot");
        assert_eq!(s.value, 3);
        assert_eq!(s.high_water, 4);
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
