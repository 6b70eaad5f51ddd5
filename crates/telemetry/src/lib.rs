//! Zero-dependency numerics and performance telemetry for the
//! MPTorch-FPGA reproduction.
//!
//! Every observation has exactly one in-process record and one
//! writer; the out-of-process copies exist because a different
//! reader needs them:
//!
//! | observation | in-process record (→ [`Snapshot`]) | out-of-process record |
//! |---|---|---|
//! | a quantized value's fate ([`QuantCat`]) | local [`QuantTally`], flushed once per slice / GEMM into the label's [`QuantCounters`] | cumulative `layer_quant` event per epoch (`mpt-report`: per-layer health) |
//! | a latency: a closed [`span`] / [`span_from`] (GEMM, forward and backward layer, trainer step, served request, pipeline stage) | the exact row of its name: count, total, max, bytes | one `span` JSONL line (`mpt-report`: percentiles, nesting via `id`/`parent`, and the Chrome trace [`trace::render`] draws from `ts_us`/`thread`) |
//! | an FPGA launch's modeled stage windows | — | one `fpga_launch` JSONL line (the trace's `fpga-pipeline/<stage>` tracks) |
//! | which SIMD nest ran a GEMM | [`counter`]`("kernel.tier.<tier>")` | — |
//! | predicted vs measured latency | a [`CalibrationRecord`] | one `calibration` JSONL line |
//! | anything else a caller wants logged | — | [`event`] JSONL line (`step`, `epoch`, `loss_scale`, ...) |
//!
//! A closed span thus leaves two records, its registry row and its
//! log line; the Chrome trace is a rendering of the log, not a third
//! record. JSONL lines go to a capped in-memory buffer and, when
//! `MPT_TELEMETRY_JSONL` names a file, to disk ([`sink`]).
//! [`Snapshot::render_table`] prints the in-process records: one
//! numerics row per quantizer label, one latency row per span name
//! (count, total, mean, max, MB), the counters and the calibration
//! audit. Percentiles are computed from the `span` lines, which hold
//! every duration.
//!
//! # Cost model
//!
//! Telemetry is **off by default**. The only thing instrumented code
//! pays when disabled is one [`enabled`] check — a relaxed atomic
//! load — per slice/GEMM/step (never per element). Instrumented
//! paths are written so the disabled branch executes byte-identical
//! code to the uninstrumented original, and a conformance guard
//! asserts that enabling telemetry does not change training results
//! bit-for-bit (observation must not perturb the experiment).
//!
//! # Example
//!
//! ```
//! mpt_telemetry::enable();
//! {
//!     let mut g = mpt_telemetry::span("gemm");
//!     g.add_bytes(1024);
//!     // ... work ...
//! }
//! let mut tally = mpt_telemetry::QuantTally::new(448.0, false);
//! tally.record(1.0, 1.0);
//! tally.flush("E4M3");
//! let snap = mpt_telemetry::Snapshot::capture();
//! assert_eq!(snap.quant[0].label, "E4M3");
//! assert_eq!(snap.quant[0][mpt_telemetry::QuantCat::Exact], 1);
//! println!("{}", snap.render_table());
//! mpt_telemetry::disable();
//! mpt_telemetry::reset();
//! ```

#![warn(missing_docs)]

mod counter;
pub mod json;
mod registry;
pub mod sink;
mod span;
mod summary;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use counter::{Counter, SHARDS};
pub use registry::{
    calibration_records, counter, quant_counters, quant_snapshots, record_calibration,
    set_layer_scope, CalibrationRecord, LatencySnapshot, QuantCat, QuantCounters, QuantSnapshot,
    QuantTally,
};
pub use span::{span, span_from, SpanField, SpanGuard};
pub use summary::Snapshot;

/// The global on/off switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently collecting. One relaxed atomic
/// load — this is the whole disabled-path cost.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on. The first call pins the instant span start
/// times (`ts_us`) count from.
pub fn enable() {
    span::epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off (already-registered counters keep their
/// values until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Configures telemetry from the environment:
///
/// * `MPT_TELEMETRY=1` (or `true`/`on`) enables collection;
/// * `MPT_TELEMETRY_JSONL=<path>` additionally routes events to a
///   JSONL file (implies enable); `mpt-report --trace-out` renders
///   the Chrome trace from it.
///
/// Returns whether telemetry ended up enabled.
pub fn init_from_env() -> bool {
    if let Ok(path) = std::env::var("MPT_TELEMETRY_JSONL") {
        if !path.is_empty() {
            if let Err(e) = sink::set_jsonl_path(&path) {
                eprintln!("telemetry: cannot open {path}: {e}");
            }
            enable();
        }
    }
    if let Ok(v) = std::env::var("MPT_TELEMETRY") {
        match v.as_str() {
            "1" | "true" | "on" => enable(),
            "0" | "false" | "off" => disable(),
            _ => {}
        }
    }
    enabled()
}

/// Emits one ad-hoc JSONL event built from `fields`. Callers own the
/// schema; by convention the first field is `("type", ...)`. No-op
/// when disabled.
pub fn event(fields: &[json::Field<'_>]) {
    if !enabled() {
        return;
    }
    sink::emit_line(json::object(fields));
}

/// Zeroes every counter and latency row, drops the calibration
/// records and the event buffer, and detaches the JSONL file. The
/// enabled flag is left as-is.
pub fn reset() {
    registry::reset();
    sink::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_event_is_noop() {
        // Runs first alphabetically? No ordering guarantees — just
        // assert the flag round-trips and gates `event`.
        disable();
        assert!(!enabled());
        event(&[json::Field::Str("type", "t")]);
        enable();
        assert!(enabled());
        disable();
    }
}
