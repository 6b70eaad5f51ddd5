//! End-of-run snapshot and human-readable summary table.

use std::fmt::Write as _;

use crate::registry::{
    calibration_records, counter_snapshots, latency_snapshots, quant_snapshots, CalibrationRecord,
    LatencySnapshot, QuantCat, QuantSnapshot,
};

/// A point-in-time copy of everything the registry has accumulated.
/// Cheap to clone and safe to hold after [`crate::reset`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-quantizer numerics counters (nonzero groups only).
    pub quant: Vec<QuantSnapshot>,
    /// Free-standing named counters (nonzero only).
    pub counters: Vec<(String, u64)>,
    /// One exact row per span name (nonempty only): count, total
    /// and longest duration, bytes moved.
    pub latency: Vec<LatencySnapshot>,
    /// Perf-model predicted-vs-measured records.
    pub calibration: Vec<CalibrationRecord>,
    /// Events dropped past the in-memory buffer cap.
    pub dropped_events: u64,
}

/// The label column width: the longest key, never truncated (keys
/// like `layer:5:conv2d` or `serve:latency:inference` must
/// stay readable), floored at the header width.
fn label_width<'a>(header: &str, labels: impl Iterator<Item = &'a str>) -> usize {
    labels.map(str::len).fold(header.len(), usize::max)
}

impl Snapshot {
    /// Captures the current registry state.
    pub fn capture() -> Self {
        Snapshot {
            quant: quant_snapshots(),
            counters: counter_snapshots(),
            latency: latency_snapshots(),
            calibration: calibration_records(),
            dropped_events: crate::sink::dropped_events(),
        }
    }

    /// Mean absolute relative error of the perf-model calibration
    /// records, or `None` when there are none.
    pub fn calibration_mean_abs_err(&self) -> Option<f64> {
        if self.calibration.is_empty() {
            return None;
        }
        let sum: f64 = self.calibration.iter().map(|r| r.rel_err().abs()).sum();
        Some(sum / self.calibration.len() as f64)
    }

    /// Renders the summary table printed at end of run. Every label
    /// column is sized to its longest key, so nothing is truncated
    /// or misaligned regardless of how long counter names get.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== telemetry summary ===");

        if !self.quant.is_empty() {
            let w = label_width("quantizer", self.quant.iter().map(|q| q.label.as_str()));
            let _ = writeln!(out, "\n-- quantizer numerics --");
            let _ = write!(out, "{:<w$}", "quantizer");
            for cat in QuantCat::ALL {
                let _ = write!(out, " {:>15}", cat.name());
            }
            let _ = writeln!(out);
            for q in &self.quant {
                let _ = write!(out, "{:<w$}", q.label);
                for cat in QuantCat::ALL {
                    let _ = write!(out, " {:>15}", q[cat]);
                }
                let _ = writeln!(out);
            }
        }

        if !self.latency.is_empty() {
            let w = label_width("span", self.latency.iter().map(|r| r.name.as_str()));
            let _ = writeln!(out, "\n-- latency --");
            let _ = writeln!(
                out,
                "{:<w$} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "span", "count", "total_ms", "mean_us", "max_us", "MB"
            );
            for r in &self.latency {
                let _ = writeln!(
                    out,
                    "{:<w$} {:>8} {:>12.3} {:>12.2} {:>12.2} {:>12.3}",
                    r.name,
                    r.count,
                    r.sum_ns as f64 / 1e6,
                    r.sum_ns as f64 / r.count.max(1) as f64 / 1e3,
                    r.max_ns as f64 / 1e3,
                    r.bytes as f64 / 1e6,
                );
            }
        }

        if !self.counters.is_empty() {
            let w = label_width("counter", self.counters.iter().map(|(n, _)| n.as_str()));
            let _ = writeln!(out, "\n-- counters --");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<w$} {v:>12}");
            }
        }

        if !self.calibration.is_empty() {
            let w = label_width("label", self.calibration.iter().map(|r| r.label.as_str()));
            let cw = label_width(
                "context",
                self.calibration.iter().map(|r| r.context.as_str()),
            );
            let _ = writeln!(out, "\n-- perf-model calibration --");
            let _ = writeln!(
                out,
                "{:<cw$} {:<w$} {:>13} {:>13} {:>9}",
                "context", "label", "predicted_s", "measured_s", "rel_err"
            );
            for r in &self.calibration {
                let _ = writeln!(
                    out,
                    "{:<cw$} {:<w$} {:>13.6e} {:>13.6e} {:>+8.1}%",
                    r.context,
                    r.label,
                    r.predicted_s,
                    r.measured_s,
                    100.0 * r.rel_err(),
                );
            }
            if let Some(mae) = self.calibration_mean_abs_err() {
                let _ = writeln!(
                    out,
                    "mean |rel_err| over {} records: {:.1}%",
                    self.calibration.len(),
                    100.0 * mae
                );
            }
        }

        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "\nwarning: {} events dropped past the in-memory buffer cap",
                self.dropped_events
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_counter_names_align_instead_of_truncating() {
        let snap = Snapshot {
            counters: vec![
                ("short".into(), 1),
                (
                    "a.very.long.counter.name.that.used.to.overflow.the.fixed.column".into(),
                    2,
                ),
            ],
            ..Snapshot::default()
        };
        let table = snap.render_table();
        let lines: Vec<&str> = table
            .lines()
            .filter(|l| l.contains("short") || l.contains("a.very.long"))
            .collect();
        assert_eq!(lines.len(), 2);
        // Both value columns end at the same character position.
        assert_eq!(lines[0].len(), lines[1].len());
        assert!(lines[0].contains("short"));
        assert!(table.contains("a.very.long.counter.name.that.used.to.overflow.the.fixed.column"));
    }

    #[test]
    fn latency_section_renders_exact_rows() {
        let snap = Snapshot {
            latency: vec![LatencySnapshot {
                name: "gemm:cpu".into(),
                count: 10,
                sum_ns: 1_000_000,
                max_ns: 200_000,
                bytes: 2_500_000,
            }],
            ..Snapshot::default()
        };
        let table = snap.render_table();
        assert!(table.contains("-- latency --"));
        assert_eq!(table.matches("gemm:cpu").count(), 1);
        let header = table.lines().find(|l| l.starts_with("span")).unwrap();
        let columns: Vec<&str> = header.split_whitespace().collect();
        assert_eq!(
            columns,
            ["span", "count", "total_ms", "mean_us", "max_us", "MB"]
        );
        let row = table.lines().find(|l| l.starts_with("gemm:cpu")).unwrap();
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(
            cells,
            ["gemm:cpu", "10", "1.000", "100.00", "200.00", "2.500"]
        );
    }
}
