//! Metric names, units, and the run report.
//!
//! The tables here are the single list of what a run prints;
//! `BENCHMARK.json` carries the same names (a test pins the two
//! together) plus direction and bound for the end-to-end ones.

use crate::host::HostFacts;
use mpt_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`: printed by `--trace 0` runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: printed by `--trace 1` runs. A
/// metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("formats.quantize_ms_per_unit", "ms"),
    ("formats.e5m2_rn_melem_per_s", "Melem/s"),
    ("formats.e6m5_sr_melem_per_s", "Melem/s"),
    ("formats.fxp44_rn_melem_per_s", "Melem/s"),
    ("arith.gemm_ms_per_unit", "ms"),
    ("arith.gemm_calls_per_unit", "count"),
    ("arith.macs_per_unit", "count"),
    ("arith.kernel_ms_per_unit", "ms"),
    ("arith.kernel_mmac_per_s", "MMAC/s"),
    ("arith.generic_mmac_per_s", "MMAC/s"),
    ("arith.headline_t1_ms", "ms"),
    ("arith.headline_t2_ms", "ms"),
    ("arith.t2_speedup_x", "x"),
    ("tensor.im2col_ms_per_unit", "ms"),
    ("tensor.col2im_ms_per_unit", "ms"),
    ("nn.fwd_ms_per_unit", "ms"),
    ("nn.bwd_ms_per_unit", "ms"),
    ("nn.update_ms_per_unit", "ms"),
    ("nn.self_ms_per_unit", "ms"),
    ("nn.fp32_unit_ms", "ms"),
    ("nn.emu_overhead_x", "x"),
    ("data.batch_ms_per_unit", "ms"),
    ("models.build_ms", "ms"),
    ("models.param_count", "count"),
    ("core.step_boundary_ms_per_unit", "ms"),
    ("core.eval_ms_per_sample", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.matching_ms", "ms"),
    ("fpga.gemm_ms_per_unit", "ms"),
    ("fpga.sim_compute_ms_per_unit", "ms"),
    ("fpga.host_ns_per_sim_mac", "ns"),
    ("fpga.sim_slowdown_x", "x"),
    ("fpga.pack_ms_per_unit", "ms"),
    ("fpga.unpack_ms_per_unit", "ms"),
    ("fpga.cache_lookup_ms_per_unit", "ms"),
    ("fpga.cache_hit_ratio", "ratio"),
    ("fpga.packs_per_unit", "count"),
    ("fpga.bytes_packed_per_unit", "bytes"),
    ("fpga.eager_unit_ms", "ms"),
    ("fpga.pipelined_vs_eager_x", "x"),
    ("fpga.stage_busy_share.compute", "ratio"),
    ("fpga.sim_hw_us_per_unit", "us"),
    ("fpga.sim_hw_eager_us_per_unit", "us"),
    ("fpga.overlap_gain_x", "x"),
    ("fpga.timing_only_us_per_gemm", "us"),
    ("fpga.model_error_pct", "%"),
    ("fpga.fallbacks", "count"),
    ("faults.unarmed_overhead_pct", "%"),
    ("faults.armed_retries", "count"),
    ("faults.armed_degraded", "count"),
    ("serving.req_ms_p99", "ms"),
    ("serving.inference_ms_p50", "ms"),
    ("serving.training_ms_p50", "ms"),
    ("serving.direct_launch_ms_p50", "ms"),
    ("serving.queue_overhead_ms_p50", "ms"),
    ("serving.queue_depth_p95", "count"),
    ("serving.coalesced_share", "ratio"),
    ("serving.rejected", "count"),
    ("serving.deadline_exceeded", "count"),
    ("serving.open_req_ms_p50", "ms"),
    ("serving.open_req_ms_p90", "ms"),
    ("serving.open_generator_lag_ms_p99", "ms"),
    ("telemetry.bench_trace_overhead_pct", "%"),
    ("telemetry.enabled_overhead_pct", "%"),
    ("telemetry.spans_recorded", "count"),
    ("budget.unit_ms_traced", "ms"),
    ("budget.unaccounted_pct", "%"),
    ("budget.units_traced", "count"),
];

/// A fact about a run: not a metric, but `compare` reads it.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// A count or identifier that must repeat exactly.
    U64(u64),
    /// A measured or derived number.
    F64(f64),
    /// A label or digest.
    Str(String),
    /// A yes/no observation.
    Bool(bool),
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--trace 1`.
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Timed units attempted.
    pub attempted: u64,
    /// Timed units that failed.
    pub failed: u64,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts by name.
    pub facts: BTreeMap<String, Fact>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            facts: BTreeMap::new(),
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a fact.
    pub fn fact(&mut self, name: &str, value: Fact) {
        self.facts.insert(name.to_string(), value);
    }

    /// Records the host facts.
    pub fn host(&mut self, h: &HostFacts) {
        self.fact("host_cores", Fact::U64(h.host_cores as u64));
        self.fact("pinned", Fact::Bool(h.pinned));
        self.fact("threads", Fact::U64(h.threads as u64));
        self.fact("simd_tier", Fact::Str(h.simd_tier.to_string()));
        let cpus: Vec<String> = h.cpus.iter().map(usize::to_string).collect();
        self.fact("cpus", Fact::Str(cpus.join(",")));
    }

    /// The metric table this run must fill.
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// `failed ÷ attempted`.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in self.table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(v)
            );
        }
        out.push('}');
        out
    }

    fn facts_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            match v {
                Fact::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                Fact::F64(x) => out.push_str(&num(*x)),
                Fact::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                Fact::Str(s) => {
                    out.push('"');
                    json::escape_into(&mut out, s);
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }

    /// The result line the PR driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full summary `compare` reads: the result plus workload,
    /// seed and facts. It claims nothing (`"claim": null`): this
    /// benchmark reports, a later change argues.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"fail_share\":{},\"facts\":{},\"metrics\":{},\"claim\":null}}",
            self.workload,
            self.seed,
            self.traced as u8,
            self.correct,
            self.attempted,
            self.failed,
            num(self.fail_share()),
            self.facts_json(),
            self.metrics_json()
        )
    }

    /// Human-readable listing: every metric by name with its unit.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} trace {}",
            self.workload, self.seed, self.traced as u8
        );
        for (name, unit) in self.table() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<40} {v:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>16.6} ratio ({} of {})",
            "fail_share",
            self.fail_share(),
            self.failed,
            self.attempted
        );
        out
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity,
/// which no metric should produce — they print as 0 with the run
/// marked incorrect by the caller's gates.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// One run as `compare` loads it back from a summary file.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedRun {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Traced run.
    pub traced: bool,
    /// All checks passed.
    pub correct: bool,
    /// Timed units.
    pub attempted: u64,
    /// Failed units.
    pub failed: u64,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
    /// Facts, as parsed JSON values.
    pub facts: BTreeMap<String, Value>,
}

impl LoadedRun {
    /// Parses a summary (the output of [`Report::summary_json`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text.trim())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let metrics = match field("metrics")? {
            Value::Object(m) => m
                .iter()
                .map(|(k, e)| {
                    e.get("value")
                        .and_then(Value::as_f64)
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| format!("metric `{k}` has no numeric value"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("`metrics` is not an object".into()),
        };
        let facts = match field("facts")? {
            Value::Object(m) => m.clone(),
            _ => return Err("`facts` is not an object".into()),
        };
        let as_bool = |k: &str| match field(k)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{k}` is not a boolean")),
        };
        let as_u64 = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not a whole number"))
        };
        Ok(LoadedRun {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: as_u64("seed")?,
            traced: as_u64("trace")? == 1,
            correct: as_bool("correct")?,
            attempted: as_u64("attempted")?,
            failed: as_u64("failed")?,
            metrics,
            facts,
        })
    }
}
