//! `mpt-benchmark compare <dir-a> <dir-b>`: two run sets, one verdict
//! per workload × end-to-end metric.
//!
//! A run set is a directory of the summaries `--out` writes. Sets are
//! only comparable when they were measured the same way, so differing
//! host facts, seeds or unit counts are refused rather than compared.

use crate::report::LoadedRun;
use crate::stats;
use mpt_telemetry::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// Facts that must agree across every run of a workload in both sets.
const SAME_FACTS: [&str; 7] = [
    "host_cores",
    "pinned",
    "threads",
    "simd_tier",
    "seconds",
    "timed_units",
    "warmup_units",
];

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, for printing.
    pub unit: String,
    /// `"better": "lower"`.
    pub lower_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// Outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's and the spread is
    /// narrower than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The medians are within the bound but a set's interquartile
    /// range is wider than the bound, so "no change" is not shown —
    /// unless every run of B beats every run of A.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Median of set A.
    pub median_a: f64,
    /// Quartiles of set A.
    pub quartiles_a: [f64; 3],
    /// Median of set B.
    pub median_b: f64,
    /// Quartiles of set B.
    pub quartiles_b: [f64; 3],
    /// How much worse B's median is, as a share of A's (negative when
    /// B is better).
    pub worse_by: f64,
    /// The wider of the two sets' interquartile ranges, as a share of
    /// its median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares one metric's values in two sets (each at least two runs).
pub fn compare_metric(a: &[f64], b: &[f64], spec: &MetricSpec) -> Row {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let worse_by = if spec.lower_is_better {
        (median_b - median_a) / median_a
    } else {
        (median_a - median_b) / median_a
    };
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    let b_beats_every_a = if spec.lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    let verdict = if worse_by > spec.bound {
        Verdict::Worse
    } else if spread > spec.bound && !b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        quartiles_a: stats::quartiles(a),
        median_b,
        quartiles_b: stats::quartiles(b),
        worse_by,
        spread,
        verdict,
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Reads the end-to-end metric declarations out of `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn parse_specs(benchmark_json: &str) -> Result<Vec<MetricSpec>, String> {
    let v = json::parse(benchmark_json)?;
    let Some(Value::Array(items)) = v.get("end_to_end") else {
        return Err("BENCHMARK.json has no `end_to_end` list".into());
    };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("end_to_end entry without `{k}`"))
            };
            Ok(MetricSpec {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// Loads every untraced run summary in `dir`.
///
/// # Errors
///
/// Returns a message naming the unreadable directory or file.
pub fn load_set(dir: &Path) -> Result<Vec<LoadedRun>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".chrome-trace.json")
        })
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for p in paths {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        let run = LoadedRun::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        if !run.traced {
            runs.push(run);
        }
    }
    if runs.is_empty() {
        return Err(format!("{} holds no untraced run summaries", dir.display()));
    }
    Ok(runs)
}

/// The whole comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// `(workload, metric, row)` in workload then metric order.
    pub rows: Vec<(String, MetricSpec, Row)>,
    /// Exact-count facts that differ between the sets, as
    /// `workload seed fact: a -> b`.
    pub changed_facts: Vec<String>,
    /// Runs that failed a correctness check or a unit.
    pub broken_runs: Vec<String>,
}

impl Comparison {
    /// Any `worse` verdict or broken run. Changed exact facts are
    /// listed for the reader; whether they were meant to change is the
    /// change's own claim.
    pub fn failed(&self) -> bool {
        self.rows
            .iter()
            .any(|(_, _, r)| r.verdict == Verdict::Worse)
            || !self.broken_runs.is_empty()
    }

    /// A Markdown table of the rows, then the findings.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "| workload | metric | A median [q1, q3] | B median [q1, q3] | B worse by | spread | bound | verdict |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for (w, spec, r) in &self.rows {
            let _ = writeln!(
                out,
                "| {w} | {} ({}) | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:+.2}% | {:.2}% | {:.0}% | {} |",
                spec.name,
                spec.unit,
                r.median_a,
                r.quartiles_a[0],
                r.quartiles_a[2],
                r.median_b,
                r.quartiles_b[0],
                r.quartiles_b[2],
                100.0 * r.worse_by,
                100.0 * r.spread,
                100.0 * spec.bound,
                r.verdict.label()
            );
        }
        for f in &self.changed_facts {
            let _ = writeln!(out, "exact fact changed: {f}");
        }
        for b in &self.broken_runs {
            let _ = writeln!(out, "broken run: {b}");
        }
        out
    }
}

fn by_workload(runs: &[LoadedRun]) -> BTreeMap<&str, Vec<&LoadedRun>> {
    let mut map: BTreeMap<&str, Vec<&LoadedRun>> = BTreeMap::new();
    for r in runs {
        map.entry(r.workload.as_str()).or_default().push(r);
    }
    map
}

/// Compares two run sets under `specs`.
///
/// # Errors
///
/// Refuses sets that are not comparable: different workloads, seeds,
/// host facts or unit counts, or fewer than two runs of a workload.
pub fn compare_sets(
    a: &[LoadedRun],
    b: &[LoadedRun],
    specs: &[MetricSpec],
) -> Result<Comparison, String> {
    let (wa, wb) = (by_workload(a), by_workload(b));
    if wa.keys().ne(wb.keys()) {
        return Err(format!(
            "the sets ran different workloads: {:?} vs {:?}",
            wa.keys().collect::<Vec<_>>(),
            wb.keys().collect::<Vec<_>>()
        ));
    }
    let mut out = Comparison::default();
    for (w, runs_a) in &wa {
        let runs_b = &wb[w];
        if runs_a.len() < 2 || runs_b.len() < 2 {
            return Err(format!("{w}: a set needs at least two runs"));
        }
        let seeds = |rs: &[&LoadedRun]| {
            let mut s: Vec<u64> = rs.iter().map(|r| r.seed).collect();
            s.sort_unstable();
            s
        };
        if seeds(runs_a) != seeds(runs_b) {
            return Err(format!(
                "{w}: the sets ran different seeds: {:?} vs {:?}",
                seeds(runs_a),
                seeds(runs_b)
            ));
        }
        for fact in SAME_FACTS {
            let values: BTreeSet<String> = runs_a
                .iter()
                .chain(runs_b.iter())
                .map(|r| format!("{:?}", r.facts.get(fact)))
                .collect();
            if values.len() > 1 {
                return Err(format!(
                    "{w}: runs disagree on `{fact}` ({values:?}); not comparable"
                ));
            }
        }
        for r in runs_a.iter().chain(runs_b.iter()) {
            if !r.correct || r.failed > 0 {
                out.broken_runs.push(format!(
                    "{w} seed {}: correct={} failed={}/{}",
                    r.seed, r.correct, r.failed, r.attempted
                ));
            }
        }
        for ra in runs_a {
            for rb in runs_b.iter().filter(|rb| rb.seed == ra.seed) {
                for (k, va) in ra.facts.iter().filter(|(k, _)| k.starts_with("exact.")) {
                    let vb = rb.facts.get(k);
                    if vb != Some(va) {
                        let line = format!("{w} seed {} {k}: {va:?} -> {vb:?}", ra.seed);
                        if !out.changed_facts.contains(&line) {
                            out.changed_facts.push(line);
                        }
                    }
                }
            }
        }
        for spec in specs {
            let values = |rs: &[&LoadedRun]| -> Result<Vec<f64>, String> {
                rs.iter()
                    .map(|r| {
                        r.metrics.get(&spec.name).copied().ok_or_else(|| {
                            format!("{w} seed {}: no metric `{}`", r.seed, spec.name)
                        })
                    })
                    .collect()
            };
            let row = compare_metric(&values(runs_a)?, &values(runs_b)?, spec);
            out.rows.push((w.to_string(), spec.clone(), row));
        }
    }
    Ok(out)
}

/// Entry point of the `compare` subcommand.
///
/// # Errors
///
/// Returns a usage or refusal message; `Ok` carries the exit code
/// (non-zero on any `worse` verdict or broken run).
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut benchmark_json = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark-json" {
            benchmark_json = it.next().ok_or("`--benchmark-json` needs a path")?.clone();
        } else {
            dirs.push(arg.clone());
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return Err("compare takes exactly two run-set directories".into());
    };
    let specs = parse_specs(
        &std::fs::read_to_string(&benchmark_json)
            .map_err(|e| format!("cannot read {benchmark_json}: {e}"))?,
    )?;
    let a = load_set(Path::new(dir_a))?;
    let b = load_set(Path::new(dir_b))?;
    let cmp = compare_sets(&a, &b, &specs)?;
    print!("{}", cmp.render());
    Ok(if cmp.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
