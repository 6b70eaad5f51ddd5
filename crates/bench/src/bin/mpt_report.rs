//! `mpt-report` — turns a telemetry JSONL log (plus the optional
//! `serve_chaos` report) into `RESULTS.md`, and renders the run's
//! Chrome trace from the same log.
//!
//! ```text
//! mpt-report --jsonl run.jsonl [--trace-out run.trace.json] \
//!            [--serving serve_chaos.json] [--out RESULTS.md]
//! mpt-report --validate-trace run.trace.json [--require-stage-tracks 4]
//! ```
//!
//! One event log is one run: a log whose `epoch` indices do not
//! strictly increase (two runs appended to one file) is refused with
//! a non-zero exit rather than rendered as a blend of both.
//!
//! `--trace-out` writes `mpt_telemetry::trace::render` of the log: its
//! `span` lines on `thread-<n>` tracks and its `fpga_launch` lines on
//! `fpga-pipeline/<stage>` tracks. A log with no span lines writes no
//! trace and says so in RESULTS.md.
//!
//! Optional inputs degrade gracefully: a `--serving` path that does
//! not exist (or does not parse) renders a "section skipped" note
//! instead of failing the run, and a log line that does not parse (a
//! run cut off mid-write) is skipped, so a partial log still produces
//! a RESULTS.md and a trace.
//!
//! The report generator is pure post-processing: it parses the event
//! stream with the telemetry crate's own zero-dependency JSON parser
//! and renders tables with [`TableWriter`], so the output matches the
//! experiment binaries' style. `--validate-trace` exits non-zero when
//! the trace is syntactically invalid, empty, or (with
//! `--require-stage-tracks N`) has fewer than N `fpga-pipeline/`
//! stage tracks.

use mpt_bench::{quantile_ns, TableWriter};
use mpt_telemetry::json::{self, Value};
use mpt_telemetry::QuantCat;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mpt-report --jsonl <events.jsonl> [--trace-out <trace.json>] \
         [--serving <serve_chaos.json>] [--out <RESULTS.md>]\n  \
         mpt-report --validate-trace <trace.json> [--require-stage-tracks <N>]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str).peekable();

    let mut jsonl = None;
    let mut trace_out = None;
    let mut serving = None;
    let mut out = "RESULTS.md".to_string();
    let mut validate = None;
    let mut require_tracks = 0usize;

    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            match it.next() {
                Some(v) => v.to_string(),
                None => {
                    eprintln!("{name} takes a value");
                    std::process::exit(2);
                }
            }
        };
        match flag {
            "--jsonl" => jsonl = Some(val("--jsonl")),
            "--trace-out" => trace_out = Some(val("--trace-out")),
            "--serving" => serving = Some(val("--serving")),
            "--out" => out = val("--out"),
            "--validate-trace" => validate = Some(val("--validate-trace")),
            "--require-stage-tracks" => {
                require_tracks = val("--require-stage-tracks").parse().unwrap_or_else(|_| {
                    eprintln!("--require-stage-tracks takes a number");
                    std::process::exit(2);
                })
            }
            _ => usage(),
        }
    }

    if let Some(path) = validate {
        return validate_trace(&path, require_tracks);
    }
    let Some(jsonl) = jsonl else { usage() };
    generate_report(&jsonl, trace_out.as_deref(), serving.as_deref(), &out)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------- validate

fn validate_trace(path: &str, require_tracks: usize) -> ExitCode {
    let doc = match read_json(path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trace invalid: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        eprintln!("trace invalid: {path}: no traceEvents array");
        return ExitCode::FAILURE;
    };
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .count();
    if complete == 0 {
        eprintln!("trace invalid: {path}: no complete (ph=X) events");
        return ExitCode::FAILURE;
    }
    let stage_tracks = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("M")
                && e.get("name").and_then(Value::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .is_some_and(|n| n.starts_with("fpga-pipeline/"))
        })
        .count();
    if stage_tracks < require_tracks {
        eprintln!(
            "trace invalid: {path}: {stage_tracks} fpga-pipeline stage tracks, \
             need {require_tracks}"
        );
        return ExitCode::FAILURE;
    }
    println!("trace ok: {complete} complete events, {stage_tracks} stage tracks");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------- report

/// Everything the report needs, folded out of one pass over the
/// event stream.
#[derive(Default)]
struct RunData {
    simd_tier: Option<String>,
    steps: u64,
    epochs: Vec<(u64, f64)>,
    /// Exact per-span durations (ns), keyed by span name.
    span_ns: BTreeMap<String, Vec<u64>>,
    /// `layer_health` rows keyed by (epoch, param).
    health: Vec<(u64, String, f64, f64)>,
    /// Cumulative `layer_quant` counters keyed by label, per epoch,
    /// in `QuantCat::ALL` order.
    quant: BTreeMap<String, BTreeMap<u64, [u64; 10]>>,
    /// Last `stage_utilization` event, if any.
    stage_util: Option<Value>,
    /// `loss_scale` events that moved the scale (`ok` ones do not).
    loss_scale_growths: u64,
    loss_scale_overflows: u64,
}

fn fold_events(text: &str) -> RunData {
    let mut data = RunData::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(ev) = json::parse(line) else { continue };
        match ev.get("type").and_then(Value::as_str) {
            Some("run_config") => {
                data.simd_tier = ev
                    .get("simd_tier")
                    .and_then(Value::as_str)
                    .map(String::from);
            }
            Some("step") => data.steps += 1,
            Some("epoch") => {
                if let (Some(e), Some(loss)) = (
                    ev.get("epoch").and_then(Value::as_u64),
                    ev.get("mean_loss").and_then(Value::as_f64),
                ) {
                    data.epochs.push((e, loss));
                }
            }
            Some("span") => {
                if let (Some(name), Some(ns)) = (
                    ev.get("name").and_then(Value::as_str),
                    ev.get("dur_ns").and_then(Value::as_u64),
                ) {
                    data.span_ns.entry(name.to_string()).or_default().push(ns);
                }
            }
            Some("layer_health") => {
                if let (Some(e), Some(p), Some(w), Some(g)) = (
                    ev.get("epoch").and_then(Value::as_u64),
                    ev.get("param").and_then(Value::as_str),
                    ev.get("weight_l2").and_then(Value::as_f64),
                    ev.get("grad_l2").and_then(Value::as_f64),
                ) {
                    data.health.push((e, p.to_string(), w, g));
                }
            }
            Some("layer_quant") => {
                if let (Some(e), Some(label)) = (
                    ev.get("epoch").and_then(Value::as_u64),
                    ev.get("label").and_then(Value::as_str),
                ) {
                    let count = |cat: QuantCat| ev.get(cat.name()).and_then(Value::as_u64);
                    data.quant
                        .entry(label.to_string())
                        .or_default()
                        .insert(e, QuantCat::ALL.map(|cat| count(cat).unwrap_or(0)));
                }
            }
            Some("stage_utilization") => data.stage_util = Some(ev),
            Some("loss_scale") => match ev.get("status").and_then(Value::as_str) {
                Some("growth") => data.loss_scale_growths += 1,
                Some("overflow") => data.loss_scale_overflows += 1,
                _ => {}
            },
            _ => {}
        }
    }
    data
}

fn us(ns: f64) -> String {
    format!("{:.1}", ns / 1e3)
}

fn generate_report(
    jsonl: &str,
    trace_out: Option<&str>,
    serving: Option<&str>,
    out: &str,
) -> ExitCode {
    let text = match std::fs::read_to_string(jsonl) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {jsonl}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let data = fold_events(&text);
    if let Some(w) = data.epochs.windows(2).find(|w| w[1].0 <= w[0].0) {
        eprintln!(
            "{jsonl}: epoch {} follows epoch {}: the log holds more than one run \
             (write one event log per run)",
            w[1].0, w[0].0
        );
        return ExitCode::FAILURE;
    }
    let mut md = String::new();
    md.push_str("# Run report\n\n");
    md.push_str("Generated by `mpt-report` from the telemetry event log.\n\n");

    // -- run config ------------------------------------------------
    md.push_str("## Run configuration\n\n");
    md.push_str(&format!("- event log: `{jsonl}`\n"));
    if let Some(tier) = &data.simd_tier {
        md.push_str(&format!("- SIMD tier: `{tier}`\n"));
    }
    md.push_str(&format!("- training steps observed: {}\n", data.steps));
    md.push_str(&format!(
        "- loss-scale adjustments: {} ({} growths, {} overflows)\n",
        data.loss_scale_growths + data.loss_scale_overflows,
        data.loss_scale_growths,
        data.loss_scale_overflows
    ));
    if let Some(t) = trace_out {
        if data.span_ns.is_empty() {
            md.push_str("- Chrome trace: section skipped (no span lines in the log)\n");
        } else if let Err(e) = std::fs::write(t, mpt_telemetry::trace::render(text.lines())) {
            eprintln!("cannot write {t}: {e}");
            return ExitCode::FAILURE;
        } else {
            md.push_str(&format!(
                "- Chrome trace: `{t}` (rendered from the event log; open in Perfetto)\n"
            ));
        }
    }
    if !data.epochs.is_empty() {
        md.push('\n');
        let mut t = TableWriter::new(vec!["epoch", "mean_loss"]);
        for (e, loss) in &data.epochs {
            t.row(vec![e.to_string(), format!("{loss:.4}")]);
        }
        md.push_str("```text\n");
        md.push_str(&t.render());
        md.push_str("```\n");
    }
    md.push('\n');

    // -- latency percentiles --------------------------------------
    md.push_str("## Latency percentiles (exact, from the event log)\n\n");
    if data.span_ns.is_empty() {
        md.push_str("No span events in the log (telemetry disabled?).\n\n");
    } else {
        let mut t = TableWriter::new(vec![
            "span", "count", "p50_us", "p90_us", "p99_us", "max_us",
        ]);
        for (name, durs) in &data.span_ns {
            let mut sorted = durs.clone();
            sorted.sort_unstable();
            t.row(vec![
                name.clone(),
                sorted.len().to_string(),
                us(quantile_ns(&sorted, 0.5)),
                us(quantile_ns(&sorted, 0.9)),
                us(quantile_ns(&sorted, 0.99)),
                us(*sorted.last().unwrap() as f64),
            ]);
        }
        md.push_str("```text\n");
        md.push_str(&t.render());
        md.push_str("```\n\n");
    }

    // -- per-layer numeric health ---------------------------------
    md.push_str("## Per-layer numeric health\n\n");
    if data.health.is_empty() && data.quant.is_empty() {
        md.push_str("No layer health events in the log.\n\n");
    } else {
        if let Some(last_epoch) = data.health.iter().map(|h| h.0).max() {
            md.push_str(&format!(
                "Weight/gradient L2 norms at epoch {last_epoch}:\n\n"
            ));
            let mut t = TableWriter::new(vec!["param", "weight_l2", "grad_l2"]);
            for (e, p, w, g) in &data.health {
                if *e == last_epoch {
                    t.row(vec![p.clone(), format!("{w:.4}"), format!("{g:.4}")]);
                }
            }
            md.push_str("```text\n");
            md.push_str(&t.render());
            md.push_str("```\n\n");
        }
        if !data.quant.is_empty() {
            md.push_str(
                "Final-epoch share of each rounding category per layer group, in % of \
                 `quantized` (differenced from the cumulative counters; `sr_up` and \
                 `sr_down` are the stochastic part of `rounded`, the other categories \
                 sum to 100):\n\n",
            );
            // `total` heads the list and is the `quantized` column;
            // every other category gets a share column.
            let shares = &QuantCat::ALL[1..];
            let mut header = vec!["layer group", "quantized"];
            header.extend(shares.iter().map(|cat| cat.name()));
            let mut t = TableWriter::new(header);
            for (label, per_epoch) in &data.quant {
                let mut last_two = per_epoch.values().rev();
                let Some(cur) = last_two.next() else { continue };
                let prev = last_two.next().unwrap_or(&[0; 10]);
                let delta = |cat: QuantCat| cur[cat as usize].saturating_sub(prev[cat as usize]);
                let total = delta(QuantCat::Total);
                if total == 0 {
                    continue;
                }
                let mut row = vec![label.clone(), total.to_string()];
                row.extend(
                    shares
                        .iter()
                        .map(|&cat| format!("{:.2}", 100.0 * delta(cat) as f64 / total as f64)),
                );
                t.row(row);
            }
            md.push_str("```text\n");
            md.push_str(&t.render());
            md.push_str("```\n\n");
        }
    }

    // -- pipeline stage utilization -------------------------------
    md.push_str("## FPGA pipeline stage utilization\n\n");
    if let Some(ev) = &data.stage_util {
        let wall = ev
            .get("pipelined_elapsed_s")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let eager = ev
            .get("eager_elapsed_s")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        md.push_str(&format!(
            "Modeled pipelined wall {:.3} ms vs eager {:.3} ms ({:.2}x overlap).\n\n",
            wall * 1e3,
            eager * 1e3,
            if wall > 0.0 { eager / wall } else { 0.0 }
        ));
        let mut t = TableWriter::new(vec!["stage", "busy_ms", "utilization"]);
        for stage in ["pack", "transfer", "compute", "unpack"] {
            let busy = ev
                .get(&format!("busy_{stage}_s"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let util = ev
                .get(&format!("util_{stage}"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            t.row(vec![
                stage.to_string(),
                format!("{:.3}", busy * 1e3),
                format!("{:.1}%", util * 100.0),
            ]);
        }
        md.push_str("```text\n");
        md.push_str(&t.render());
        md.push_str("```\n\n");
    } else {
        md.push_str("No stage_utilization events (run used the CPU backend?).\n\n");
    }

    // -- serve_chaos report ---------------------------------------
    if let Some(serving_path) = serving {
        md.push_str("## Serving fault soak (`serve_chaos`)\n\n");
        match read_json(serving_path) {
            Ok(s) => {
                let f = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                let mut t = TableWriter::new(vec!["metric", "value"]);
                t.row(vec![
                    "clients x requests".into(),
                    format!("{} x {}", f("clients"), f("requests_per_client")),
                ]);
                t.row(vec![
                    "completed".into(),
                    format!("{}", f("serve_completed")),
                ]);
                t.row(vec![
                    "rejected (admission)".into(),
                    format!("{}", f("serve_rejected")),
                ]);
                t.row(vec![
                    "degraded to CPU".into(),
                    format!("{}", f("serve_degraded")),
                ]);
                t.row(vec![
                    "deadline exceeded".into(),
                    format!("{}", f("serve_deadline_exceeded")),
                ]);
                t.row(vec![
                    "coalesced".into(),
                    format!("{}", f("serve_coalesced")),
                ]);
                t.row(vec![
                    "corrupted responses".into(),
                    format!("{}", f("serve_corrupted")),
                ]);
                t.row(vec![
                    "breaker trips / recoveries".into(),
                    format!("{} / {}", f("breaker_trips"), f("breaker_recoveries")),
                ]);
                t.row(vec![
                    "queue high-water".into(),
                    format!("{}", f("queue_high_water")),
                ]);
                t.row(vec![
                    "training p50/p99 us".into(),
                    format!("{:.1} / {:.1}", f("training_p50_us"), f("training_p99_us")),
                ]);
                t.row(vec![
                    "inference p50/p99 us".into(),
                    format!(
                        "{:.1} / {:.1}",
                        f("inference_p50_us"),
                        f("inference_p99_us")
                    ),
                ]);
                t.row(vec![
                    "throughput req/s".into(),
                    format!("{:.0}", f("throughput_rps")),
                ]);
                md.push_str("```text\n");
                md.push_str(&t.render());
                md.push_str("```\n\n");
            }
            Err(e) => md.push_str(&format!(
                "Section skipped: could not read `{serving_path}` ({e}).\n\n"
            )),
        }
    }

    match std::fs::write(out, &md) {
        Ok(()) => {
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_ns_interpolates() {
        let sorted = [0, 100];
        assert_eq!(quantile_ns(&sorted, 0.0), 0.0);
        assert_eq!(quantile_ns(&sorted, 0.5), 50.0);
        assert_eq!(quantile_ns(&sorted, 1.0), 100.0);
        assert_eq!(quantile_ns(&[], 0.5), 0.0);
    }

    #[test]
    fn fold_events_extracts_sections() {
        let log = concat!(
            "{\"type\":\"run_config\",\"simd_tier\":\"avx2\"}\n",
            "{\"type\":\"step\",\"loss\":1.0}\n",
            "{\"type\":\"span\",\"name\":\"gemm\",\"id\":1,\"dur_ns\":500}\n",
            "{\"type\":\"epoch\",\"epoch\":0,\"mean_loss\":0.5}\n",
            "{\"type\":\"layer_health\",\"epoch\":0,\"param\":\"w\",\
             \"weight_l2\":1.5,\"grad_l2\":0.25}\n",
            "{\"type\":\"layer_quant\",\"epoch\":0,\"label\":\"layer:0:fc\",\
             \"total\":10,\"exact\":4,\"saturated\":1,\"flushed\":0,\
             \"sr_up\":2,\"sr_down\":3}\n",
            "not json at all\n",
        );
        let data = fold_events(log);
        assert_eq!(data.simd_tier.as_deref(), Some("avx2"));
        assert_eq!(data.steps, 1);
        assert_eq!(data.span_ns["gemm"], vec![500]);
        assert_eq!(data.epochs, vec![(0, 0.5)]);
        assert_eq!(data.health.len(), 1);
        assert_eq!(
            data.quant["layer:0:fc"][&0],
            [10, 4, 0, 1, 0, 0, 0, 2, 3, 0],
            "counts fold in QuantCat::ALL order, absent categories as 0"
        );
    }

    #[test]
    fn only_growths_and_overflows_are_loss_scale_adjustments() {
        let log = ["ok", "ok", "growth", "overflow"]
            .map(|status| format!("{{\"type\":\"loss_scale\",\"status\":\"{status}\"}}\n"))
            .concat();
        let data = fold_events(&log);
        assert_eq!(data.loss_scale_growths + data.loss_scale_overflows, 2);
        assert_eq!((data.loss_scale_growths, data.loss_scale_overflows), (1, 1));
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mpt_report_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn exit_ok(code: ExitCode) -> bool {
        format!("{code:?}") == format!("{:?}", ExitCode::SUCCESS)
    }

    /// A log without span lines has no timeline: no trace file is
    /// written, and a missing serving report only skips its section.
    #[test]
    fn report_skips_missing_trace_and_serving_sections() {
        let dir = scratch_dir("skip");
        let jsonl = dir.join("events.jsonl");
        std::fs::write(&jsonl, "{\"type\":\"step\",\"loss\":1.0}\n").unwrap();
        let out = dir.join("RESULTS.md");
        let trace = dir.join("unwritten.trace.json");
        let serving = dir.join("missing_serving.json");
        let code = generate_report(
            jsonl.to_str().unwrap(),
            Some(trace.to_str().unwrap()),
            Some(serving.to_str().unwrap()),
            out.to_str().unwrap(),
        );
        assert!(exit_ok(code), "missing optional inputs must not fail");
        let md = std::fs::read_to_string(&out).unwrap();
        assert!(md.contains("Chrome trace: section skipped"));
        assert!(!trace.exists(), "a log without spans writes no trace");
        assert_eq!(md.matches("Section skipped: could not read").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_holding_two_runs_is_refused() {
        let dir = scratch_dir("two_runs");
        let out = dir.join("RESULTS.md");
        let epoch = |e: u64| format!("{{\"type\":\"epoch\",\"epoch\":{e},\"mean_loss\":0.5}}\n");
        let report = |name: &str, epochs: &[u64]| {
            let jsonl = dir.join(name);
            std::fs::write(&jsonl, epochs.iter().map(|&e| epoch(e)).collect::<String>()).unwrap();
            generate_report(jsonl.to_str().unwrap(), None, None, out.to_str().unwrap())
        };
        assert!(exit_ok(report("one.jsonl", &[0, 1, 2])));
        // What `train_lenet_fp8` used to write: baseline + FP8 run.
        assert!(!exit_ok(report("two.jsonl", &[0, 1, 2, 0, 1, 2])));
        assert!(!exit_ok(report("repeat.jsonl", &[0, 1, 1])));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_traces_are_invalid() {
        let dir = scratch_dir("hostile_trace");
        let validate = |name: &str, text: &str, tracks: usize| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            exit_ok(validate_trace(path.to_str().unwrap(), tracks))
        };
        let complete = r#"{"ph":"X","name":"gemm","ts":0,"dur":1,"pid":1,"tid":1}"#;
        let track = |stage: &str| {
            format!(
                r#"{{"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{{"name":"fpga-pipeline/{stage}"}}}}"#
            )
        };
        let three = format!(
            r#"{{"traceEvents":[{complete},{},{},{}]}}"#,
            track("pack"),
            track("transfer"),
            track("compute")
        );
        assert!(
            validate("three.json", &three, 3),
            "the fixture itself is valid"
        );
        assert!(!validate("three_of_four.json", &three, 4));
        assert!(!validate("cut.json", &three[..three.len() / 2], 0));
        assert!(!validate("empty.json", r#"{"traceEvents":[]}"#, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_log_whose_last_line_is_cut_still_renders() {
        let dir = scratch_dir("cut_log");
        let jsonl = dir.join("events.jsonl");
        let out = dir.join("RESULTS.md");
        std::fs::write(
            &jsonl,
            concat!(
                "{\"type\":\"step\",\"loss\":1.0}\n",
                "{\"type\":\"span\",\"name\":\"gemm\",\"id\":1,\"dur_ns\":500}\n",
                "{\"type\":\"step\",\"loss\":0.9}\n",
                "{\"type\":\"span\",\"name\":\"gemm\",\"id\":2,\"dur_",
            ),
        )
        .unwrap();
        let code = generate_report(jsonl.to_str().unwrap(), None, None, out.to_str().unwrap());
        assert!(exit_ok(code));
        let md = std::fs::read_to_string(&out).unwrap();
        assert!(md.contains("training steps observed: 2"), "{md}");
        let row = md
            .lines()
            .find(|l| l.starts_with("gemm"))
            .expect("gemm row");
        assert_eq!(row.split_whitespace().nth(1), Some("1"), "{row}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every value a quantizer sees lands in exactly one category, so
    /// a layer's `layer_quant` categories (less the two SR direction
    /// counts, which split `rounded`) must sum to its `total` — all
    /// the way from the tally through the trainer's event into this
    /// report's fold. A `with_infinities` format is the case the
    /// hand-copied key lists dropped: ±inf pass through and an
    /// out-of-range finite value overflows to inf.
    #[test]
    fn layer_quant_categories_sum_to_total_through_the_fold() {
        use mpt_core::trainer::{train_cnn, TrainConfig};
        use mpt_formats::{FloatFormat, Quantizer, Rounding};

        mpt_telemetry::enable();
        mpt_telemetry::set_layer_scope(Some("99:inf-test"));
        let q = Quantizer::float(FloatFormat::e5m2().with_infinities(), Rounding::Nearest);
        let mut xs = [f32::INFINITY, f32::NEG_INFINITY, 1.0e30, 1.1, 1.0, f32::NAN];
        q.quantize_slice_f32(&mut xs, 0);
        mpt_telemetry::set_layer_scope(None);
        // One tiny epoch: the trainer emits every `layer:` group at
        // the epoch boundary.
        let data = mpt_data::synthetic_mnist(8, 1);
        let model = mpt_models::lenet5(mpt_nn::GemmPrecision::fp32(), 5);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            loss_scale: 1.0,
            seed: 0,
        };
        train_cnn(
            &model,
            &mut mpt_nn::Sgd::new(0.01, 0.0, 0.0),
            &data,
            &data,
            cfg,
        );
        mpt_telemetry::disable();

        let folded = fold_events(&mpt_telemetry::sink::buffered_events().join("\n"));
        let counts = folded.quant["layer:99:inf-test"][&0];
        let of = |cat: QuantCat| counts[cat as usize];
        assert_eq!(of(QuantCat::Total), 6);
        assert_eq!(of(QuantCat::InfPassthrough), 2);
        assert_eq!(of(QuantCat::OverflowInf), 1);
        let parts: u64 = QuantCat::ALL
            .into_iter()
            .filter(|c| !matches!(c, QuantCat::Total | QuantCat::SrUp | QuantCat::SrDown))
            .map(of)
            .sum();
        assert_eq!(parts, of(QuantCat::Total), "categories {counts:?}");
    }
}
