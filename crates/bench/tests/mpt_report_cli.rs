//! `mpt-report` through the real binary: a log cut off mid-write, an
//! empty log, a trace cut off mid-array and an unknown flag each end
//! with a clean exit code, never a panic, and a trace rendered from a
//! log passes `--validate-trace`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpt_report_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mpt_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpt-report"))
        .args(args)
        .output()
        .expect("mpt-report runs")
}

fn report(dir: &std::path::Path, log: &str) -> (Output, String) {
    let jsonl = dir.join("events.jsonl");
    let out = dir.join("RESULTS.md");
    std::fs::write(&jsonl, log).unwrap();
    let run = mpt_report(&[
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    let md = std::fs::read_to_string(&out).unwrap_or_default();
    (run, md)
}

#[test]
fn a_log_cut_mid_object_renders_its_complete_lines() {
    let dir = scratch_dir("cut_log");
    let log = concat!(
        "{\"type\":\"step\",\"loss\":1.0}\n",
        "{\"type\":\"epoch\",\"epoch\":0,\"mean_loss\":0.5}\n",
        "{\"type\":\"step\",\"loss\":0.9}\n",
        "{\"type\":\"epoch\",\"epoch\":1,\"mean_lo",
    );
    let (run, md) = report(&dir, log);
    assert!(run.status.success(), "{run:?}");
    assert!(md.contains("training steps observed: 2"), "{md}");
    assert!(
        md.contains("0.5000"),
        "the complete epoch row renders: {md}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_empty_log_renders_the_report() {
    let dir = scratch_dir("empty_log");
    let (run, md) = report(&dir, "");
    assert!(run.status.success(), "{run:?}");
    assert!(md.contains("training steps observed: 0"), "{md}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_trace_cut_mid_array_is_invalid() {
    let dir = scratch_dir("cut_trace");
    let trace = dir.join("run.trace.json");
    std::fs::write(
        &trace,
        "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"gemm\",\"ts\":0,\"dur\":1},{\"ph\":\"X\",\"na",
    )
    .unwrap();
    let run = mpt_report(&["--validate-trace", trace.to_str().unwrap()]);
    assert!(!run.status.success(), "{run:?}");
    assert!(
        String::from_utf8_lossy(&run.stderr).contains("trace invalid"),
        "{run:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let run = mpt_report(&["--jsonl", "events.jsonl", "--bench", "x"]);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
}

/// `--trace-out` renders the log's spans and launch lines into a trace
/// that `--validate-trace` accepts, byte for byte the same each time.
#[test]
fn a_trace_rendered_from_the_log_validates() {
    let dir = scratch_dir("trace_out");
    let jsonl = dir.join("events.jsonl");
    let mut log = String::from(
        "{\"type\":\"span\",\"name\":\"gemm:fpga\",\"id\":1,\"parent\":0,\"depth\":0,\
         \"thread\":0,\"ts_us\":2.5,\"dur_ns\":4000}\n",
    );
    let stages = ["pack", "transfer", "compute", "unpack"];
    for launch in 1..=2 {
        let fields: Vec<String> = stages
            .iter()
            .enumerate()
            .map(|(i, s)| format!("\"{s}_s\":1e-6,\"{s}_end_s\":{}e-6", launch + i))
            .collect();
        log += &format!(
            "{{\"type\":\"fpga_launch\",\"launch\":{launch},{}}}\n",
            fields.join(",")
        );
    }
    std::fs::write(&jsonl, log).unwrap();
    let render = |name: &str| {
        let trace = dir.join(name);
        let run = mpt_report(&[
            "--jsonl",
            jsonl.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--out",
            dir.join("RESULTS.md").to_str().unwrap(),
        ]);
        assert!(run.status.success(), "{run:?}");
        trace
    };
    let (first, second) = (render("a.trace.json"), render("b.trace.json"));
    let text = std::fs::read_to_string(&first).unwrap();
    assert_eq!(text, std::fs::read_to_string(&second).unwrap());
    assert!(text.contains("\"name\":\"thread-0\""), "{text}");
    let run = mpt_report(&[
        "--validate-trace",
        first.to_str().unwrap(),
        "--require-stage-tracks",
        "4",
    ]);
    assert!(run.status.success(), "{run:?}");
    assert!(
        String::from_utf8_lossy(&run.stdout).contains("9 complete events, 4 stage tracks"),
        "{run:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
