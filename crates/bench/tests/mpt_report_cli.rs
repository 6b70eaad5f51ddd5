//! `mpt-report` on hostile inputs, through the real binary: a log cut
//! off mid-write, an empty log, a trace cut off mid-array and an
//! unknown flag each end with a clean exit code, never a panic.

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
