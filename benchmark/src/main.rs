//! `mpt-benchmark`: run a workload, or compare two run sets.
//!
//! ```text
//! mpt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! mpt-benchmark compare <dir-a> <dir-b> [--benchmark-json <path>]
//! ```

use mpt_benchmark::{compare, cpus_for, host, report::Fact, run, spans};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  mpt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  mpt-benchmark compare <dir-a> <dir-b> [--benchmark-json <path>]";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut out) = (0u64, 10u64, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let whole = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag} {v}`: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = whole(value)?,
            "--seconds" => seconds = whole(value)?.clamp(1, 60),
            "--trace" => traced = whole(value)? != 0,
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        traced,
        out,
    })
}

fn write_outputs(
    dir: &Path,
    args: &RunArgs,
    summary: &str,
    rec: Option<&spans::Recorder>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}.seed{}.trace{}",
        args.workload, args.seed, args.traced as u8
    );
    std::fs::write(dir.join(format!("{stem}.json")), summary)?;
    if let Some(rec) = rec {
        std::fs::write(
            dir.join(format!("{stem}.chrome-trace.json")),
            spans::chrome_trace(rec.spans()),
        )?;
    }
    Ok(())
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let cpus = cpus_for(&args.workload);
    host::pin_or_continue(cpus);
    let facts = host::HostFacts::observe(cpus);
    let (mut report, rec) = run(&args.workload, args.seed, args.seconds, args.traced)?;
    report.host(&facts);
    report.fact("seconds", Fact::U64(args.seconds));
    let summary = report.summary_json();
    if let Some(dir) = &args.out {
        write_outputs(dir, &args, &summary, rec.as_ref())
            .map_err(|e| format!("cannot write to {}: {e}", dir.display()))?;
    }
    print!("{}", report.listing());
    println!("{summary}");
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some(_) => run_main(&args),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mpt-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
