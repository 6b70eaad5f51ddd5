//! # mpt-benchmark — the step/request benchmark
//!
//! One command runs a workload, checks its outputs, and prints every
//! metric by name with its unit. Each layer of the repository is
//! measured **from outside**: the benchmark times calls into the
//! crates' public functions and records its own spans; it changes and
//! instruments nothing inside them.
//!
//! See `benchmark/README.md` for the workloads, metrics and the noise
//! protocol, and `benchmark/NOISE.md` for the measured A/A spreads the
//! bounds in `BENCHMARK.json` come from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod train;

use report::Report;
use spans::Recorder;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["lenet_cpu", "lenet_fpga", "resnet_fxp_cpu", "serve_closed"];

/// CPUs a workload computes on: one, except serving, whose generator
/// and dispatcher threads get one each.
pub fn cpus_for(workload: &str) -> usize {
    if workload == "serve_closed" {
        2
    } else {
        1
    }
}

/// Runs one workload; returns its report and, for a traced run, the
/// spans it recorded.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Report, Option<Recorder>), String> {
    let spec = match workload {
        "lenet_cpu" => train::LENET_CPU,
        "lenet_fpga" => train::LENET_FPGA,
        "resnet_fxp_cpu" => train::RESNET_FXP_CPU,
        "serve_closed" => {
            return Ok(if traced {
                let (r, rec) = serve::run_traced(seed);
                (r, Some(rec))
            } else {
                (serve::run_untraced(seed, seconds), None)
            })
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    };
    Ok(if traced {
        let (r, rec) = traced::run_traced(spec, seed);
        (r, Some(rec))
    } else {
        (train::run_untraced(spec, seed, seconds), None)
    })
}
