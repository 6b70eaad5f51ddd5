//! End-to-end mixed-precision training: LeNet5 on the synthetic
//! MNIST stand-in with the paper's FP8×FP12-SR arithmetic and
//! adaptive loss scaling (initial factor 256).
//!
//! ```text
//! cargo run --release -p mpt-core --example train_lenet_fp8
//! ```
//!
//! Flags:
//!
//! * `--checkpoint-every <N>` — atomically save a resumable
//!   checkpoint every N batches (per-config file, default base path
//!   `lenet_fp8.ckpt`);
//! * `--checkpoint <path>` — override the checkpoint base path;
//! * `--resume` — resume each config's run from its checkpoint
//!   (bit-identical to never having stopped);
//! * `--backend cpu|fpga` — where quantized GEMMs execute
//!   (bit-identical everywhere; only timing accounting and telemetry
//!   differ).
//!
//! Set `MPT_TELEMETRY=1` (or point `MPT_TELEMETRY_JSONL` at a file)
//! to watch the FP8 run (the FP32 baseline trains unobserved, so the
//! event log and the summary describe one program): per-quantizer
//! saturation/rounding counters, per-layer forward/backward time,
//! per-GEMM spans, loss-scale events, and a perf-model calibration
//! record for the accelerator the offline matcher would pick for this
//! workload. The event log also holds the run's timeline: render it
//! as a Chrome trace (with per-stage FPGA pipeline tracks under
//! `--backend fpga`) with
//! `mpt-report --jsonl <log> --trace-out <trace.json>`.

use mpt_arith::{CpuBackend, GemmBackend, GemmShape};
use mpt_core::select_accelerator;
use mpt_core::trainer::{evaluate_cnn, train_cnn_resumable, TrainConfig, TrainOptions};
use mpt_data::synthetic_mnist;
use mpt_fpga::{Accelerator, FpgaBackend, SaConfig, SynthesisDb};
use mpt_models::lenet5;
use mpt_nn::{GemmPrecision, Sgd};
use std::rc::Rc;

struct Args {
    checkpoint_every: Option<usize>,
    checkpoint_path: String,
    resume: bool,
    backend: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        checkpoint_every: None,
        checkpoint_path: "lenet_fp8.ckpt".to_string(),
        resume: false,
        backend: "cpu".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--checkpoint-every" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--checkpoint-every takes a batch count");
                args.checkpoint_every = Some(n);
            }
            "--checkpoint" => {
                args.checkpoint_path = it.next().expect("--checkpoint takes a path");
            }
            "--resume" => args.resume = true,
            "--backend" => {
                args.backend = it.next().expect("--backend takes cpu|fpga");
            }
            other => {
                eprintln!(
                    "unknown flag {other}\n\
                     usage: train_lenet_fp8 [--checkpoint-every <N>] \
                     [--checkpoint <path>] [--resume] \
                     [--backend cpu|fpga]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Builds the GEMM backend named on the command line. `fpga`
/// simulates the `<8,8,4>` systolic array at 298 MHz — the config the
/// `lenet_fpga` benchmark workload trains on — with the default
/// operand cache.
fn make_backend(name: &str) -> Rc<dyn GemmBackend> {
    match name {
        "cpu" => Rc::new(CpuBackend::new()),
        "fpga" => {
            let cfg = SaConfig::new(8, 8, 4).expect("<8,8,4> is synthesizable");
            Rc::new(FpgaBackend::new(Accelerator::new(cfg, 298.0)).pipelined())
        }
        other => {
            eprintln!("unknown backend {other}: use cpu or fpga");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    let telemetry = mpt_telemetry::init_from_env();
    let train = synthetic_mnist(512, 1);
    let test = synthetic_mnist(256, 2);

    for (label, tag, prec) in [
        ("FP32 baseline (E8M23-RN)", "fp32", GemmPrecision::fp32()),
        (
            "FP8 x FP12-SR (paper config)",
            "fp8",
            GemmPrecision::fp8_fp12_sr().with_seed(3),
        ),
    ] {
        // One event log describes one run: telemetry watches the
        // paper-config run only, the baseline trains unobserved.
        if telemetry && tag == "fp8" {
            mpt_telemetry::enable();
        } else {
            mpt_telemetry::disable();
        }
        let model = lenet5(prec, 5);
        println!("== {label} ==");
        println!(
            "  untrained accuracy: {:.2}%",
            evaluate_cnn(&model, &test, 32)
        );
        // One checkpoint file per precision config.
        let mut opts = TrainOptions::default();
        if args.checkpoint_every.is_some() || args.resume {
            opts.checkpoint_path = Some(format!("{}.{tag}", args.checkpoint_path).into());
            opts.checkpoint_every = args.checkpoint_every;
            opts.resume = args.resume;
        }
        let mut opt = Sgd::new(0.02, 0.9, 0.0);
        let report = match train_cnn_resumable(
            &model,
            &mut opt,
            &train,
            &test,
            TrainConfig {
                epochs: 3,
                batch_size: 32,
                loss_scale: 256.0,
                seed: 0,
            },
            make_backend(&args.backend),
            &opts,
        ) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("checkpoint error: {e}");
                std::process::exit(1);
            }
        };
        for (e, loss) in report.epoch_losses.iter().enumerate() {
            println!("  epoch {e}: mean loss {loss:.4}");
        }
        println!(
            "  final accuracy: {:.2}%  (loss-scale overflows: {})\n",
            report.test_accuracy, report.overflows
        );
    }
    println!(
        "Both runs converge on the easy tier — the paper's Table II LeNet5 column,\n\
         where even aggressive formats reach near-baseline accuracy."
    );

    if telemetry {
        // Audit the performance model against the cycle-level timing
        // for the accelerator the matcher picks for LeNet5's two FC
        // GEMMs (batch 32) — the Fig. 7 predicted-vs-measured check.
        let workload = [GemmShape::new(32, 256, 120), GemmShape::new(32, 120, 84)];
        let chosen = select_accelerator(&workload, &SynthesisDb::u55(), 8);
        println!(
            "\nmatched accelerator {}@{:.1}MHz: estimated {:.3}ms, measured {:.3}ms",
            chosen.config,
            chosen.freq_mhz,
            chosen.estimated_s * 1e3,
            chosen.measured_s * 1e3
        );

        println!("\n{}", mpt_telemetry::Snapshot::capture().render_table());
        mpt_telemetry::sink::flush();
        if let Some(path) = mpt_telemetry::sink::jsonl_path() {
            println!("event log: {}", path.display());
        }
    }
}
