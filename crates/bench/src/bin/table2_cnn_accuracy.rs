//! Regenerates **Table II**: test accuracy across multiplier ×
//! accumulator configurations for the CNN benchmarks.
//!
//! Substitutions versus the paper (documented in DESIGN.md):
//! synthetic stand-ins for MNIST/CIFAR10/Imagewoof of matched
//! difficulty tiers, scaled model presets, and scaled schedules. The
//! quantity being reproduced is the *ordering* of arithmetic
//! configurations per task, not absolute accuracy: SR dominates at
//! equal width, RN/RZ/RO at E6M5 collapse on the harder tasks, and
//! FXP4.4 only ever works on the easy task.
//!
//! Bit-accurate emulation is CPU-bound (the very overhead the paper's
//! FPGA path removes): its MAC nest runs at ~1.7 GMAC/s on one thread
//! of a 2-vCPU AVX-512 host, where full-depth ResNet-20 (3×32×32,
//! batch 32) trains at ~56 / ~127 / ~162 ms per sample in FP32 /
//! E6M5-RN / E6M5-SR. So cells run in **priority order** —
//! baseline and SR/RN rows first — under a wall-clock budget
//! (`MPT_TABLE2_MINUTES`, default 20). Cells past the budget print
//! `n/r` (not run); rerun with a higher budget or `MPT_SCALE=full`
//! on a larger machine for the complete sweep.
//!
//! ```text
//! MPT_SCALE=quick MPT_TABLE2_MINUTES=15 \
//!     cargo run --release -p mpt-bench --bin table2_cnn_accuracy
//! ```

use mpt_arith::{MacConfig, QGemmConfig};
use mpt_bench::{run_scale, table2_configs, TableWriter};
use mpt_core::trainer::{train_cnn, TrainConfig};
use mpt_data::{synthetic_cifar10_16, synthetic_imagewoof16, synthetic_mnist, ImageDataset};
use mpt_models::{lenet5, vgg, ResNet, ResNetKind, VggScale};
use mpt_nn::{GemmPrecision, Layer, Sgd};
use std::time::Instant;

struct Bench {
    name: &'static str,
    train: ImageDataset,
    test: ImageDataset,
    epochs: usize,
    lr: f32,
    weight_decay: f32,
    build: fn(GemmPrecision, u64) -> Box<dyn Layer>,
}

/// Row execution priority: baseline + the SR/RN/E5M10 contrast first,
/// then the remaining FP rows, then fixed point.
const PRIORITY: [usize; 10] = [5, 3, 2, 4, 0, 1, 7, 6, 8, 9];

fn main() {
    let scale = run_scale();
    let budget_min: f64 = std::env::var("MPT_TABLE2_MINUTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(budget_min * 60.0);
    println!(
        "Table II — test accuracy (%) across MAC configurations\n\
         ({scale:?} scale, {budget_min:.0}-minute budget; 'n/r' = cell not run)\n"
    );

    let benches = [
        Bench {
            name: "LeNet5",
            train: synthetic_mnist(scale.train_samples(512), 1),
            test: synthetic_mnist(256, 2),
            epochs: scale.epochs(3),
            lr: 0.02,
            weight_decay: 0.0,
            build: |p, s| Box::new(lenet5(p, s)),
        },
        Bench {
            name: "ResNet20",
            train: synthetic_cifar10_16(scale.train_samples(512), 1),
            test: synthetic_cifar10_16(192, 2),
            epochs: scale.epochs(8),
            lr: 0.03,
            weight_decay: 1e-4,
            build: |p, s| Box::new(ResNet::new(ResNetKind::ResNet20Scaled16, p, s)),
        },
        Bench {
            name: "VGG16",
            train: synthetic_cifar10_16(scale.train_samples(512), 1),
            test: synthetic_cifar10_16(192, 2),
            epochs: scale.epochs(8),
            lr: 0.005,
            weight_decay: 5e-4,
            build: |p, s| Box::new(vgg(VggScale::Scaled16, p, s)),
        },
        Bench {
            name: "ResNet50",
            train: synthetic_imagewoof16(scale.train_samples(512), 1),
            test: synthetic_imagewoof16(192, 2),
            epochs: scale.epochs(8),
            lr: 0.02,
            weight_decay: 1e-4,
            build: |p, s| Box::new(ResNet::new(ResNetKind::ResNet50Scaled16, p, s)),
        },
    ];

    let configs = table2_configs();
    let mut cells = vec![vec![String::from("n/r"); benches.len()]; configs.len()];
    // Cell order: the cheap LeNet5 column first (it carries the
    // FXP-only-works-on-the-easy-task story), then the heavy columns
    // in row-priority order.
    let mut order: Vec<(usize, usize)> = PRIORITY.iter().map(|&r| (r, 0)).collect();
    for &row in PRIORITY.iter() {
        for bi in 1..benches.len() {
            order.push((row, bi));
        }
    }
    for (row, bi) in order {
        if Instant::now() > deadline {
            eprintln!("  budget exhausted; remaining cells marked n/r");
            break;
        }
        let (mul_label, acc_label, mac) = &configs[row];
        let bench = &benches[bi];
        let acc = run_cell(bench, *mac);
        cells[row][bi] = format!("{acc:.2}");
        eprintln!("  [{mul_label} x {acc_label}] {}: {acc:.2}%", bench.name);
    }

    let mut t = TableWriter::new(vec![
        "Multiplier",
        "Accumulator",
        "LeNet5",
        "ResNet20",
        "VGG16",
        "ResNet50",
    ]);
    for (row, (mul_label, acc_label, _)) in configs.iter().enumerate() {
        let mut cols = vec![mul_label.to_string(), acc_label.to_string()];
        cols.extend(cells[row].iter().cloned());
        t.row(cols);
    }
    t.print();
    println!("\nDatasets: LeNet5 on synthetic-MNIST (easy tier), ResNet20/VGG16 on");
    println!("synthetic-CIFAR10 (medium tier), ResNet50 on synthetic-Imagewoof (hard,");
    println!("fine-grained tier). Chance accuracy is 10.00 — the value the paper");
    println!("reports for non-converging configurations.");
}

fn run_cell(bench: &Bench, mac: MacConfig) -> f32 {
    let prec = GemmPrecision::uniform(QGemmConfig::for_mac(mac)).with_seed(7);
    let model = (bench.build)(prec, 3);
    let mut opt = Sgd::new(bench.lr, 0.9, bench.weight_decay);
    let report = train_cnn(
        model.as_ref(),
        &mut opt,
        &bench.train,
        &bench.test,
        TrainConfig {
            epochs: bench.epochs,
            batch_size: 32,
            loss_scale: 256.0,
            seed: 11,
        },
    );
    report.test_accuracy
}
