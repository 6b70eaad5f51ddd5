//! Model-specific accelerator selection: the paper's offline matching
//! flow (Section IV-B) end to end.
//!
//! Extracts the GEMM workload of one training iteration of a model,
//! brute-forces the pre-generated ⟨N, M, C⟩ configuration space with
//! per-GEMM transpose/partition mapping, and reports the chosen
//! configuration with its estimated and cycle-simulated latencies.
//!
//! ```text
//! cargo run --release -p mpt-core --example accelerator_design [model]
//! ```
//!
//! `model` is one of `lenet5`, `vgg16`, `resnet20`, `resnet50`,
//! `nanogpt` (default `resnet20`).

use mpt_core::matching::{select_accelerator, sweep_core_counts};
use mpt_fpga::{best_mapping, SynthesisDb};
use mpt_models::ModelDesc;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "resnet20".into());
    let model = match which.as_str() {
        "lenet5" => ModelDesc::lenet5(64),
        "vgg16" => ModelDesc::vgg16(128),
        "resnet20" => ModelDesc::resnet20(128),
        "resnet50" => ModelDesc::resnet50(16),
        "nanogpt" => ModelDesc::nanogpt(64),
        other => {
            eprintln!("unknown model '{other}', using resnet20");
            ModelDesc::resnet20(128)
        }
    };
    let workload = model.training_gemms();
    println!(
        "{}: {} GEMMs per training iteration, {:.2} GMACs\n",
        model.name(),
        workload.len(),
        model.total_macs() as f64 / 1e9
    );

    let db = SynthesisDb::u55();
    let choice = select_accelerator(&workload, &db, 8);
    println!(
        "selected configuration: {} @ {:.1} MHz",
        choice.config, choice.freq_mhz
    );
    println!("  estimated iteration latency: {:.4} s", choice.estimated_s);
    println!(
        "  measured (cycle model):      {:.4} s  (+{:.1}%)",
        choice.measured_s,
        100.0 * (choice.measured_s - choice.estimated_s) / choice.estimated_s
    );

    println!(
        "\ncore-count sweep on the chosen array ({}x{}):",
        choice.config.n(),
        choice.config.m()
    );
    for (c, f, lat) in sweep_core_counts(&workload, &db, choice.config.n(), choice.config.m(), 8) {
        let marker = if c == choice.config.c() {
            "  <= selected"
        } else {
            ""
        };
        println!("  C={c:<2} {f:>6.1} MHz  {lat:.4} s{marker}");
    }

    println!("\nmapping decisions for the first GEMMs of the iteration:");
    for shape in workload.iter().take(6) {
        let m = best_mapping(*shape, choice.config, choice.freq_mhz, 8, 8);
        // Never "transposed": transposing and partitioning B are the
        // same swap to this model (see `best_mapping`).
        println!(
            "  {:<22} -> partition {:?}, padded ({}, {}, {}), {:.1} us",
            shape.to_string(),
            m.partition,
            m.padded.n_comp,
            m.padded.k_mem,
            m.padded.m_comp,
            m.latency.total_s * 1e6
        );
    }
}
