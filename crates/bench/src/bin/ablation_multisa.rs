//! Ablation: **multiple small systolic arrays vs one large array**.
//!
//! Section IV of the paper motivates the multicore design: "Large
//! tile sizes often result in low utilization for most DNNs, as the
//! input shapes are usually a fraction of the tile size. Moreover,
//! large SAs complicate routing and reduce the design frequency."
//! This ablation quantifies both effects: for each benchmark, the
//! estimated iteration latency and padding-waste of the matcher's
//! choice versus the single largest array (64×32, C=1).
//!
//! ```text
//! cargo run --release -p mpt-bench --bin ablation_multisa
//! ```

use mpt_bench::TableWriter;
use mpt_core::matching::{iteration_latency, select_accelerator};
use mpt_fpga::{best_mapping, SaConfig, SynthesisDb};
use mpt_models::ModelDesc;

fn main() {
    let db = SynthesisDb::u55();
    let big = SaConfig::new(64, 32, 1).expect("valid");
    let big_f = db.frequency(64, 32, 1).expect("synthesized");

    println!("Ablation — multicore (matched) vs single large 64x32 array\n");
    let mut t = TableWriter::new(vec![
        "Benchmark",
        "Matched cfg",
        "Matched (s)",
        "64x32x1 (s)",
        "Speedup",
        "Util matched (%)",
        "Util 64x32 (%)",
    ]);
    for model in ModelDesc::all_benchmarks() {
        let workload = model.training_gemms();
        let choice = select_accelerator(&workload, &db, 8);
        let big_lat = iteration_latency(&workload, big, big_f, 8).estimated_s;

        // MAC utilization = logical MACs / executed (padded) MACs.
        let util = |cfg: SaConfig, f: f64| -> f64 {
            let mut logical = 0usize;
            let mut executed = 0usize;
            for &s in &workload {
                logical += s.macs();
                executed += best_mapping(s, cfg, f, 8, 8).padded.core_macs() * cfg.c();
            }
            100.0 * logical as f64 / executed as f64
        };

        t.row(vec![
            model.name().into(),
            choice.config.to_string(),
            format!("{:.4}", choice.estimated_s),
            format!("{big_lat:.4}"),
            format!("{:.2}x", big_lat / choice.estimated_s),
            format!("{:.1}", util(choice.config, choice.freq_mhz)),
            format!("{:.1}", util(big, big_f)),
        ]);
    }
    t.print();
    println!(
        "\nThe 64x32 array pads every GEMM to 2048-wide column tiles and runs at\n\
         150 MHz; smaller multicore configurations keep utilization high and\n\
         clock faster — the design argument of paper Section IV."
    );
}
