//! Fault budget of a training step: once warm, a LeNet-5 step reuses
//! the memory the previous step freed instead of faulting fresh pages
//! in (the heap policy the tape applies, `mpt_arith::keep_heap_mapped`).
//!
//! This file holds a single test so that the process does nothing
//! else while it counts its minor page faults. Without the policy a
//! step takes about 3,900 faults; with it, a handful.
//!
//! ```text
//! cargo test --release -p mpt-core --test step_faults -- --nocapture
//! ```

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use mpt_arith::{CpuBackend, GemmBackend};
use mpt_data::{synthetic_mnist, Batches};
use mpt_models::lenet5;
use mpt_nn::{AdaptiveLossScaler, GemmPrecision, Graph, Layer, Optimizer, Sgd};
use std::rc::Rc;

const BATCH: usize = 32;
const WARMUP_STEPS: usize = 2;
const MEASURED_STEPS: usize = 4;
/// Minor faults a warm step may take.
const FAULTS_PER_STEP_MAX: f64 = 256.0;

/// Minor page faults of this process so far: field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name
/// (which may itself hold spaces).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    // `after_comm` starts at field 3 (state).
    after_comm
        .split_whitespace()
        .nth(10 - 3)
        .and_then(|f| f.parse().ok())
        .expect("field 10 is minflt")
}

#[test]
fn a_warm_lenet_step_takes_few_minor_faults() {
    let model = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(1), 1);
    let params = model.parameters();
    let mut opt = Sgd::new(0.02, 0.9, 0.0);
    let mut scaler = AdaptiveLossScaler::with_scale(256.0);
    let backend: Rc<dyn GemmBackend> = Rc::new(CpuBackend::with_threads(1));
    let data = synthetic_mnist((WARMUP_STEPS + MEASURED_STEPS) * BATCH, 1);
    let batches: Vec<_> = Batches::new(&data, BATCH, 1).collect();

    let mut start = 0;
    for (step, (images, labels)) in batches.into_iter().enumerate() {
        if step == WARMUP_STEPS {
            start = minor_faults();
        }
        for p in &params {
            p.zero_grad();
        }
        let mut g = Graph::with_backend(true, Rc::clone(&backend));
        let x = g.input(images);
        let logits = model.forward(&mut g, x);
        let loss = g.cross_entropy(logits, &labels);
        assert!(g.value(loss).item().is_finite());
        g.backward(loss, scaler.scale());
        if scaler.unscale_or_skip(&params) {
            opt.step(&params);
        }
        backend.step_boundary();
        drop(g);
    }
    let per_step = (minor_faults() - start) as f64 / MEASURED_STEPS as f64;
    println!("minor faults per warm LeNet-5 step (batch {BATCH}): {per_step:.1}");
    assert!(
        per_step <= FAULTS_PER_STEP_MAX,
        "{per_step:.1} minor faults per step, budget {FAULTS_PER_STEP_MAX}"
    );
}
