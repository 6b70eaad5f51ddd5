//! Hostile batches: LeNet-5 (`fp8_fp12_sr`) trains one epoch on
//! synthetic MNIST whose every 7th pixel is NaN, then ±inf, then 3e38,
//! on the CPU emulation (two threads) and on a pipelined FPGA
//! simulator. Neither may panic, both must end on bit-identical
//! weights, the weights must stay finite, and under NaN the loss
//! scaler must skip every step (ReLU maps the NaN pixels to 0, so the
//! loss stays finite, but the gradients do not).

use mpt_arith::{CpuBackend, GemmBackend};
use mpt_core::{train_cnn_with_backend, TrainConfig};
use mpt_data::{synthetic_mnist, ImageDataset};
use mpt_fpga::{Accelerator, FpgaBackend, SaConfig};
use mpt_models::lenet5;
use mpt_nn::{GemmPrecision, Layer, Sgd};
use mpt_tensor::Tensor;
use std::rc::Rc;

const SAMPLES: usize = 8;
const BATCH: usize = 4;

/// Synthetic MNIST with pixel `i` replaced by `poison(i)` wherever
/// `i % 7 == 0`.
fn poisoned(poison: impl Fn(usize) -> f32) -> ImageDataset {
    let clean = synthetic_mnist(SAMPLES, 1);
    let mut data = clean.images().data().to_vec();
    for (i, v) in data.iter_mut().enumerate().step_by(7) {
        *v = poison(i);
    }
    let images = Tensor::from_vec(clean.images().shape().to_vec(), data).expect("same shape");
    ImageDataset::new(images, clean.labels().to_vec(), clean.classes())
}

/// Trains a fresh LeNet-5 for one epoch on `data` through `backend`;
/// returns the bits of every weight and the overflow count.
fn train(data: &ImageDataset, backend: Rc<dyn GemmBackend>) -> (Vec<u32>, u64) {
    let model = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(1), 1);
    let mut opt = Sgd::new(0.02, 0.9, 0.0);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        ..TrainConfig::default()
    };
    let report = train_cnn_with_backend(&model, &mut opt, data, data, cfg, backend);
    let mut bits = Vec::new();
    for p in model.parameters() {
        bits.extend(p.value().data().iter().map(|v| v.to_bits()));
    }
    (bits, report.overflows)
}

#[test]
fn hostile_pixels_train_identically_on_cpu_and_fpga() {
    let fpga = || {
        let sa = SaConfig::new(8, 8, 4).expect("valid array");
        Rc::new(FpgaBackend::new(Accelerator::new(sa, 298.0)).pipelined()) as Rc<dyn GemmBackend>
    };
    // (name, value, whether every other poisoned pixel takes `-value`)
    for (what, value, alternate) in [
        ("NaN", f32::NAN, false),
        ("±inf", f32::INFINITY, true),
        ("3e38", 3e38, false),
    ] {
        let data = poisoned(|i| {
            if alternate && i % 14 == 7 {
                -value
            } else {
                value
            }
        });
        let (cpu, cpu_overflows) = train(&data, Rc::new(CpuBackend::with_threads(2)));
        let (sim, sim_overflows) = train(&data, fpga());
        assert!(
            cpu == sim,
            "{what}: the CPU and FPGA backends trained different weights"
        );
        assert_eq!(
            cpu_overflows, sim_overflows,
            "{what}: overflow counts differ"
        );
        assert!(
            cpu.iter().all(|&b| f32::from_bits(b).is_finite()),
            "{what}: a weight is not finite"
        );
        if what == "NaN" {
            assert_eq!(
                cpu_overflows,
                (SAMPLES / BATCH) as u64,
                "NaN: a step was taken"
            );
        }
    }
}
