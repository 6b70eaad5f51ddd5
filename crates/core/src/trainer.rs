//! Training orchestration for the accuracy experiments
//! (Table II / Fig. 6).
//!
//! One loop implements the paper's recipe: mixed-precision forward
//! and backward passes through the tape, adaptive loss scaling with
//! an initial factor of 256, SGD with momentum (CNNs) or Adam
//! (transformer), and test-set evaluation.

use crate::checkpoint::{Checkpoint, CheckpointError};
use mpt_arith::{CpuBackend, GemmBackend};
use mpt_data::{Batches, CharCorpus, ImageDataset};
use mpt_models::NanoGpt;
use mpt_nn::{AdaptiveLossScaler, Graph, Layer, Optimizer};
use std::path::PathBuf;
use std::rc::Rc;

/// Hyper-parameters of one CNN training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial loss scale (the paper uses 256).
    pub loss_scale: f32,
    /// Shuffling/dropout seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 32,
            loss_scale: 256.0,
            seed: 0,
        }
    }
}

/// Checkpoint/resume knobs for [`train_cnn_resumable`].
///
/// The default (`TrainOptions::default()`) does no checkpoint I/O at
/// all — the loop is then identical to [`train_cnn_with_backend`].
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// Save a checkpoint every this many batches (`None` = never).
    pub checkpoint_every: Option<usize>,
    /// Where checkpoints are written/loaded.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from `checkpoint_path` before training. The checkpoint
    /// must match the run's [`TrainConfig`] and model shapes.
    pub resume: bool,
    /// Stop (without evaluating further epochs) after this many
    /// batches have been processed *by this invocation* — simulates a
    /// crash for resume testing.
    pub stop_after_batches: Option<usize>,
}

impl TrainOptions {
    /// Checkpoints to `path` every `every` batches.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint_path = Some(path.into());
        self.checkpoint_every = Some(every);
        self
    }

    /// Resumes from the configured checkpoint path.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Simulates a crash after `n` processed batches.
    pub fn stop_after(mut self, n: usize) -> Self {
        self.stop_after_batches = Some(n);
        self
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final test-set accuracy in percent.
    pub test_accuracy: f32,
    /// Loss-scale overflow events observed.
    pub overflows: u64,
    /// Snapshot of the telemetry registry taken at the end of the run,
    /// when telemetry was enabled (`None` otherwise). Render it with
    /// [`mpt_telemetry::Snapshot::render_table`].
    pub telemetry: Option<mpt_telemetry::Snapshot>,
}

/// Trains `model` on `train`, evaluates on `test`, and reports
/// per-epoch losses plus final test accuracy — the procedure behind
/// each Table II cell.
///
/// Gradient overflows (from low-precision arithmetic) skip the
/// optimizer step and back off the loss scale, exactly as in the
/// paper's adaptive-loss-scaling setup.
pub fn train_cnn(
    model: &dyn Layer,
    optimizer: &mut dyn Optimizer,
    train: &ImageDataset,
    test: &ImageDataset,
    cfg: TrainConfig,
) -> TrainReport {
    train_cnn_with_backend(
        model,
        optimizer,
        train,
        test,
        cfg,
        Rc::new(CpuBackend::new()),
    )
}

/// [`train_cnn`] with an explicit GEMM execution backend.
///
/// Every graph built by the loop routes its GEMMs through `backend`
/// (CPU emulation with a pinned thread count, or the FPGA simulator).
/// Because all backends are bit-identical to the emulation kernel,
/// the trained weights must not depend on this choice — the property
/// the conformance replay suite enforces.
pub fn train_cnn_with_backend(
    model: &dyn Layer,
    optimizer: &mut dyn Optimizer,
    train: &ImageDataset,
    test: &ImageDataset,
    cfg: TrainConfig,
    backend: Rc<dyn GemmBackend>,
) -> TrainReport {
    train_cnn_resumable(
        model,
        optimizer,
        train,
        test,
        cfg,
        backend,
        &TrainOptions::default(),
    )
    .expect("no checkpoint I/O configured, the loop cannot fail")
}

/// [`train_cnn_with_backend`] with checkpoint/resume support.
///
/// With [`TrainOptions::checkpoint_every`] set, a [`Checkpoint`] is
/// atomically written every N batches; with
/// [`TrainOptions::resume`], training restarts from the snapshot —
/// **bit-identically**: the resumed run consumes the exact same batch
/// sequence (shuffling is a pure function of `cfg.seed + epoch`) with
/// the exact same weights, optimizer moments and loss-scale state, so
/// its final weights match an uninterrupted run bit for bit (enforced
/// by the conformance suite against the golden replay digest).
///
/// # Errors
///
/// Returns [`CheckpointError`] if a resume checkpoint is missing,
/// corrupt, or does not match this run, or if a checkpoint write
/// fails. Fault-free training itself cannot fail.
#[allow(clippy::too_many_arguments)]
pub fn train_cnn_resumable(
    model: &dyn Layer,
    optimizer: &mut dyn Optimizer,
    train: &ImageDataset,
    test: &ImageDataset,
    cfg: TrainConfig,
    backend: Rc<dyn GemmBackend>,
    opts: &TrainOptions,
) -> Result<TrainReport, CheckpointError> {
    let params = model.parameters();
    let mut scaler = AdaptiveLossScaler::with_scale(cfg.loss_scale);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut start_epoch = 0usize;
    let mut resume_skip = 0u64;
    let mut resume_acc: Option<(f64, usize, usize)> = None;
    if opts.resume {
        let path = opts.checkpoint_path.as_ref().ok_or_else(|| {
            CheckpointError::Mismatch("resume requested without a checkpoint path".into())
        })?;
        let ck = Checkpoint::load(path)?;
        ck.validate(&params, &cfg)?;
        for (p, w) in params.iter().zip(&ck.weights) {
            *p.value_mut() = w.clone();
        }
        optimizer.restore_state(&params, &ck.optim);
        scaler.restore(ck.scaler);
        epoch_losses = ck.epoch_losses;
        start_epoch = ck.epoch as usize;
        resume_skip = ck.batch_in_epoch;
        resume_acc = Some((ck.loss_sum, ck.batches as usize, ck.samples as usize));
    }
    // One enabled() check per run; per-step/per-epoch event emission
    // only ever touches the telemetry sink, never the numerics.
    let telemetry = mpt_telemetry::enabled();
    if telemetry {
        // Record which kernel tier this run dispatches to (`MPT_SIMD`;
        // bit-transparent either way, but it explains throughput when
        // comparing run logs across hosts).
        mpt_telemetry::event(&[
            mpt_telemetry::json::Field::Str("type", "run_config"),
            mpt_telemetry::json::Field::Str("simd_tier", mpt_formats::simd::active_tier().name()),
        ]);
    }
    let mut processed = 0usize;
    'epochs: for epoch in start_epoch..cfg.epochs {
        let (mut loss_sum, mut batches, mut samples) = if epoch == start_epoch {
            resume_acc.take().unwrap_or((0.0, 0, 0))
        } else {
            (0.0, 0, 0)
        };
        let skip = if epoch == start_epoch { resume_skip } else { 0 };
        let mut batch_in_epoch = 0u64;
        let epoch_start = std::time::Instant::now();
        for (images, labels) in Batches::new(train, cfg.batch_size, cfg.seed + epoch as u64) {
            // Resume: the shuffle is deterministic in (seed, epoch),
            // so fast-forwarding over already-consumed batches lands
            // on the exact continuation of the interrupted stream.
            if batch_in_epoch < skip {
                batch_in_epoch += 1;
                continue;
            }
            for p in &params {
                p.zero_grad();
            }
            let step_span = mpt_telemetry::span("trainer:step");
            let batch_samples = labels.len();
            let mut g = Graph::with_backend(true, Rc::clone(&backend));
            let x = g.input(images);
            let logits = model.forward(&mut g, x);
            let loss = g.cross_entropy(logits, &labels);
            let loss_val = g.value(loss).item();
            if loss_val.is_finite() {
                loss_sum += loss_val as f64;
                batches += 1;
            }
            g.backward(loss, scaler.scale());
            let stepped = scaler.unscale_or_skip(&params);
            if stepped {
                optimizer.step(&params);
            }
            // The optimizer may have just rewritten the weights:
            // staged backends drain their launch queue here so no
            // queued latency straddles the update.
            backend.step_boundary();
            samples += batch_samples;
            batch_in_epoch += 1;
            processed += 1;
            if telemetry {
                mpt_telemetry::event(&[
                    mpt_telemetry::json::Field::Str("type", "step"),
                    mpt_telemetry::json::Field::U64("epoch", epoch as u64),
                    mpt_telemetry::json::Field::U64("batch", batches as u64),
                    mpt_telemetry::json::Field::F64("loss", loss_val as f64),
                    mpt_telemetry::json::Field::F64("scale", scaler.scale() as f64),
                    mpt_telemetry::json::Field::Bool("skipped", !stepped),
                ]);
            }
            drop(step_span);
            if let (Some(every), Some(path)) = (opts.checkpoint_every, &opts.checkpoint_path) {
                if every > 0 && processed.is_multiple_of(every) {
                    let ck = Checkpoint {
                        epoch: epoch as u64,
                        batch_in_epoch,
                        loss_sum,
                        batches: batches as u64,
                        samples: samples as u64,
                        epoch_losses: epoch_losses.clone(),
                        scaler: scaler.state(),
                        optim: optimizer.export_state(&params),
                        weights: params.iter().map(|p| p.value().clone()).collect(),
                        config: cfg,
                    };
                    ck.save(path)?;
                    if telemetry {
                        mpt_telemetry::event(&[
                            mpt_telemetry::json::Field::Str("type", "checkpoint"),
                            mpt_telemetry::json::Field::U64("epoch", epoch as u64),
                            mpt_telemetry::json::Field::U64("batch_in_epoch", batch_in_epoch),
                        ]);
                    }
                }
            }
            if opts.stop_after_batches.is_some_and(|n| processed >= n) {
                break 'epochs;
            }
        }
        let mean_loss = if batches > 0 {
            (loss_sum / batches as f64) as f32
        } else {
            f32::NAN
        };
        epoch_losses.push(mean_loss);
        if telemetry {
            let dur_s = epoch_start.elapsed().as_secs_f64();
            mpt_telemetry::event(&[
                mpt_telemetry::json::Field::Str("type", "epoch"),
                mpt_telemetry::json::Field::U64("epoch", epoch as u64),
                mpt_telemetry::json::Field::F64("mean_loss", mean_loss as f64),
                mpt_telemetry::json::Field::U64("samples", samples as u64),
                mpt_telemetry::json::Field::F64("dur_s", dur_s),
                mpt_telemetry::json::Field::F64(
                    "samples_per_s",
                    if dur_s > 0.0 {
                        samples as f64 / dur_s
                    } else {
                        0.0
                    },
                ),
            ]);
            emit_layer_health(epoch as u64, &params);
        }
    }
    Ok(TrainReport {
        epoch_losses,
        test_accuracy: evaluate_cnn_with_backend(model, test, cfg.batch_size, backend),
        overflows: scaler.overflow_count(),
        telemetry: telemetry.then(mpt_telemetry::Snapshot::capture),
    })
}

/// Emits per-layer numeric-health events at an epoch boundary: one
/// `layer_health` event per parameter (weight and gradient L2 norms —
/// the gradient is the last batch's, grads are zeroed per step) and
/// one `layer_quant` event per `layer:<idx>:<kind>` quantizer group
/// with the *cumulative* counts, so a report can difference
/// consecutive epochs into per-epoch saturation / underflow / SR
/// rates. Pure observation: reads weights and counters, mutates
/// nothing.
fn emit_layer_health(epoch: u64, params: &[mpt_nn::Parameter]) {
    let l2 = |xs: &[f32]| -> f64 {
        xs.iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    };
    for p in params {
        let weight_l2 = l2(p.value().data());
        let grad_l2 = l2(p.grad().data());
        mpt_telemetry::event(&[
            mpt_telemetry::json::Field::Str("type", "layer_health"),
            mpt_telemetry::json::Field::U64("epoch", epoch),
            mpt_telemetry::json::Field::Str("param", p.name()),
            mpt_telemetry::json::Field::F64("weight_l2", weight_l2),
            mpt_telemetry::json::Field::F64("grad_l2", grad_l2),
        ]);
    }
    for q in mpt_telemetry::quant_snapshots() {
        if !q.label.starts_with("layer:") {
            continue;
        }
        let mut fields = vec![
            mpt_telemetry::json::Field::Str("type", "layer_quant"),
            mpt_telemetry::json::Field::U64("epoch", epoch),
            mpt_telemetry::json::Field::Str("label", &q.label),
        ];
        fields.extend(
            mpt_telemetry::QuantCat::ALL
                .iter()
                .map(|&cat| mpt_telemetry::json::Field::U64(cat.name(), q[cat])),
        );
        mpt_telemetry::event(&fields);
    }
}

/// Test-set accuracy (percent) of a CNN classifier.
pub fn evaluate_cnn(model: &dyn Layer, test: &ImageDataset, batch_size: usize) -> f32 {
    evaluate_cnn_with_backend(model, test, batch_size, Rc::new(CpuBackend::new()))
}

/// [`evaluate_cnn`] with an explicit GEMM execution backend.
pub fn evaluate_cnn_with_backend(
    model: &dyn Layer,
    test: &ImageDataset,
    batch_size: usize,
    backend: Rc<dyn GemmBackend>,
) -> f32 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (images, labels) in Batches::new(test, batch_size, 0) {
        let mut g = Graph::with_backend(false, Rc::clone(&backend));
        let x = g.input(images);
        let logits = model.forward(&mut g, x);
        let preds = g.value(logits).argmax_rows().expect("logits are a matrix");
        correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        total += labels.len();
        // Each evaluation batch is a step for latency accounting too.
        backend.step_boundary();
    }
    if total == 0 {
        0.0
    } else {
        100.0 * correct as f32 / total as f32
    }
}

/// Trains a [`NanoGpt`] on a character corpus for `iters` iterations
/// of `batch` sequences each, recording validation loss every
/// `eval_every` iterations — the procedure behind Fig. 6.
///
/// Returns `(iteration, validation_loss)` pairs.
#[allow(clippy::too_many_arguments)]
pub fn train_gpt(
    model: &NanoGpt,
    optimizer: &mut dyn Optimizer,
    corpus: &CharCorpus,
    iters: usize,
    batch: usize,
    block_size: usize,
    eval_every: usize,
    seed: u64,
) -> Vec<(usize, f32)> {
    let params = model.parameters();
    let mut scaler = AdaptiveLossScaler::new();
    let mut curve = Vec::new();
    for it in 0..iters {
        for p in &params {
            p.zero_grad();
        }
        // Accumulate gradients over `batch` independent sequences.
        let mut finite = true;
        for s in 0..batch {
            let (x, y) =
                corpus.sample_block(block_size, true, seed.wrapping_add((it * batch + s) as u64));
            let mut g = Graph::new(true);
            let (_, loss) = model.loss(&mut g, &x, &y, it as u64);
            finite &= g.value(loss).item().is_finite();
            g.backward(loss, scaler.scale() / batch as f32);
        }
        if finite && scaler.unscale_or_skip(&params) {
            optimizer.step(&params);
        } else if !finite {
            for p in &params {
                p.zero_grad();
            }
        }
        if it % eval_every == 0 || it + 1 == iters {
            curve.push((it, validation_loss(model, corpus, block_size, 4, seed)));
        }
    }
    curve
}

/// Mean validation loss over `samples` held-out blocks.
pub fn validation_loss(
    model: &NanoGpt,
    corpus: &CharCorpus,
    block_size: usize,
    samples: usize,
    seed: u64,
) -> f32 {
    let mut sum = 0.0f64;
    for s in 0..samples {
        let (x, y) = corpus.sample_block(block_size, false, seed.wrapping_add(s as u64));
        let mut g = Graph::new(false);
        let (_, loss) = model.loss(&mut g, &x, &y, 0);
        sum += g.value(loss).item() as f64;
    }
    (sum / samples as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_data::synthetic_mnist;
    use mpt_models::{lenet5, NanoGptConfig};
    use mpt_nn::{Adam, GemmPrecision, Sgd};

    #[test]
    fn lenet_learns_synthetic_mnist_fp32() {
        let train = synthetic_mnist(256, 1);
        let test = synthetic_mnist(128, 2);
        let model = lenet5(GemmPrecision::fp32(), 3);
        let mut opt = Sgd::new(0.02, 0.9, 0.0);
        let report = train_cnn(
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
        );
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.epoch_losses[2] < report.epoch_losses[0],
            "loss did not fall: {:?}",
            report.epoch_losses
        );
        assert!(
            report.test_accuracy > 50.0,
            "accuracy {} on an easy task",
            report.test_accuracy
        );
    }

    #[test]
    fn quantized_training_also_learns() {
        // The paper's FP8xFP12-SR config must train the easy task too.
        let train = synthetic_mnist(192, 4);
        let test = synthetic_mnist(96, 5);
        let model = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(9), 6);
        let mut opt = Sgd::new(0.02, 0.9, 0.0);
        let report = train_cnn(
            &model,
            &mut opt,
            &train,
            &test,
            TrainConfig {
                epochs: 3,
                batch_size: 32,
                loss_scale: 256.0,
                seed: 1,
            },
        );
        assert!(
            report.test_accuracy > 40.0,
            "SR-quantized accuracy {}",
            report.test_accuracy
        );
    }

    #[test]
    fn crash_and_resume_is_bit_identical() {
        let train = synthetic_mnist(32, 21);
        let test = synthetic_mnist(16, 22);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            loss_scale: 256.0,
            seed: 5,
        };
        let weight_bits = |model: &dyn Layer| -> Vec<u32> {
            model
                .parameters()
                .iter()
                .flat_map(|p| {
                    p.value()
                        .data()
                        .iter()
                        .map(|f| f.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect()
        };

        // Reference: the uninterrupted run.
        let m1 = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(5), 7);
        let mut o1 = Sgd::new(0.05, 0.9, 0.0);
        let r1 = train_cnn(&m1, &mut o1, &train, &test, cfg);

        // Crashed run: checkpoint every 2 batches, die after 3 — the
        // third batch's progress is lost and must be recomputed.
        let path = std::env::temp_dir().join(format!("mpt_resume_{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::Checkpoint::previous_path(&path));
        let m2 = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(5), 7);
        let mut o2 = Sgd::new(0.05, 0.9, 0.0);
        train_cnn_resumable(
            &m2,
            &mut o2,
            &train,
            &test,
            cfg,
            Rc::new(CpuBackend::new()),
            &TrainOptions::default()
                .with_checkpoint(&path, 2)
                .stop_after(3),
        )
        .unwrap();
        assert_ne!(
            weight_bits(&m1),
            weight_bits(&m2),
            "the crashed run must be visibly incomplete"
        );

        // Resume from the mid-epoch checkpoint with a fresh model and
        // optimizer: final weights must match bit for bit.
        let m3 = lenet5(GemmPrecision::fp8_fp12_sr().with_seed(5), 7);
        let mut o3 = Sgd::new(0.05, 0.9, 0.0);
        let r3 = train_cnn_resumable(
            &m3,
            &mut o3,
            &train,
            &test,
            cfg,
            Rc::new(CpuBackend::new()),
            &TrainOptions::default().with_checkpoint(&path, 2).resuming(),
        )
        .unwrap();
        assert_eq!(
            weight_bits(&m1),
            weight_bits(&m3),
            "resumed run diverged from the uninterrupted run"
        );
        assert_eq!(r1.epoch_losses.len(), r3.epoch_losses.len());
        assert_eq!(
            r1.epoch_losses
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            r3.epoch_losses
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            "epoch-loss accumulators did not survive the checkpoint"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::Checkpoint::previous_path(&path));
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let train = synthetic_mnist(16, 31);
        let test = synthetic_mnist(8, 32);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            loss_scale: 256.0,
            seed: 1,
        };
        let path = std::env::temp_dir().join(format!("mpt_resume_bad_{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let model = lenet5(GemmPrecision::fp32(), 2);
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        train_cnn_resumable(
            &model,
            &mut opt,
            &train,
            &test,
            cfg,
            Rc::new(CpuBackend::new()),
            &TrainOptions::default()
                .with_checkpoint(&path, 1)
                .stop_after(1),
        )
        .unwrap();
        let mut other = cfg;
        other.seed = 9;
        let m2 = lenet5(GemmPrecision::fp32(), 2);
        let mut o2 = Sgd::new(0.05, 0.9, 0.0);
        let err = train_cnn_resumable(
            &m2,
            &mut o2,
            &train,
            &test,
            other,
            Rc::new(CpuBackend::new()),
            &TrainOptions::default().with_checkpoint(&path, 1).resuming(),
        )
        .unwrap_err();
        assert!(
            matches!(err, crate::checkpoint::CheckpointError::Mismatch(_)),
            "wrong error: {err}"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::checkpoint::Checkpoint::previous_path(&path));
    }

    #[test]
    fn evaluate_runs_in_inference_mode() {
        let test = synthetic_mnist(64, 7);
        let model = lenet5(GemmPrecision::fp32(), 8);
        let acc = evaluate_cnn(&model, &test, 16);
        assert!((0.0..=100.0).contains(&acc));
    }

    #[test]
    fn gpt_validation_curve_is_produced() {
        let corpus = CharCorpus::synthetic(3000, 0);
        let model = NanoGpt::new(
            NanoGptConfig {
                vocab: corpus.vocab_size(),
                layers: 1,
                heads: 2,
                embed: 16,
                block_size: 16,
            },
            0.0,
            GemmPrecision::fp32(),
            1,
        );
        let mut opt = Adam::new(3e-3);
        let curve = train_gpt(&model, &mut opt, &corpus, 10, 2, 16, 5, 0);
        assert!(curve.len() >= 2);
        assert!(curve.iter().all(|(_, l)| l.is_finite()));
        assert!(curve.last().unwrap().1 < curve[0].1 * 1.2);
    }
}
