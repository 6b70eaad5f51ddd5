//! Synthetic image classification datasets.
//!
//! Each class `c` owns a deterministic prototype pattern built from
//! class-specific spatial frequencies and phase offsets. A sample is
//! `signal · prototype + noise`, with per-sample random gain, shift
//! and Gaussian noise. The `signal`-to-`noise` ratio and the pairwise
//! prototype similarity set the task difficulty tier.

use mpt_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An in-memory labelled image dataset (NCHW samples, class ids).
#[derive(Debug, Clone)]
pub struct ImageDataset {
    images: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl ImageDataset {
    /// Wraps images and labels.
    ///
    /// # Panics
    ///
    /// Panics if the batch dimension and label count disagree.
    pub fn new(images: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(images.shape()[0], labels.len(), "one label per image");
        ImageDataset {
            images,
            labels,
            classes,
        }
    }

    /// All images as one `[n, c, h, w]` tensor.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// Class labels, one per image.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Copies samples `indices` into a fresh `[b, c, h, w]` batch.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let shape = self.images.shape();
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        let stride = c * h * w;
        let mut data = Vec::with_capacity(indices.len() * stride);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images.data()[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(vec![indices.len(), c, h, w], data).expect("shape"),
            labels,
        )
    }
}

/// Difficulty tier of a generated task.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Difficulty {
    /// Prototype amplitude relative to noise.
    signal: f32,
    /// Gaussian pixel-noise standard deviation.
    noise: f32,
    /// Fraction of each class prototype shared with a common base
    /// pattern (1.0 = classes nearly identical).
    shared: f32,
}

/// Easy tier — well-separated classes (MNIST-like).
const EASY: Difficulty = Difficulty {
    signal: 1.0,
    noise: 0.25,
    shared: 0.0,
};
/// Medium tier — textured classes under heavy noise (CIFAR-like).
const MEDIUM: Difficulty = Difficulty {
    signal: 0.85,
    noise: 0.45,
    shared: 0.30,
};
/// Hard tier — fine-grained classes sharing a base (Imagewoof-like).
const HARD: Difficulty = Difficulty {
    signal: 0.7,
    noise: 0.55,
    shared: 0.55,
};

/// Generates the MNIST stand-in: `n` samples of 1×28×28, 10 classes.
///
/// `seed` only controls *sampling* (which classes, gains, noise);
/// the class prototypes are fixed per dataset family, so train and
/// test splits drawn with different seeds share the same task.
pub fn synthetic_mnist(n: usize, seed: u64) -> ImageDataset {
    generate(n, 1, 28, 28, 10, EASY, 0x4D4E_4953, seed)
}

/// Generates the CIFAR10 stand-in: `n` samples of 3×32×32, 10 classes.
pub fn synthetic_cifar10(n: usize, seed: u64) -> ImageDataset {
    generate(n, 3, 32, 32, 10, MEDIUM, 0xC1FA_0010, seed)
}

/// Generates the Imagewoof stand-in: `n` samples of 3×64×64,
/// 10 fine-grained classes (the paper's Imagewoof images are larger;
/// 64×64 keeps the *fine-grained* character at tractable cost —
/// documented in DESIGN.md).
pub fn synthetic_imagewoof(n: usize, seed: u64) -> ImageDataset {
    generate(n, 3, 64, 64, 10, HARD, 0x1A6E_F00F, seed)
}

/// A 3×16×16 rendition of the CIFAR10 stand-in (same medium tier at
/// quarter resolution) for compute-budgeted accuracy sweeps on small
/// machines (Table II's heavy columns).
pub fn synthetic_cifar10_16(n: usize, seed: u64) -> ImageDataset {
    generate(n, 3, 16, 16, 10, MEDIUM, 0xC1FA_0010, seed)
}

/// A 3×16×16 rendition of the Imagewoof stand-in (hard tier at
/// quarter resolution); see [`synthetic_cifar10_16`].
pub fn synthetic_imagewoof16(n: usize, seed: u64) -> ImageDataset {
    generate(n, 3, 16, 16, 10, HARD, 0x1A6E_F00F, seed)
}

#[allow(clippy::too_many_arguments)] // internal synthetic-dataset helper
fn generate(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    classes: usize,
    diff: Difficulty,
    family: u64,
    seed: u64,
) -> ImageDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Deterministic per-class prototypes (keyed by the dataset
    // family, NOT the sample seed) plus a shared base pattern.
    let base = prototype(classes, c, h, w, family.wrapping_add(0xBA5E));
    let protos: Vec<Vec<f32>> = (0..classes)
        .map(|cls| {
            let own = prototype(cls, c, h, w, family.wrapping_add(cls as u64 * 7321));
            own.iter()
                .zip(&base)
                .map(|(&o, &b)| diff.shared * b + (1.0 - diff.shared) * o)
                .collect()
        })
        .collect();

    let stride = c * h * w;
    let mut data = Vec::with_capacity(n * stride);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let cls = rng.gen_range(0..classes);
        labels.push(cls);
        let gain = diff.signal * (0.8 + 0.4 * rng.gen::<f32>());
        for &p in &protos[cls] {
            let noise = diff.noise * gauss(&mut rng);
            data.push(gain * p + noise);
        }
    }
    ImageDataset::new(
        Tensor::from_vec(vec![n, c, h, w], data).expect("shape"),
        labels,
        classes,
    )
}

/// Deterministic band-limited pattern for one class: a sum of a few
/// class-keyed 2-D sinusoids, normalized to unit RMS.
fn prototype(cls: usize, c: usize, h: usize, w: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(cls as u64));
    let waves: Vec<(f32, f32, f32, f32)> = (0..4)
        .map(|_| {
            (
                rng.gen_range(1.0..4.0),                   // fy
                rng.gen_range(1.0..4.0),                   // fx
                rng.gen_range(0.0..std::f32::consts::TAU), // phase
                rng.gen_range(0.5..1.0),                   // amp
            )
        })
        .collect();
    let mut out = Vec::with_capacity(c * h * w);
    for ch in 0..c {
        let chf = ch as f32 * 0.7;
        for y in 0..h {
            for x in 0..w {
                let fy = y as f32 / h as f32;
                let fx = x as f32 / w as f32;
                let mut v = 0.0;
                for &(wy, wx, ph, amp) in &waves {
                    v += amp * (std::f32::consts::TAU * (wy * fy + wx * fx) + ph + chf).sin();
                }
                out.push(v);
            }
        }
    }
    let rms = (out.iter().map(|&v| v as f64 * v as f64).sum::<f64>() / out.len() as f64)
        .sqrt()
        .max(1e-9) as f32;
    for v in &mut out {
        *v /= rms;
    }
    out
}

fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen::<f32>().max(f32::MIN_POSITIVE);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper_datasets() {
        let m = synthetic_mnist(8, 1);
        assert_eq!(m.images().shape(), &[8, 1, 28, 28]);
        assert_eq!(m.classes(), 10);
        let c = synthetic_cifar10(4, 1);
        assert_eq!(c.images().shape(), &[4, 3, 32, 32]);
        let iw = synthetic_imagewoof(2, 1);
        assert_eq!(iw.images().shape(), &[2, 3, 64, 64]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthetic_mnist(6, 42);
        let b = synthetic_mnist(6, 42);
        assert_eq!(a.images(), b.images());
        assert_eq!(a.labels(), b.labels());
        let c = synthetic_mnist(6, 43);
        assert_ne!(a.images(), c.images());
    }

    #[test]
    fn labels_cover_classes() {
        let d = synthetic_mnist(500, 7);
        assert!(d.labels().iter().all(|&l| l < 10));
        let distinct: std::collections::HashSet<_> = d.labels().iter().collect();
        assert!(distinct.len() >= 9, "only {} classes drawn", distinct.len());
    }

    #[test]
    fn gather_extracts_requested_samples() {
        let d = synthetic_mnist(10, 3);
        let (batch, labels) = d.gather(&[2, 5, 2]);
        assert_eq!(batch.shape(), &[3, 1, 28, 28]);
        assert_eq!(labels[0], d.labels()[2]);
        assert_eq!(labels[1], d.labels()[5]);
        assert_eq!(batch.data()[..784], batch.data()[2 * 784..]);
    }

    #[test]
    fn class_prototypes_are_distinct() {
        let a = prototype(0, 1, 16, 16, 99);
        let b = prototype(1, 1, 16, 16, 99);
        let dot: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let corr = dot / a.len() as f64;
        assert!(corr.abs() < 0.5, "prototype correlation {corr}");
    }

    #[test]
    fn hard_tier_classes_are_more_similar_than_easy() {
        // Measure mean intra-pair prototype correlation through the
        // dataset means per class.
        let sim = |d: &ImageDataset| {
            let stride: usize = d.images().shape().iter().skip(1).product();
            let mut means = vec![vec![0.0f64; stride]; d.classes()];
            let mut counts = vec![0usize; d.classes()];
            for (i, &l) in d.labels().iter().enumerate() {
                counts[l] += 1;
                let row = &d.images().data()[i * stride..(i + 1) * stride];
                for (m, &v) in means[l].iter_mut().zip(row) {
                    *m += v as f64;
                }
            }
            for (m, &ct) in means.iter_mut().zip(&counts) {
                for v in m.iter_mut() {
                    *v /= ct.max(1) as f64;
                }
            }
            let norm = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>()).sqrt().max(1e-12);
            let mut corr = 0.0;
            let mut pairs = 0;
            for a in 0..d.classes() {
                for b in (a + 1)..d.classes() {
                    let dot: f64 = means[a].iter().zip(&means[b]).map(|(x, y)| x * y).sum();
                    corr += dot / (norm(&means[a]) * norm(&means[b]));
                    pairs += 1;
                }
            }
            corr / pairs as f64
        };
        let easy = sim(&synthetic_mnist(400, 5));
        let hard = sim(&generate(400, 1, 28, 28, 10, HARD, 0x4D4E_4953, 5));
        assert!(hard > easy + 0.2, "easy {easy} vs hard {hard}");
    }

    #[test]
    fn pixel_statistics_bounded() {
        let d = synthetic_cifar10(50, 9);
        assert!(d.images().all_finite());
        assert!(d.images().abs_max() < 10.0);
        assert!(d.images().mean().abs() < 0.2);
    }
}
