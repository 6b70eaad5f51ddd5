//! # mpt-data — synthetic datasets for the MPTorch-FPGA benchmarks
//!
//! The paper trains on MNIST, CIFAR10, Imagewoof and the Shakespeare
//! character corpus. None of those are redistributable inside this
//! repository, so this crate generates deterministic synthetic
//! stand-ins of the same shapes and of matched *difficulty tiers*:
//!
//! * [`synthetic_mnist`] — 1×28×28, 10 well-separated glyph classes
//!   (easy, like MNIST);
//! * [`synthetic_cifar10`] — 3×32×32, 10 textured classes with heavy
//!   noise (medium, like CIFAR10);
//! * [`synthetic_imagewoof`] — 3×64×64, 10 *fine-grained* classes
//!   sharing a common base pattern (hard, like distinguishing dog
//!   breeds);
//! * [`CharCorpus`] — a character stream with Zipf-like statistics
//!   and learnable bigram structure (the Shakespeare stand-in).
//!
//! What the paper's Table II / Fig. 6 compare is the *relative*
//! behaviour of arithmetic configurations on tasks of increasing
//! difficulty, which these generators preserve (see DESIGN.md,
//! "Substitutions").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod images;
pub mod loader;
pub mod text;

pub use images::{
    synthetic_cifar10, synthetic_cifar10_16, synthetic_imagewoof, synthetic_imagewoof16,
    synthetic_mnist, ImageDataset,
};
pub use loader::Batches;
pub use text::CharCorpus;
