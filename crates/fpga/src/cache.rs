//! Packed-operand cache: quantize reused operands once, and build
//! their packed HBM image only when somebody reads it.
//!
//! [`OperandCache`] keys each operand by its *content* (a word-wise
//! fingerprint of the raw `f32` carrier bits), its layout
//! `(rows, cols)` and the [`Quantizer`] that will consume it — format,
//! rounding mode and stochastic-rounding seed all change the quantized
//! carrier, so the quantizer is in the key by value.
//!
//! Content addressing makes invalidation automatic: an optimizer step
//! that updates a weight produces different carrier bits, which is a
//! different key, so the stale entry stops being referenced and ages
//! out of the byte-budget LRU. Stale reads are *impossible*, not just
//! improbable: a fingerprint hit is confirmed by comparing every
//! carrier bit of the stored input against the candidate (a colliding
//! fingerprint re-quantizes instead of returning wrong data —
//! enforced by the cache-invalidation proptests in `conformance`).
//!
//! The HBM image is **lazy**. Its size is a closed form of shape ×
//! bit width ([`HbmImage::packed_bytes`]) — all the pack and transfer
//! stages need for their modeled time and the LRU for its byte charge
//! — so `packs` / `bytes_packed` count *modeled* pack-stage work and
//! the words + CRC-32 are built by [`OperandCache::image_of`] alone,
//! which only a faulted HBM transfer and tests call
//! ([`CacheStats::images_built`]). That makes a miss one fingerprint
//! pass, one carrier copy and the quantization. It has to be cheap:
//! measured hit ratios are 0.0–0.06 in training (every operand of a
//! step is a fresh activation, gradient or transpose); the cache pays
//! where operands stay put — serving's resident weights, evaluation.
//!
//! Telemetry counters (`fpga.cache.hit` / `.miss` / `.evict` /
//! `.bytes_packed`) mirror the [`CacheStats`] the cache itself keeps,
//! so JSONL traces and the bench harness see the same numbers.

use crate::hbm::HbmImage;
use mpt_arith::quantize_matrix;
use mpt_formats::sr::hash::{mix, MIX_ADD, MIX_MUL_1};
use mpt_formats::{NumberFormat, Quantizer, Rounding};
use mpt_tensor::{ShapeError, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Default byte budget: 64 MiB of resident packed operands — a few
/// LeNet-scale models' worth of weights and activations.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// Identity of one packable operand: content fingerprint, layout and
/// the quantizer stream that will consume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OperandKey {
    /// [`carrier_fingerprint`] of the raw `f32` carrier bits: any
    /// update to the tensor changes it, which *is* the invalidation rule.
    fingerprint: u64,
    rows: usize,
    cols: usize,
    /// By value, not by descriptor hash: the same tensor under two
    /// quantizer streams is two entries and they cannot collide.
    quant: Quantizer,
}

impl OperandKey {
    fn of(t: &Tensor, q: &Quantizer) -> Result<Self, ShapeError> {
        let (rows, cols) = t.as_matrix()?;
        Ok(OperandKey {
            fingerprint: carrier_fingerprint(t.data()),
            rows,
            cols,
            quant: *q,
        })
    }
}

#[derive(Debug)]
struct Entry {
    /// Exact copy of the input carrier used for hit confirmation:
    /// fingerprints can collide, bit-compare cannot.
    input: Tensor,
    /// The quantized carrier, shared with in-flight compute stages.
    quantized: Arc<Tensor>,
    /// Modeled HBM footprint of the packed operand, bytes.
    image_bytes: usize,
    /// Bytes charged against the budget (carriers + modeled image).
    resident_bytes: usize,
    /// LRU tick of the most recent use.
    last_use: u64,
}

/// One cache lookup's outcome: the quantized operand ready for the
/// compute stage, plus what the pack stage had to do to produce it.
#[derive(Debug, Clone)]
pub struct FetchedOperand {
    /// Quantized carrier (shared, never re-quantized on a hit).
    pub quantized: Arc<Tensor>,
    /// Modeled size of the packed HBM image, bytes.
    pub image_bytes: usize,
    /// `true` when the operand was already resident (no pack work).
    pub hit: bool,
}

/// Cache effectiveness counters, cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a resident entry.
    pub hits: u64,
    /// Lookups that had to quantize + pack.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Pack operations the modeled pack stage performed (== `misses`).
    pub packs: u64,
    /// Total modeled bytes those packs produced.
    pub bytes_packed: u64,
    /// HBM images actually materialised (words + CRC) by
    /// [`OperandCache::image_of`]: zero unless a transfer faulted.
    pub images_built: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

/// A byte-budget LRU cache of quantized, HBM-packed operands.
///
/// # Example
///
/// ```
/// use mpt_fpga::cache::OperandCache;
/// use mpt_formats::Quantizer;
/// use mpt_tensor::Tensor;
///
/// let mut cache = OperandCache::new(1 << 20);
/// let w = Tensor::ones(vec![8, 8]);
/// let q = Quantizer::identity();
/// let first = cache.get_or_pack(&w, &q)?;
/// let second = cache.get_or_pack(&w, &q)?;
/// assert!(!first.hit && second.hit);
/// assert_eq!(cache.stats().packs, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OperandCache {
    budget: usize,
    entries: HashMap<OperandKey, Entry>,
    resident_bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl OperandCache {
    /// Creates a cache bounded by `budget_bytes` of resident operands.
    /// A budget of `0` disables residency: every lookup is a miss
    /// (what a plain [`FpgaBackend::new`](crate::FpgaBackend::new)
    /// launches through).
    pub fn new(budget_bytes: usize) -> Self {
        OperandCache {
            budget: budget_bytes,
            entries: HashMap::new(),
            resident_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        s.resident_bytes = self.resident_bytes;
        s.entries = self.entries.len();
        s
    }

    /// Returns the quantized form of `t` under `q` and the modeled
    /// size of its HBM image, reusing a resident copy when the exact
    /// same bits were fetched before.
    ///
    /// On a miss the operand is quantized at global coordinates
    /// (`quantize_matrix(t, q, 0, 0)` — exactly what the eager
    /// simulator host does), charged the image's closed-form byte
    /// count, and inserted under the LRU byte budget; no image is built.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `t` is not a matrix.
    pub fn get_or_pack(&mut self, t: &Tensor, q: &Quantizer) -> Result<FetchedOperand, ShapeError> {
        let key = OperandKey::of(t, q)?;
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            // Confirm the hit bit-for-bit: a fingerprint collision
            // must re-quantize, never serve another tensor's operand.
            if bits_equal(entry.input.data(), t.data()) {
                entry.last_use = self.tick;
                self.stats.hits += 1;
                bump("fpga.cache.hit");
                return Ok(FetchedOperand {
                    quantized: Arc::clone(&entry.quantized),
                    image_bytes: entry.image_bytes,
                    hit: true,
                });
            }
            if let Some(e) = self.entries.remove(&key) {
                self.resident_bytes -= e.resident_bytes;
            }
        }
        self.stats.misses += 1;
        bump("fpga.cache.miss");

        let quantized = Arc::new(quantize_matrix(t, q, 0, 0));
        let image_bytes = image_bytes(key.rows, key.cols, q);
        self.stats.packs += 1;
        self.stats.bytes_packed += image_bytes as u64;
        if mpt_telemetry::enabled() {
            mpt_telemetry::counter("fpga.cache.bytes_packed").add(image_bytes as u64);
        }

        let resident_bytes = 2 * t.data().len() * std::mem::size_of::<f32>() + image_bytes;
        let fetched = FetchedOperand {
            quantized: Arc::clone(&quantized),
            image_bytes,
            hit: false,
        };
        if resident_bytes <= self.budget {
            self.evict_to_fit(resident_bytes);
            self.resident_bytes += resident_bytes;
            self.entries.insert(
                key,
                Entry {
                    input: t.clone(),
                    quantized,
                    image_bytes,
                    resident_bytes,
                    last_use: self.tick,
                },
            );
        }
        Ok(fetched)
    }

    /// Builds the HBM image (packed words + CRC-32) of `operand`, which
    /// [`get_or_pack`](Self::get_or_pack) fetched under `q`, from its
    /// quantized carrier — what a faulted HBM transfer re-sends without
    /// re-running the pack stage, resident or not. `None` if `q` has no
    /// dense image.
    pub fn image_of(&mut self, operand: &FetchedOperand, q: &Quantizer) -> Option<HbmImage> {
        if !packable(q) {
            return None;
        }
        self.stats.images_built += 1;
        Some(HbmImage::pack(&operand.quantized, q.format()).expect("cache operands are matrices"))
    }

    /// Evicts least-recently-used entries until `incoming` more bytes
    /// fit in the budget.
    fn evict_to_fit(&mut self, incoming: usize) {
        while self.resident_bytes + incoming > self.budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
                .expect("non-empty cache has an LRU victim");
            if let Some(e) = self.entries.remove(&victim) {
                self.resident_bytes -= e.resident_bytes;
                self.stats.evictions += 1;
                bump("fpga.cache.evict");
            }
        }
    }
}

/// Whether `q`'s output serializes densely into an HBM image: not
/// f32-superset formats (carriers pass through, nothing narrower to
/// pack), not block floating point (shared exponents live out of
/// band), not [`Rounding::NoRound`] (values deliberately stay *off*
/// the format lattice — the fused-multiplier convention).
pub(crate) fn packable(q: &Quantizer) -> bool {
    let format = q.format();
    !matches!(q.rounding(), Rounding::NoRound)
        && matches!(format, NumberFormat::Float(_) | NumberFormat::Fixed(_))
        && !format.is_f32_superset()
}

/// Modeled HBM footprint of a `rows × cols` operand under `q`: the
/// image's closed-form size, or `numel · bits / 8` where none exists.
fn image_bytes(rows: usize, cols: usize, q: &Quantizer) -> usize {
    if packable(q) {
        HbmImage::packed_bytes(rows, cols, q.format())
    } else {
        rows * cols * q.format().bit_width() as usize / 8
    }
}

/// Content fingerprint of the carrier's raw bit patterns. Blocks of
/// eight values fold as four 64-bit words into four independent
/// xor–multiply–rotate chains (one multiply per word, none dependent
/// on the previous byte); length, tail and lanes then go through
/// [`mix`]. Every step is a bijection of the running state, so
/// changing any one value changes the result. Bit patterns, not float
/// values: `-0.0` and `0.0` (or two NaN payloads) quantize the same
/// today, but telling them apart costs nothing and keeps the cache
/// correct under any future format.
fn carrier_fingerprint(data: &[f32]) -> u64 {
    let mut lanes = [MIX_ADD; 4];
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            let word = pair[0].to_bits() as u64 | (pair[1].to_bits() as u64) << 32;
            *lane = (*lane ^ word).wrapping_mul(MIX_MUL_1).rotate_left(29);
        }
    }
    let tail = blocks.remainder().iter().map(|v| v.to_bits() as u64);
    tail.chain(lanes)
        .fold(data.len() as u64, |h, word| mix(h ^ word))
}

/// Exact carrier equality at the bit level (NaN-safe, `-0.0 ≠ 0.0`).
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Increments a telemetry counter when telemetry is armed.
fn bump(name: &str) {
    if mpt_telemetry::enabled() {
        mpt_telemetry::counter(name).incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_formats::{FloatFormat, Rounding};

    fn weight(seed: usize) -> Tensor {
        Tensor::from_fn(vec![6, 10], |i| {
            (((i + seed) * 37 % 41) as f32 - 20.0) * 0.05
        })
    }

    fn fp8() -> Quantizer {
        Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest)
    }

    #[test]
    fn second_lookup_hits_and_shares_quantized_carrier() {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        let w = weight(0);
        let q = fp8();
        let miss = cache.get_or_pack(&w, &q).unwrap();
        let hit = cache.get_or_pack(&w, &q).unwrap();
        assert!(!miss.hit);
        assert!(hit.hit);
        assert_eq!(miss.quantized, hit.quantized);
        assert_eq!(*hit.quantized, quantize_matrix(&w, &q, 0, 0));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.packs), (1, 1, 1));
        assert!(s.bytes_packed > 0);
    }

    #[test]
    fn updated_content_invalidates() {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        let q = fp8();
        cache.get_or_pack(&weight(0), &q).unwrap();
        let updated = cache.get_or_pack(&weight(1), &q).unwrap();
        assert!(!updated.hit, "changed bits must repack");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn quantizer_identity_is_part_of_the_key() {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        let w = weight(0);
        let sr1 = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(1);
        let sr2 = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(2);
        cache.get_or_pack(&w, &sr1).unwrap();
        assert!(
            !cache.get_or_pack(&w, &sr2).unwrap().hit,
            "seed changes bits"
        );
        assert!(
            !cache.get_or_pack(&w, &fp8()).unwrap().hit,
            "mode changes bits"
        );
        assert!(cache.get_or_pack(&w, &sr1).unwrap().hit);
    }

    #[test]
    fn negative_zero_is_a_different_operand() {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        let q = fp8();
        let pos = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let neg = Tensor::from_vec(vec![1, 2], vec![-0.0, 1.0]).unwrap();
        cache.get_or_pack(&pos, &q).unwrap();
        assert!(!cache.get_or_pack(&neg, &q).unwrap().hit);
    }

    #[test]
    fn lru_evicts_under_byte_budget() {
        // Budget for roughly one entry: inserting a second evicts the
        // least recently used first.
        let q = fp8();
        let one = cache_entry_bytes(&weight(0), &q);
        let mut cache = OperandCache::new(one + one / 2);
        cache.get_or_pack(&weight(0), &q).unwrap();
        cache.get_or_pack(&weight(1), &q).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1);
        assert!(s.resident_bytes <= cache.budget_bytes());
        // The survivor is the newer entry.
        assert!(cache.get_or_pack(&weight(1), &q).unwrap().hit);
        assert!(!cache.get_or_pack(&weight(0), &q).unwrap().hit);
    }

    fn cache_entry_bytes(t: &Tensor, q: &Quantizer) -> usize {
        let (rows, cols) = t.as_matrix().unwrap();
        2 * t.data().len() * std::mem::size_of::<f32>() + image_bytes(rows, cols, q)
    }

    #[test]
    fn zero_budget_disables_residency() {
        let mut cache = OperandCache::new(0);
        let q = fp8();
        for _ in 0..3 {
            assert!(!cache.get_or_pack(&weight(0), &q).unwrap().hit);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.entries, 0);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn block_fp_and_identity_formats_are_cacheable_without_images() {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        let w = weight(0);
        let idn = Quantizer::identity();
        let bfp = Quantizer::new(
            mpt_formats::BlockFpFormat::new(8, 8).unwrap(),
            Rounding::Nearest,
        );
        for q in [idn, bfp] {
            assert!(!cache.get_or_pack(&w, &q).unwrap().hit);
            let resident = cache.get_or_pack(&w, &q).unwrap();
            assert!(resident.hit);
            assert!(cache.image_of(&resident, &q).is_none(), "no dense image");
        }
    }

    #[test]
    fn resident_image_round_trips() {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        let w = weight(0);
        let q = fp8();
        let fetched = cache.get_or_pack(&w, &q).unwrap();
        let image = cache.image_of(&fetched, &q).expect("fp8 packs densely");
        assert_eq!(image.unpack().unwrap(), *fetched.quantized);
        assert_eq!(image.byte_size(), fetched.image_bytes);
    }

    #[test]
    fn image_is_built_on_demand_and_equals_an_eager_pack() {
        let mut cache = OperandCache::new(DEFAULT_CACHE_BUDGET);
        let w = weight(0);
        // E6M5: 12-bit codes straddle limb boundaries, 10 columns end
        // mid-word.
        for q in [
            fp8(),
            Quantizer::float(FloatFormat::e6m5(), Rounding::stochastic()).with_seed(9),
        ] {
            let before = cache.stats();
            let fetched = cache.get_or_pack(&w, &q).unwrap();
            assert!(cache.get_or_pack(&w, &q).unwrap().hit);
            let looked_up = cache.stats();
            assert_eq!(
                looked_up.images_built, before.images_built,
                "lookups build nothing"
            );
            assert_eq!(
                looked_up.packs,
                before.packs + 1,
                "the pack stage is still charged"
            );
            assert_eq!(
                looked_up.bytes_packed - before.bytes_packed,
                fetched.image_bytes as u64
            );

            let image = cache.image_of(&fetched, &q).expect("dense format");
            assert_eq!(cache.stats().images_built, before.images_built + 1);
            let eager = HbmImage::pack(&fetched.quantized, q.format()).unwrap();
            assert_eq!(image, eager, "words, geometry and CRC");
            assert_eq!(image.byte_size(), fetched.image_bytes);

            let mut in_flight = image;
            in_flight.corrupt_byte(5, 0x10);
            assert!(matches!(
                in_flight.unpack(),
                Err(crate::hbm::HbmError::Corrupted { .. })
            ));
        }
        assert_eq!(cache.stats().images_built, 2);
        // An operand that never became resident still has its image.
        let mut none = OperandCache::new(0);
        let fetched = none.get_or_pack(&weight(1), &fp8()).unwrap();
        let image = none.image_of(&fetched, &fp8()).expect("dense format");
        assert_eq!(image.unpack().unwrap(), *fetched.quantized);
        assert_eq!(none.stats().images_built, 1);
    }

    /// Carriers of `len` distinct, position-dependent values.
    fn carrier(len: usize) -> Vec<f32> {
        (0..len).map(|i| (i as f32 + 1.0) * 0.37 - 3.0).collect()
    }

    #[test]
    fn fingerprint_sees_bit_patterns_not_values() {
        let fp = |v: &[f32]| carrier_fingerprint(v);
        assert_ne!(fp(&[0.0, 1.0]), fp(&[-0.0, 1.0]), "signed zero");
        let (nan_a, nan_b) = (f32::from_bits(0x7fc0_0001), f32::from_bits(0x7fc0_0002));
        assert!(nan_a.is_nan() && nan_b.is_nan());
        assert_ne!(fp(&[nan_a]), fp(&[nan_b]), "NaN payloads");
        // In a full block too, where values fold pairwise into words.
        let mut block = carrier(16);
        let clean = fp(&block);
        block[11] = -block[11];
        assert_ne!(fp(&block), clean);
        assert_eq!(fp(&carrier(16)), clean, "pure function of the bits");
    }

    #[test]
    fn fingerprint_covers_every_tail_length_and_position() {
        // Lengths 0..=41 hit every `len % 8` several times, with zero
        // to five full blocks in front of the tail.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=41usize {
            let data = carrier(len);
            let clean = carrier_fingerprint(&data);
            assert!(
                seen.insert(clean),
                "length {len} collides with a shorter prefix"
            );
            // A trailing zero is a different carrier, not padding.
            let mut padded = data.clone();
            padded.push(0.0);
            assert_ne!(carrier_fingerprint(&padded), clean, "len {len} + zero");
            if len == 0 {
                continue;
            }
            // One flipped bit at the first, middle and last element.
            for at in [0, len / 2, len - 1] {
                for bit in [0u32, 13, 31] {
                    let mut flipped = data.clone();
                    flipped[at] = f32::from_bits(flipped[at].to_bits() ^ (1 << bit));
                    assert_ne!(
                        carrier_fingerprint(&flipped),
                        clean,
                        "len {len}, element {at}, bit {bit}"
                    );
                }
            }
            // Swapping any two elements (same word, same lane, across
            // lanes, block vs tail) is a different carrier.
            for i in 0..len {
                for j in i + 1..len {
                    let mut swapped = data.clone();
                    swapped.swap(i, j);
                    assert_ne!(
                        carrier_fingerprint(&swapped),
                        clean,
                        "len {len}: {i} <-> {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_separates_sparse_carriers() {
        // Post-ReLU activations and their gradients are mostly zeros:
        // all-zero carriers of every length and every one-hot carrier
        // (three values per position) must all be told apart.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=64usize {
            let mut data = vec![0.0f32; len];
            assert!(seen.insert(carrier_fingerprint(&data)), "zeros({len})");
            for at in 0..len {
                for v in [1.0f32, -1.0, f32::MIN_POSITIVE] {
                    data[at] = v;
                    assert!(
                        seen.insert(carrier_fingerprint(&data)),
                        "{v} at {at} of {len}"
                    );
                }
                data[at] = 0.0;
            }
        }
    }
}
