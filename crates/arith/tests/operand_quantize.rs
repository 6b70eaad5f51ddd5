//! Operand quantization as one slice: deterministic rounding modes
//! quantize a whole matrix in a single kernel call, which must equal
//! quantizing it row by row (what stochastic rounding still does) —
//! same bits on every tier, same telemetry tallies.
//!
//! One test in a binary of its own: it toggles the process-wide
//! telemetry switch.

use mpt_arith::{input_event_index, quantize_matrix_tier};
use mpt_formats::{
    BlockFpFormat, FixedFormat, FloatFormat, NumberFormat, Quantizer, Rounding, SimdTier,
};
use mpt_tensor::Tensor;

/// `(total, exact, rounded, saturated, flushed)` of a quantizer's
/// global tally group.
fn tally_of(q: &Quantizer) -> [u64; 5] {
    let c = mpt_telemetry::quant_counters(&q.telemetry_label());
    use mpt_telemetry::QuantCat::*;
    [Total, Exact, Rounded, Saturated, Flushed].map(|cat| c[cat].get())
}

#[test]
fn flat_operand_quantize_matches_the_per_row_path() {
    let formats: [NumberFormat; 3] = [
        FloatFormat::e5m2().into(),
        FixedFormat::fxp4_4().into(),
        BlockFpFormat::new(3, 4).unwrap().into(),
    ];
    mpt_telemetry::enable();
    for format in formats {
        for rounding in [Rounding::Nearest, Rounding::TowardZero, Rounding::ToOdd] {
            let q = Quantizer::new(format, rounding);
            // 1 × n, n × 1, a tall conv-`colsᵀ`-like matrix whose rows
            // are no multiple of a lane block, empty both ways, and
            // rows of exactly one block.
            for (r, c) in [(1, 53), (53, 1), (2509, 25), (0, 7), (7, 0), (9, 8)] {
                let t = Tensor::from_fn(vec![r, c], |i| ((i * 29 % 61) as f32 - 30.0) * 0.37);
                for tier in SimdTier::ALL {
                    let start = tally_of(&q);
                    let flat = quantize_matrix_tier(&t, &q, 3, 5, tier);
                    let after_flat = tally_of(&q);
                    let mut by_row = t.clone();
                    for i in 0..r {
                        let row = &mut by_row.data_mut()[i * c..(i + 1) * c];
                        q.quantize_slice_f32_tier(row, input_event_index(i + 3, 5), tier);
                    }
                    let after_rows = tally_of(&q);
                    let bits =
                        |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&flat), bits(&by_row), "{q} {r}x{c} tier {tier}");
                    for field in 0..5 {
                        assert_eq!(
                            after_flat[field] - start[field],
                            after_rows[field] - after_flat[field],
                            "{q} {r}x{c} tier {tier}: tally field {field}"
                        );
                    }
                    assert_eq!(after_flat[0] - start[0], (r * c) as u64);
                }
            }
        }
    }
    mpt_telemetry::disable();
}
