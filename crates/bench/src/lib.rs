//! # mpt-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 and
//! EXPERIMENTS.md for paper-vs-measured records):
//!
//! | Target | Regenerates |
//! |---|---|
//! | `table1_features` | Table I — framework feature matrix |
//! | `table2_cnn_accuracy` | Table II — CNN accuracy across MAC configs |
//! | `fig6_nanogpt_loss` | Fig. 6 — NanoGPT validation-loss curves |
//! | `table3_configs` | Table III — feasible ⟨N,M,C⟩ + resources |
//! | `table4_latency` | Table IV — latency sweep over C at 8×8 |
//! | `fig7_est_vs_measured` | Fig. 7 — estimated vs measured latency |
//!
//! The accuracy experiments accept an `MPT_SCALE` environment
//! variable (`quick`, `default`, `full`) trading run time for
//! fidelity; see [`scale`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod scale;

pub use report::TableWriter;
pub use scale::{run_scale, RunScale};

/// Exact quantile of a sorted sample of nanosecond durations
/// (nearest-rank with linear interpolation; 0 for an empty sample).
/// The one percentile of the repository: `mpt-report` and
/// `serve_chaos` take it over the `dur_ns` of `span` log lines.
pub fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The MAC configurations of Table II, in row order, with the
/// paper's cell labels.
pub fn table2_configs() -> Vec<(&'static str, &'static str, mpt_arith::MacConfig)> {
    use mpt_arith::MacConfig;
    use mpt_formats::Rounding;
    vec![
        (
            "E5M2-NR",
            "E6M5-RZ",
            MacConfig::fp8_fp12(Rounding::TowardZero),
        ),
        ("E5M2-NR", "E6M5-RO", MacConfig::fp8_fp12(Rounding::ToOdd)),
        ("E5M2-NR", "E6M5-RN", MacConfig::fp8_fp12(Rounding::Nearest)),
        (
            "E5M2-NR",
            "E6M5-SR",
            MacConfig::fp8_fp12(Rounding::stochastic()),
        ),
        ("E5M2-NR", "E5M10-RN", MacConfig::fp8_fp16_rn()),
        ("E8M23-RN", "E8M23-RN", MacConfig::fp32()),
        ("FXP4.4-RN", "FXP8.8", MacConfig::fxp4_4(Rounding::Nearest)),
        (
            "FXP4.4-SR",
            "FXP8.8",
            MacConfig::fxp4_4(Rounding::stochastic()),
        ),
        (
            "FXP4.4-RZ",
            "FXP8.8",
            MacConfig::fxp4_4(Rounding::TowardZero),
        ),
        ("FXP4.4-RO", "FXP8.8", MacConfig::fxp4_4(Rounding::ToOdd)),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn table2_has_ten_rows_like_the_paper() {
        assert_eq!(super::table2_configs().len(), 10);
    }
}
