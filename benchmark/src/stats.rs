//! Order statistics used by every workload and by `compare`.
//!
//! The estimators are chosen for this host's noise, which is additive
//! and bursty: percentiles over all timed units, and throughput from
//! the *median* round so one slow burst cannot move it.

/// Nearest-rank percentile (`p` in `(0, 1]`) of unsorted samples: the
/// smallest sample with at least `p·n` samples at or below it. With
/// `n = 100`, `p = 0.9` picks the 90th smallest and leaves 10 beyond.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so that the
/// spreads `compare` prints are the ones the PR driver computes.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the PR
/// driver holds against each metric's bound.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// Units per second from equal rounds: units per round ÷ the median
/// round wall time. One slow round does not move it; a stall inside
/// every round does.
pub fn units_per_s(round_walls_s: &[f64], units_per_round: usize) -> f64 {
    units_per_round as f64 / median(round_walls_s)
}
