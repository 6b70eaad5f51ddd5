//! Percentile and median-of-rounds arithmetic on known samples.

use mpt_benchmark::stats::{iqr_share, median, percentile, quartiles, units_per_s};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 50.0);
    // p90 of 100 samples is the 90th smallest: ten samples lie beyond.
    assert_eq!(percentile(&v, 0.9), 90.0);
    assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.9)).count(), 10);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.9), 7.0);
}

#[test]
fn percentile_ignores_input_order() {
    assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
    assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.9), 5.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
    assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), [3.0, 4.0, 7.0]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
}

#[test]
fn throughput_uses_the_median_round() {
    // Nine rounds of 2 s and one 20 s burst: 10 units per round.
    let mut walls = vec![2.0; 9];
    walls.push(20.0);
    assert_eq!(units_per_s(&walls, 10), 5.0);
    // The mean would have said 100 / 38 = 2.6 units/s.
    // A stall inside every round does move it.
    assert_eq!(units_per_s(&[4.0; 10], 10), 2.5);
}

#[test]
fn units_are_scaled_by_the_calibration_reps_around_them() {
    use mpt_benchmark::host::{slowdown, CALIBRATION_REF_MS};
    use mpt_benchmark::train::normalise_units;

    assert_eq!(slowdown(&[CALIBRATION_REF_MS; 4]), 1.0);
    assert_eq!(
        slowdown(&[CALIBRATION_REF_MS, 3.0 * CALIBRATION_REF_MS]),
        2.0
    );

    // A host twice as slow throughout: every unit reads half its wall
    // time, i.e. what the reference host would have taken.
    let wall = vec![20.0; 30];
    let slow = vec![2.0 * CALIBRATION_REF_MS; 30];
    assert!(normalise_units(&wall, &slow).iter().all(|&ms| ms == 10.0));

    // A slow spell over the last ten units only: units more than a
    // window away from it are untouched, units inside it are halved.
    let mut reps = vec![CALIBRATION_REF_MS; 30];
    let mut wall = vec![10.0; 30];
    for i in 20..30 {
        reps[i] = 2.0 * CALIBRATION_REF_MS;
        wall[i] = 20.0;
    }
    let unit_ms = normalise_units(&wall, &reps);
    assert_eq!(unit_ms[0], 10.0);
    assert_eq!(unit_ms[14], 10.0);
    assert_eq!(unit_ms[29], 10.0);
    assert_eq!(percentile(&unit_ms, 0.5), 10.0);
}
