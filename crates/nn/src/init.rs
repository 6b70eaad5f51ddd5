//! Weight initializers.

use mpt_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Kaiming-He normal initialization for ReLU networks:
/// `N(0, sqrt(2 / fan_in))`.
pub fn kaiming_normal(shape: Vec<usize>, fan_in: usize, seed: u64) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f64).sqrt();
    normal(shape, 0.0, std, seed)
}

/// Gaussian initialization `N(mean, std)`.
pub fn normal(shape: Vec<usize>, mean: f64, std: f64, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(shape, |_| (mean + std * gaussian(&mut rng)) as f32)
}

/// Standard normal sample via Box–Muller (keeps us off `rand_distr`).
fn gaussian(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_std_matches_fan_in() {
        let t = kaiming_normal(vec![200, 100], 100, 7);
        let mean = t.mean();
        let var = t.norm_sq() / t.numel() as f64 - mean * mean;
        let expect = 2.0 / 100.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - expect).abs() < expect * 0.2, "var {var} vs {expect}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(normal(vec![10], 0.0, 1.0, 5), normal(vec![10], 0.0, 1.0, 5));
        assert_ne!(normal(vec![10], 0.0, 1.0, 5), normal(vec![10], 0.0, 1.0, 6));
    }

    #[test]
    fn gaussian_moments() {
        let t = normal(vec![20_000], 1.0, 0.5, 11);
        assert!((t.mean() - 1.0).abs() < 0.02);
        let var = t
            .data()
            .iter()
            .map(|&v| ((v as f64) - 1.0).powi(2))
            .sum::<f64>()
            / t.numel() as f64;
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }
}
