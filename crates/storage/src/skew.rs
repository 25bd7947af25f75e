//! Skewed data generation for the skew ablation.
//!
//! The paper's trade-off analysis (§3.5) assumes non-skewed data
//! partitioning; the reproduction quantifies what happens when that
//! assumption is violated by generating join keys from a Zipf distribution
//! instead of a permutation.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Draws `n` keys from a Zipf(`theta`) distribution over `0..domain`.
/// `theta = 0` is uniform; `theta ~ 1` is heavily skewed. Uses the inverse
/// CDF over precomputed cumulative weights.
pub fn zipf_keys(n: usize, domain: usize, theta: f64, seed: u64) -> Vec<i64> {
    assert!(domain > 0, "domain must be positive");
    assert!(theta >= 0.0, "theta must be non-negative");
    // Cumulative weights: w_i = 1 / (i+1)^theta.
    let mut cdf = Vec::with_capacity(domain);
    let mut total = 0.0f64;
    for i in 0..domain {
        total += 1.0 / ((i + 1) as f64).powf(theta);
        cdf.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.gen::<f64>() * total;
        // partition_point returns the first index with cdf[i] >= u.
        let idx = cdf.partition_point(|&c| c < u).min(domain - 1);
        keys.push(idx as i64);
    }
    keys
}

/// The fraction of tuples captured by the most frequent key — a simple
/// scalar skew metric used by tests and the ablation report.
pub fn top_key_fraction(keys: &[i64]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let mut counts = std::collections::HashMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0usize) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    max as f64 / keys.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let keys = zipf_keys(10_000, 100, 0.0, 1);
        let top = top_key_fraction(&keys);
        assert!(top < 0.03, "uniform top fraction was {top}");
    }

    #[test]
    fn high_theta_is_skewed() {
        let uniform = top_key_fraction(&zipf_keys(10_000, 100, 0.0, 2));
        let skewed = top_key_fraction(&zipf_keys(10_000, 100, 1.0, 2));
        assert!(skewed > 3.0 * uniform, "uniform={uniform}, skewed={skewed}");
    }

    #[test]
    fn keys_stay_in_domain() {
        let keys = zipf_keys(1000, 50, 0.8, 3);
        assert!(keys.iter().all(|&k| (0..50).contains(&k)));
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(zipf_keys(100, 10, 0.5, 7), zipf_keys(100, 10, 0.5, 7));
        assert_ne!(zipf_keys(100, 10, 0.5, 7), zipf_keys(100, 10, 0.5, 8));
    }

    #[test]
    fn top_key_fraction_edge_cases() {
        assert_eq!(top_key_fraction(&[]), 0.0);
        assert_eq!(top_key_fraction(&[1, 1, 1]), 1.0);
    }
}
