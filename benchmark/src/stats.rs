//! Order statistics the benchmark reports and compares.

/// Sorts a sample ascending (timings are never NaN; `total_cmp` keeps the
/// sort total anyway).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an ascending sample (mean of the two middle values when the
/// count is even); `0.0` for an empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values.to_vec()))
}

/// The tail percentile a sample of this size supports: the highest of
/// p99/p95/p90 (nearest rank) that still has at least ten samples beyond
/// it, with its label. `None` when even p90 has fewer.
pub fn tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    let n = sorted.len();
    [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)]
        .into_iter()
        .find_map(|(label, q)| {
            let rank = (q * n as f64).ceil() as usize; // 1-based nearest rank
            (rank >= 1 && n - rank >= 10).then(|| (label, sorted[rank - 1]))
        })
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) computes them — the rule the driver
/// applies to this benchmark's own run-to-run spread. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median. `None` below two values or at a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten beyond.
        assert_eq!(tail(&ramp(1000)), Some(("p99", 990.0)));
        // 999 samples: p99 is rank 990 with nine beyond; p95 it is.
        assert_eq!(tail(&ramp(999)), Some(("p95", 950.0)));
        // 220 samples (join_heavy's window): p99 has 2 beyond, p95 has 11.
        assert_eq!(tail(&ramp(220)), Some(("p95", 209.0)));
        // 100 samples: p90 is rank 90 with exactly ten beyond.
        assert_eq!(tail(&ramp(100)), Some(("p90", 90.0)));
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some([10.0, 20.0, 30.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = spread(&ramp(10)).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
