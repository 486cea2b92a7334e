//! Order statistics for the benchmark's reported numbers.

/// The `q`-quantile (`0 < q < 1`) of `values`, by the nearest-rank rule,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// The guard keeps a tail percentile from being read off a handful of
/// ops: a p95 over forty ops is the second-slowest op, not a statistic.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `quantity` per second of `ns` (0 when nothing was timed).
pub fn per_s(quantity: f64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        quantity / (ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 ops leaves exactly 10 beyond: allowed.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // p90 of 99 ops leaves 9 beyond: refused.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p95 over a few dozen ops is refused outright.
        assert_eq!(percentile(&ramp(40), 0.95), None);
        // p99 needs a thousand.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
