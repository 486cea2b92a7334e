//! Summary statistics over signal values.
//!
//! [`SummaryStats`] condenses a series or any set of values into count,
//! extremes, mean, spread and magnitude — e.g. to compare controllers'
//! cross-track error across runs.

use serde::{Deserialize, Serialize};

use crate::Series;

/// Summary statistics of a set of scalar values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of values summarised.
    pub count: usize,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Root mean square.
    pub rms: f64,
    /// Mean absolute value.
    pub mean_abs: f64,
}

impl SummaryStats {
    /// Computes summary statistics over `values`.
    ///
    /// Returns `None` for an empty input or when any value is non-finite.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Option<SummaryStats> {
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut sum_abs = 0.0;
        for v in values {
            if !v.is_finite() {
                return None;
            }
            count += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
            sum_sq += v * v;
            sum_abs += v.abs();
        }
        if count == 0 {
            return None;
        }
        let n = count as f64;
        let mean = sum / n;
        let variance = (sum_sq / n - mean * mean).max(0.0);
        Some(SummaryStats {
            count,
            min,
            max,
            mean,
            std_dev: variance.sqrt(),
            rms: (sum_sq / n).sqrt(),
            mean_abs: sum_abs / n,
        })
    }

    /// Computes summary statistics over the values of a series.
    pub fn from_series(series: &Series) -> Option<SummaryStats> {
        SummaryStats::from_values(series.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_values() {
        let s = SummaryStats::from_values([1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert!((s.rms - (7.5f64).sqrt()).abs() < 1e-12);
        assert!((s.mean_abs - 2.5).abs() < 1e-12);
    }

    #[test]
    fn stats_reject_empty_and_non_finite() {
        assert_eq!(SummaryStats::from_values([]), None);
        assert_eq!(SummaryStats::from_values([1.0, f64::NAN]), None);
    }

    #[test]
    fn stats_handle_negative_values() {
        let s = SummaryStats::from_values([-2.0, 2.0]).unwrap();
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.mean_abs, 2.0);
        assert_eq!(s.rms, 2.0);
    }

    #[test]
    fn from_series_matches_from_values() {
        let series = Series::from_samples("s", [(0.0, 1.0), (0.1, 3.0)]).unwrap();
        let a = SummaryStats::from_series(&series).unwrap();
        let b = SummaryStats::from_values([1.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }
}
