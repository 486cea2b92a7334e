//! Fixed-bucket log₂ latency histograms.
//!
//! HDR-style: bucket `i` covers `[lo·2^i, lo·2^(i+1))`, so a handful of
//! buckets span nanoseconds to seconds with bounded relative error (one
//! octave). The bucket array is sized at construction and never grows —
//! recording on the hot path is an exponent extraction and one counter
//! increment, with no allocation.

use serde::{Deserialize, Serialize};

/// A log₂-bucketed histogram over non-negative finite values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower bound of bucket 0; bucket `i` covers `[lo·2^i, lo·2^(i+1))`.
    pub lo: f64,
    /// Per-bucket counts.
    pub buckets: Vec<u64>,
    /// Values below `lo` (counted in `count`/`sum` but not bucketed).
    pub underflow: u64,
    /// Values at or above the last bucket's upper bound.
    pub overflow: u64,
    /// Non-finite values, dropped entirely.
    pub rejected: u64,
    /// Number of recorded (finite) values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Largest recorded value (`0.0` while empty).
    pub max: f64,
}

impl Histogram {
    /// A histogram with `buckets` log₂ buckets starting at `lo` (> 0,
    /// finite).
    pub fn new(lo: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && lo.is_finite(), "histogram lo must be positive");
        Histogram {
            lo,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            rejected: 0,
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Nanosecond layout: 40 octaves from 16 ns to ~4.8 h — cycle
    /// evaluation times land in the low octaves with headroom above.
    pub fn nanos() -> Self {
        Histogram::new(16.0, 40)
    }

    /// Seconds layout: 28 octaves from 1 ms up — detection latencies are
    /// fractions of a second to tens of seconds.
    pub fn seconds() -> Self {
        Histogram::new(1e-3, 28)
    }

    /// Records one value. Non-finite values are rejected; negatives and
    /// values below `lo` count as underflow. Never allocates.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.rejected += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
        let ratio = v / self.lo;
        if ratio < 1.0 {
            self.underflow += 1;
            return;
        }
        // floor(log₂ ratio) via IEEE-754 exponent extraction: ratio >= 1 here,
        // so the biased exponent is >= 1023 and the subtraction cannot wrap.
        let octave = ((ratio.to_bits() >> 52) & 0x7ff) as usize - 1023;
        match self.buckets.get_mut(octave) {
            Some(bucket) => *bucket += 1,
            None => self.overflow += 1,
        }
    }

    /// Whether nothing (not even a rejected value) was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.rejected == 0
    }

    /// The exclusive upper bound of bucket `i`.
    pub fn upper_bound(&self, i: usize) -> f64 {
        self.lo * 2f64.powi(i as i32 + 1)
    }

    /// Mean of the recorded values (`None` while empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Upper-bound estimate of the `q`-quantile (`q` in `[0, 1]`): the
    /// upper edge of the bucket containing the rank. `None` while empty;
    /// `max` when the rank lands in the overflow region.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.lo);
        }
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if rank <= seen {
                return Some(self.upper_bound(i));
            }
        }
        Some(self.max)
    }

    /// Median estimate — [`Histogram::quantile`] at `q = 0.5`.
    ///
    /// # Error bounds
    ///
    /// Log₂ buckets bound the *relative* error at one octave: the true
    /// quantile lies in `[p/2, p]` where `p` is the returned bucket upper
    /// edge (a value can be at most 2× smaller than its bucket's upper
    /// bound). Two degenerate ranks are exact-ish instead: a rank in the
    /// underflow region returns `lo` (true value is below it), and a rank
    /// in the overflow region returns the recorded `max` (exact).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th-percentile estimate — [`Histogram::quantile`] at `q = 0.99`.
    /// Same one-octave relative error bound as [`Histogram::p50`].
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Whether `self` and `other` share a layout (same `lo`, same bucket
    /// count), the precondition of [`Histogram::merge`].
    pub fn same_layout(&self, other: &Histogram) -> bool {
        self.lo == other.lo && self.buckets.len() == other.buckets.len()
    }

    /// Adds `other`'s counts into `self`. Both sides must share a layout
    /// (see [`Histogram::same_layout`]).
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.same_layout(other),
            "merging histograms with different layouts"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.rejected += other.rejected;
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_octave() {
        let mut h = Histogram::new(1.0, 4);
        for v in [1.0, 1.5, 2.0, 3.9, 4.0, 8.0, 15.9] {
            h.record(v);
        }
        assert_eq!(h.buckets, vec![2, 2, 1, 2]);
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 15.9);
    }

    #[test]
    fn underflow_overflow_rejected() {
        let mut h = Histogram::new(1.0, 2);
        h.record(0.5);
        h.record(-3.0);
        h.record(4.0); // beyond bucket 1's upper bound
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.underflow, 2);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.rejected, 2);
        assert_eq!(h.count, 3, "rejected values are not counted");
    }

    #[test]
    fn exact_powers_land_in_their_own_bucket() {
        let mut h = Histogram::new(1.0, 8);
        h.record(1.0);
        h.record(2.0);
        h.record(4.0);
        assert_eq!(&h.buckets[..3], &[1, 1, 1]);
    }

    #[test]
    fn quantile_estimates_from_bucket_edges() {
        let mut h = Histogram::new(1.0, 8);
        for _ in 0..90 {
            h.record(1.5); // bucket 0, upper bound 2
        }
        for _ in 0..10 {
            h.record(100.0); // bucket 6, upper bound 128
        }
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.99), Some(128.0));
        assert_eq!(Histogram::new(1.0, 2).quantile(0.5), None);
    }

    #[test]
    fn p50_p99_within_one_octave_of_truth() {
        let mut h = Histogram::nanos();
        let mut values: Vec<f64> = (1..=1000).map(|i| 40.0 * i as f64).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        let true_p50 = values[499];
        let true_p99 = values[989];
        let (p50, p99) = (h.p50().unwrap(), h.p99().unwrap());
        assert!(
            p50 >= true_p50 && p50 <= true_p50 * 2.0,
            "{p50} vs {true_p50}"
        );
        assert!(
            p99 >= true_p99 && p99 <= true_p99 * 2.0,
            "{p99} vs {true_p99}"
        );
        assert_eq!(Histogram::nanos().p50(), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(1.0, 4);
        let mut b = Histogram::new(1.0, 4);
        a.record(1.0);
        b.record(2.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.buckets, vec![1, 1, 0, 1]);
        assert_eq!(a.max, 9.0);
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn merge_rejects_mismatched_layouts() {
        let mut a = Histogram::new(1.0, 4);
        a.merge(&Histogram::new(2.0, 4));
    }

    #[test]
    fn standard_layouts_cover_expected_ranges() {
        let ns = Histogram::nanos();
        assert!(
            ns.upper_bound(ns.buckets.len() - 1) > 1e12,
            "covers > 16 min"
        );
        let s = Histogram::seconds();
        assert!(s.upper_bound(s.buckets.len() - 1) > 1e5);
    }

    #[test]
    fn round_trips_through_json() {
        let mut h = Histogram::seconds();
        h.record(0.25);
        h.record(3.0);
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
