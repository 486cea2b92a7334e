use serde::{Deserialize, Serialize};

use crate::{SignalId, TraceError};

/// A single timestamped scalar sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Time of the sample (s).
    pub time: f64,
    /// Sampled value.
    pub value: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(time: f64, value: f64) -> Self {
        Sample { time, value }
    }
}

/// A single signal sampled over time, with strictly increasing timestamps.
///
/// # Example
///
/// ```
/// use adassure_trace::Series;
///
/// # fn main() -> Result<(), adassure_trace::TraceError> {
/// let mut s = Series::new("speed");
/// s.push(0.0, 1.0)?;
/// s.push(0.1, 2.0)?;
/// assert_eq!(s.value_at(0.05), Some(1.5)); // linear interpolation
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    id: SignalId,
    samples: Vec<Sample>,
}

impl Series {
    /// Creates an empty series for the given signal.
    pub fn new(id: impl Into<SignalId>) -> Self {
        Series {
            id: id.into(),
            samples: Vec::new(),
        }
    }

    /// Creates a series from pre-collected samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NonMonotonicTime`] or
    /// [`TraceError::NonFiniteSample`] if the samples violate the series
    /// invariants.
    pub fn from_samples(
        id: impl Into<SignalId>,
        samples: impl IntoIterator<Item = (f64, f64)>,
    ) -> Result<Self, TraceError> {
        let mut series = Series::new(id);
        for (t, v) in samples {
            series.push(t, v)?;
        }
        Ok(series)
    }

    /// The identifier of the recorded signal.
    pub fn id(&self) -> &SignalId {
        &self.id
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NonMonotonicTime`] if `time` is not strictly
    /// greater than the previous sample's time, and
    /// [`TraceError::NonFiniteSample`] if either component is NaN/infinite.
    pub fn push(&mut self, time: f64, value: f64) -> Result<(), TraceError> {
        if !time.is_finite() || !value.is_finite() {
            return Err(TraceError::NonFiniteSample {
                signal: self.id.as_str().to_owned(),
                time,
                value,
            });
        }
        if let Some(last) = self.samples.last() {
            if time <= last.time {
                return Err(TraceError::NonMonotonicTime {
                    signal: self.id.as_str().to_owned(),
                    last: last.time,
                    attempted: time,
                });
            }
        }
        self.samples.push(Sample::new(time, value));
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The values without timestamps, in time order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.value)
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<Sample> {
        self.samples.first().copied()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Time span `(start, end)` covered by the series, if non-empty.
    pub fn span(&self) -> Option<(f64, f64)> {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => Some((a.time, b.time)),
            _ => None,
        }
    }

    /// Linearly interpolated value at `time`.
    ///
    /// Returns `None` when the series is empty or `time` falls outside the
    /// recorded span.
    pub fn value_at(&self, time: f64) -> Option<f64> {
        let (start, end) = self.span()?;
        if time < start || time > end {
            return None;
        }
        let idx = self.samples.partition_point(|s| s.time < time);
        if idx < self.samples.len() && self.samples[idx].time == time {
            return Some(self.samples[idx].value);
        }
        // `time` lies strictly between samples[idx-1] and samples[idx].
        let lo = self.samples[idx - 1];
        let hi = self.samples[idx];
        let alpha = (time - lo.time) / (hi.time - lo.time);
        Some(lo.value + alpha * (hi.value - lo.value))
    }

    /// Value of the sample at or immediately before `time` (sample-and-hold).
    pub fn value_before(&self, time: f64) -> Option<f64> {
        let idx = self.samples.partition_point(|s| s.time <= time);
        idx.checked_sub(1).map(|i| self.samples[i].value)
    }

    /// Central/one-sided finite-difference derivative at sample index `i`.
    ///
    /// Returns `None` when fewer than two samples exist or `i` is out of
    /// bounds.
    pub fn derivative_at(&self, i: usize) -> Option<f64> {
        let n = self.samples.len();
        if n < 2 || i >= n {
            return None;
        }
        let (a, b) = if i == 0 {
            (self.samples[0], self.samples[1])
        } else if i == n - 1 {
            (self.samples[n - 2], self.samples[n - 1])
        } else {
            (self.samples[i - 1], self.samples[i + 1])
        };
        Some((b.value - a.value) / (b.time - a.time))
    }

    /// A new series containing the finite-difference derivative of `self`.
    ///
    /// The derivative series shares the parent's timestamps and is named
    /// `"d(<name>)/dt"`. Empty and single-sample series yield an empty
    /// derivative.
    pub fn differentiate(&self) -> Series {
        let id = SignalId::new(format!("d({})/dt", self.id));
        let mut out = Series::new(id);
        if self.samples.len() < 2 {
            return out;
        }
        for i in 0..self.samples.len() {
            let d = self
                .derivative_at(i)
                .expect("index in bounds with >=2 samples");
            out.push(self.samples[i].time, d)
                .expect("parent timestamps are strictly increasing and finite");
        }
        out
    }

    /// Sub-series restricted to `start <= t <= end` (sample times, no
    /// interpolation at the boundaries).
    pub fn slice_time(&self, start: f64, end: f64) -> Series {
        let mut out = Series::new(self.id.clone());
        out.samples = self
            .samples
            .iter()
            .copied()
            .filter(|s| s.time >= start && s.time <= end)
            .collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Series {
        // 0.25 s steps are exactly representable, keeping expectations exact.
        Series::from_samples("r", (0..10).map(|i| (f64::from(i) * 0.25, f64::from(i)))).unwrap()
    }

    #[test]
    fn push_rejects_non_monotonic() {
        let mut s = Series::new("x");
        s.push(0.0, 1.0).unwrap();
        let err = s.push(0.0, 2.0).unwrap_err();
        assert!(matches!(err, TraceError::NonMonotonicTime { .. }));
        let err = s.push(-1.0, 2.0).unwrap_err();
        assert!(matches!(err, TraceError::NonMonotonicTime { .. }));
    }

    #[test]
    fn push_rejects_non_finite() {
        let mut s = Series::new("x");
        assert!(matches!(
            s.push(f64::NAN, 0.0),
            Err(TraceError::NonFiniteSample { .. })
        ));
        assert!(matches!(
            s.push(0.0, f64::INFINITY),
            Err(TraceError::NonFiniteSample { .. })
        ));
        assert!(s.is_empty());
    }

    #[test]
    fn interpolation_exact_and_between() {
        let s = ramp();
        assert_eq!(s.value_at(0.75), Some(3.0));
        let v = s.value_at(0.875).unwrap();
        assert!((v - 3.5).abs() < 1e-9);
        assert_eq!(s.value_at(-0.1), None);
        assert_eq!(s.value_at(99.0), None);
    }

    #[test]
    fn value_before_is_sample_and_hold() {
        let s = ramp();
        assert_eq!(s.value_before(0.8), Some(3.0));
        assert_eq!(s.value_before(0.75), Some(3.0));
        assert_eq!(s.value_before(-0.01), None);
        assert_eq!(s.value_before(99.0), Some(9.0));
    }

    #[test]
    fn derivative_of_ramp_is_constant() {
        let s = ramp();
        let d = s.differentiate();
        assert_eq!(d.len(), s.len());
        for v in d.values() {
            assert!((v - 4.0).abs() < 1e-9, "{v}");
        }
        assert_eq!(d.id().as_str(), "d(r)/dt");
    }

    #[test]
    fn derivative_of_short_series_is_empty() {
        let mut s = Series::new("x");
        assert!(s.differentiate().is_empty());
        s.push(0.0, 1.0).unwrap();
        assert!(s.differentiate().is_empty());
        assert_eq!(s.derivative_at(0), None);
    }

    #[test]
    fn slice_time_keeps_inclusive_window() {
        let s = ramp();
        let sliced = s.slice_time(0.5, 1.25);
        assert_eq!(sliced.len(), 4);
        assert_eq!(sliced.first().unwrap().time, 0.5);
        assert_eq!(sliced.last().unwrap().time, 1.25);
    }

    #[test]
    fn span_and_accessors() {
        let s = ramp();
        let (a, b) = s.span().unwrap();
        assert_eq!(a, 0.0);
        assert_eq!(b, 2.25);
        assert_eq!(Series::new("e").span(), None);
    }
}
