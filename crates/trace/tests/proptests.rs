//! Property-based tests of the trace substrate's invariants.

use adassure_trace::{csv, stats, Series, Trace};
use proptest::prelude::*;

/// Strictly increasing time grid plus matching finite values.
fn samples_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (1usize..60).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.001f64..0.5, n),
            proptest::collection::vec(-1e6f64..1e6, n),
        )
            .prop_map(|(dts, values)| {
                let mut t = 0.0;
                dts.into_iter()
                    .zip(values)
                    .map(|(dt, v)| {
                        t += dt;
                        (t, v)
                    })
                    .collect()
            })
    })
}

proptest! {
    #[test]
    fn monotone_samples_always_push(samples in samples_strategy()) {
        let series = Series::from_samples("s", samples.clone()).expect("monotone");
        prop_assert_eq!(series.len(), samples.len());
    }

    #[test]
    fn value_at_is_exact_on_samples_and_bounded_between(samples in samples_strategy()) {
        let series = Series::from_samples("s", samples.clone()).unwrap();
        for &(t, v) in &samples {
            prop_assert_eq!(series.value_at(t), Some(v));
        }
        for w in samples.windows(2) {
            let mid = (w[0].0 + w[1].0) / 2.0;
            if let Some(v) = series.value_at(mid) {
                let (lo, hi) = (w[0].1.min(w[1].1), w[0].1.max(w[1].1));
                prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6, "{v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn derivative_series_shares_timestamps(samples in samples_strategy()) {
        let series = Series::from_samples("s", samples).unwrap();
        let d = series.differentiate();
        if series.len() >= 2 {
            prop_assert_eq!(d.len(), series.len());
            for (a, b) in d.samples().iter().zip(series.samples()) {
                prop_assert_eq!(a.time, b.time);
            }
        } else {
            prop_assert!(d.is_empty());
        }
    }

    #[test]
    fn summary_stats_orderings(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = stats::SummaryStats::from_values(values.clone()).unwrap();
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.rms + 1e-9 >= s.mean.abs());
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.count, values.len());
    }

    #[test]
    fn csv_round_trip_preserves_aligned_traces(
        samples in samples_strategy(),
        n_signals in 1usize..5,
    ) {
        let mut trace = Trace::new();
        for i in 0..n_signals {
            for &(t, v) in &samples {
                trace.record(format!("sig_{i}"), t, v + i as f64);
            }
        }
        let text = csv::to_csv(&trace).expect("aligned by construction");
        let back = csv::from_csv(&text).expect("round trip");
        prop_assert_eq!(back.signal_count(), trace.signal_count());
        prop_assert_eq!(back.sample_count(), trace.sample_count());
        // Values survive to printed-float precision.
        for series in trace.iter() {
            let round = back.series(series.id()).unwrap();
            for (a, b) in series.samples().iter().zip(round.samples()) {
                prop_assert!((a.value - b.value).abs() <= 1e-9 * a.value.abs().max(1.0));
            }
        }
    }
}
