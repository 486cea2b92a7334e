//! Property-based tests of the trace substrate's invariants.

use adassure_trace::{csv, stats, ColumnarTrace, Series, Trace};
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

/// How one series of a generated trace samples the base grid.
#[derive(Debug, Clone)]
enum Rate {
    /// Every grid time: a full-rate series unless an off-grid one exists.
    Full,
    /// Every `k`-th grid time from the `phase`-th.
    Every { k: usize, phase: usize },
    /// Every grid time from the `from`-th on.
    Late { from: usize },
    /// The midpoint of every `k`-th grid gap, a time no other series has.
    OffGrid { k: usize },
}

/// Full-rate 3 in 8, every `k`-th and late 2 in 8 each, off-grid 1 in 8.
fn rate_strategy() -> impl Strategy<Value = Rate> {
    (0u8..8, 2usize..5, 0usize..30).prop_map(|(pick, k, x)| match pick {
        0..=2 => Rate::Full,
        3 | 4 => Rate::Every { k, phase: x % 4 },
        5 | 6 => Rate::Late { from: x + 1 },
        _ => Rate::OffGrid { k: k - 1 },
    })
}

/// A trace whose series mix full-rate, lower-rate, late-starting and
/// off-grid sampling of one random grid.
fn mixed_rate_trace_strategy() -> impl Strategy<Value = Trace> {
    (
        samples_strategy(),
        proptest::collection::vec(rate_strategy(), 1..6),
    )
        .prop_map(|(grid, rates)| {
            let mut trace = Trace::new();
            for (s, rate) in rates.iter().enumerate() {
                let name = format!("sig_{s}");
                for (i, &(t, v)) in grid.iter().enumerate() {
                    let v = v + s as f64;
                    match *rate {
                        Rate::Full => trace.record(name.as_str(), t, v),
                        Rate::Every { k, phase } if i % k == phase => {
                            trace.record(name.as_str(), t, v);
                        }
                        Rate::Late { from } if i >= from => trace.record(name.as_str(), t, v),
                        Rate::OffGrid { k } if i % k == 0 && i + 1 < grid.len() => {
                            trace.record(name.as_str(), (t + grid[i + 1].0) / 2.0, v);
                        }
                        _ => {}
                    }
                }
            }
            trace
        })
}

/// The `.adt` v2 length of `trace`: a full-rate series (as many samples as
/// the trace has distinct timestamps) costs 8 bytes per sample, any other
/// 16 plus a 4-byte cycle index.
fn adt_v2_len(trace: &Trace) -> usize {
    let pad8 = |n: usize| n.div_ceil(8) * 8;
    // Generated times are positive, so their bit patterns sort like them.
    let mut grid: Vec<u64> = trace
        .iter()
        .flat_map(|s| s.samples().iter().map(|x| x.time.to_bits()))
        .collect();
    grid.sort_unstable();
    grid.dedup();
    let names: usize = trace.signals().map(|id| id.as_str().len() + 1).sum();
    let (mut columns, mut indexed) = (0, 0);
    for series in trace.iter() {
        if series.len() == grid.len() {
            columns += 8 * series.len();
        } else {
            columns += 16 * series.len();
            indexed += series.len();
        }
    }
    40 + pad8(names.saturating_sub(1))
        + 8 * trace.signal_count()
        + 8 * grid.len()
        + columns
        + pad8(4 * indexed)
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

    #[test]
    fn adt_stores_a_full_rate_series_as_its_values_alone(trace in mixed_rate_trace_strategy()) {
        let col = ColumnarTrace::from_trace(&trace);
        let bytes = col.encode();
        prop_assert_eq!(bytes.len(), adt_v2_len(&trace));
        let back = ColumnarTrace::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &col);
        prop_assert!(back.encode() == bytes, "decode then encode changed the bytes");
        prop_assert_eq!(&back.to_trace(), &trace);
        let n = back.cycle_count();
        for (i, id) in back.signals().iter().enumerate() {
            let (times, values, cycles) = back.series(i);
            let samples = trace.series(id).expect("same signals").samples();
            prop_assert!(values.iter().map(|v| v.to_bits()).eq(samples.iter().map(|s| s.value.to_bits())));
            if values.len() == n {
                prop_assert_eq!(times, back.cycle_times());
                prop_assert!(cycles.iter().copied().eq(0..n as u32), "full-rate {} index", id);
            }
        }
    }
}
