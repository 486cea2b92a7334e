//! Offline checking: replay a recorded trace through the online monitor.
//!
//! Offline and online verdicts agree by construction because this module
//! contains no evaluation logic of its own — it only reconstructs the
//! per-cycle sample stream from a [`Trace`] and feeds it to
//! [`OnlineChecker`].
//!
//! Two replay paths exist, with identical cycle boundaries:
//!
//! * one cursor sweep over the trace's per-series samples — no
//!   flattening, no sort — backs every `check*` entry point (which
//!   resolves each series to its checker slot once, up front),
//!   [`for_each_cycle`] and [`replay`];
//! * [`events`] + [`Cycles`] materialise a time-sorted event stream for
//!   callers that need one (the overhead harnesses).

use adassure_obs::{EventSink, MetricsSnapshot, ObsConfig};
use adassure_trace::{Sample, SignalId, Trace};

use crate::assertion::Assertion;
use crate::online::{HealthConfig, OnlineChecker};
use crate::report::CheckReport;

/// One flattened trace sample: `(time, signal, value)`.
pub type Event<'t> = (f64, &'t SignalId, f64);

/// The trace's samples flattened into [`Event`]s, sorted by time (ties
/// resolved by signal name, so replay is deterministic).
///
/// No two events share a `(time, signal)` pair — a [`Trace`] rejects
/// duplicate timestamps per signal — so the unstable sort is deterministic.
pub fn events(trace: &Trace) -> Vec<Event<'_>> {
    let mut out: Vec<Event<'_>> = Vec::with_capacity(trace.sample_count());
    for series in trace.iter() {
        for sample in series.samples() {
            out.push((sample.time, series.id(), sample.value));
        }
    }
    out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    out
}

/// Iterator over the control cycles of a time-sorted event stream: yields
/// `(time, samples)` for each distinct timestamp, in order.
///
/// Its cycle boundaries and within-cycle order match [`for_each_cycle`]'s
/// exactly (pinned by a test), so the overhead harnesses that consume it
/// replay the same cycles [`check`] does.
#[derive(Debug, Clone)]
pub struct Cycles<'e, 't> {
    rest: &'e [Event<'t>],
}

impl<'e, 't> Cycles<'e, 't> {
    /// Wraps a time-sorted event stream (as produced by [`events`]).
    pub fn new(events: &'e [Event<'t>]) -> Self {
        Cycles { rest: events }
    }
}

impl<'e, 't> Iterator for Cycles<'e, 't> {
    type Item = (f64, &'e [Event<'t>]);

    fn next(&mut self) -> Option<Self::Item> {
        let first = self.rest.first()?;
        let t = first.0;
        let n = self.rest.iter().take_while(|e| e.0 == t).count();
        let (cycle, rest) = self.rest.split_at(n);
        self.rest = rest;
        Some((t, cycle))
    }
}

/// Drives `f` over every cycle of `trace`, merging the per-series sample
/// streams directly: each series is already time-sorted, so the cycles
/// come out of a cursor sweep with no flattening, no sort and no
/// allocation beyond one reusable per-cycle buffer.
///
/// Within a cycle the samples arrive in signal-name order (the series
/// iterate name-sorted), matching the tie order of [`events`] exactly —
/// replays through this sweep and through a sorted event stream are
/// byte-identical.
///
/// Both [`check`] and [`replay`] run on the same sweep, so their cycle
/// boundaries agree by construction.
pub fn for_each_cycle(trace: &Trace, f: impl FnMut(f64, &[(&SignalId, f64)])) {
    sweep(
        trace.iter().map(|s| (Some(s.id()), s.samples())).collect(),
        f,
    );
}

/// The cursor merge behind every replay: calls `f` once per distinct
/// timestamp with that cycle's samples in cursor order. A cursor keyed
/// `None` still sets cycle boundaries, but its samples are left out.
///
/// One pass per cycle both takes the samples at `t` and finds the next
/// timestamp, so a cycle costs one visit per cursor.
fn sweep<K: Copy>(mut cursors: Vec<(Option<K>, &[Sample])>, mut f: impl FnMut(f64, &[(K, f64)])) {
    let mut cycle: Vec<(K, f64)> = Vec::with_capacity(cursors.len());
    // Trace times are finite, so infinity means every cursor is spent.
    let mut next = cursors
        .iter()
        .filter_map(|(_, samples)| samples.first())
        .fold(f64::INFINITY, |next, s| next.min(s.time));
    while next < f64::INFINITY {
        let t = next;
        next = f64::INFINITY;
        cycle.clear();
        for (key, samples) in &mut cursors {
            let Some(head) = samples.first() else {
                continue;
            };
            if head.time == t {
                if let Some(key) = *key {
                    cycle.push((key, head.value));
                }
                *samples = &samples[1..];
            }
            if let Some(head) = samples.first() {
                if head.time < next {
                    next = head.time;
                }
            }
        }
        f(t, &cycle);
    }
}

/// Drives `checker` through every cycle of `trace` and returns the trace's
/// end time, the instant every `check*` entry point finishes at.
///
/// Each series is resolved to its checker slot once; series no assertion
/// reads still mark cycle boundaries but their samples are never applied.
fn drive(checker: &mut OnlineChecker, trace: &Trace) -> f64 {
    let cursors = trace
        .iter()
        .map(|s| (checker.slot(s.id()), s.samples()))
        .collect();
    sweep(cursors, |t, cycle| {
        // A Trace rejects non-monotone and non-finite times per series, and
        // the sweep merges them in ascending order.
        checker
            .begin_cycle(t)
            .expect("trace cycles are strictly time-ordered");
        for &(slot, value) in cycle {
            checker.update_slot(slot, value);
        }
        checker.end_cycle();
    });
    trace.span().map_or(0.0, |(_, b)| b)
}

/// Replays `trace` through a fresh [`OnlineChecker`] over `catalog` and
/// returns the report.
///
/// # Example
///
/// ```
/// use adassure_core::catalog::{self, CatalogConfig};
/// use adassure_trace::Trace;
///
/// let trace = Trace::new();
/// let report = adassure_core::checker::check(&catalog::build(&CatalogConfig::default()), &trace);
/// assert!(report.is_clean());
/// ```
pub fn check(catalog: &[Assertion], trace: &Trace) -> CheckReport {
    check_with_health(catalog, HealthConfig::default(), trace)
}

/// [`check`] with an explicit telemetry-health configuration, for callers
/// (and differential tests) that exercise staleness degradation offline.
pub fn check_with_health(
    catalog: &[Assertion],
    health: HealthConfig,
    trace: &Trace,
) -> CheckReport {
    let mut checker = OnlineChecker::with_health(catalog.iter().cloned(), health);
    let end = drive(&mut checker, trace);
    checker.finish(end)
}

/// [`check`] with observability: replays `trace` through a checker whose
/// events (stamped with run id `run`, filtered per `obs`) go to `sink`,
/// and returns the report together with the final metrics and the sink.
///
/// The replayed verdicts are identical to [`check`]'s by construction —
/// observability only *reads* monitor state — which the campaign
/// differential test asserts end to end.
pub fn check_observed(
    catalog: &[Assertion],
    trace: &Trace,
    run: u64,
    obs: &ObsConfig,
    sink: Box<dyn EventSink>,
) -> (CheckReport, MetricsSnapshot, Option<Box<dyn EventSink>>) {
    let mut checker = OnlineChecker::with_observability(
        catalog.iter().cloned(),
        HealthConfig::default(),
        obs,
        sink,
    );
    checker.set_run_id(run);
    let end = drive(&mut checker, trace);
    checker.finish_observed(end)
}

/// Replays `trace` cycle by cycle, invoking `f(t, env)` after each cycle's
/// updates. Used by assertion mining to observe expression values on golden
/// runs with the exact semantics of the online monitor.
pub fn replay(trace: &Trace, mut f: impl FnMut(f64, &crate::expr::Env)) {
    let mut env = crate::expr::Env::new();
    for_each_cycle(trace, |t, cycle| {
        env.set_time(t);
        for &(id, value) in cycle {
            env.update(id, value);
        }
        f(t, &env);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::{Condition, Severity, Temporal};
    use crate::expr::SignalExpr;

    fn bound(limit: f64) -> Assertion {
        Assertion::new(
            "A1",
            "bounded x",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("x").abs(),
                limit,
            },
        )
    }

    #[test]
    fn events_are_time_sorted_with_stable_ties() {
        let mut trace = Trace::new();
        trace.record("b", 0.0, 1.0);
        trace.record("a", 0.0, 2.0);
        trace.record("a", 0.1, 3.0);
        let ev = events(&trace);
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].1.as_str(), "a");
        assert_eq!(ev[1].1.as_str(), "b");
        assert_eq!(ev[2].0, 0.1);
    }

    #[test]
    fn offline_check_detects_excursion() {
        let mut trace = Trace::new();
        for i in 0..100 {
            let t = f64::from(i) * 0.01;
            trace.record("x", t, if t < 0.5 { 0.0 } else { 5.0 });
        }
        let report = check(&[bound(1.0)], &trace);
        assert_eq!(report.violations.len(), 1);
        assert!((report.violations[0].onset - 0.5).abs() < 1e-9);
        assert!((report.end_time - 0.99).abs() < 1e-9);
    }

    #[test]
    fn offline_matches_online_semantics() {
        // Drive the same data both ways and compare.
        let samples: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let t = f64::from(i) * 0.01;
                (t, if (0.7..1.1).contains(&t) { 9.0 } else { 0.0 })
            })
            .collect();
        let assertion = bound(1.0).with_temporal(Temporal::Sustained(0.2));

        let mut trace = Trace::new();
        for &(t, v) in &samples {
            trace.record("x", t, v);
        }
        let offline = check(std::slice::from_ref(&assertion), &trace);

        let mut online = OnlineChecker::new([assertion]);
        for &(t, v) in &samples {
            online.begin_cycle(t).unwrap();
            online.update("x", v);
            online.end_cycle();
        }
        let online = online.finish(trace.span().unwrap().1);

        assert_eq!(offline, online);
        assert_eq!(offline.violations.len(), 1);
    }

    #[test]
    fn replay_exposes_env_per_cycle() {
        let mut trace = Trace::new();
        trace.record("x", 0.0, 1.0);
        trace.record("x", 0.1, 2.0);
        trace.record("y", 0.1, 5.0);
        let mut seen = Vec::new();
        replay(&trace, |t, env| {
            seen.push((t, env.value(&"x".into()), env.value(&"y".into())));
        });
        assert_eq!(
            seen,
            vec![(0.0, Some(1.0), None), (0.1, Some(2.0), Some(5.0))]
        );
    }

    #[test]
    fn cycles_group_by_distinct_timestamp() {
        let mut trace = Trace::new();
        trace.record("b", 0.0, 1.0);
        trace.record("a", 0.0, 2.0);
        trace.record("a", 0.1, 3.0);
        let ev = events(&trace);
        let cycles: Vec<_> = Cycles::new(&ev).collect();
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles[0].0, 0.0);
        assert_eq!(cycles[0].1.len(), 2);
        assert_eq!(cycles[1].0, 0.1);
        assert_eq!(cycles[1].1.len(), 1);
        assert_eq!(Cycles::new(&[]).count(), 0);
    }

    #[test]
    fn cycle_sweep_matches_sorted_event_grouping() {
        // Mixed-rate signals: "fast" every cycle, "slow" every third.
        let mut trace = Trace::new();
        for i in 0..30 {
            let t = f64::from(i) * 0.01;
            trace.record("fast", t, f64::from(i));
            if i % 3 == 0 {
                trace.record("slow", t, -f64::from(i));
            }
        }
        trace.record("zz_late", 0.005, 7.0); // off-grid timestamp
        let mut swept = Vec::new();
        for_each_cycle(&trace, |t, cycle| {
            swept.push((
                t,
                cycle
                    .iter()
                    .map(|(id, v)| (id.as_str().to_owned(), *v))
                    .collect::<Vec<_>>(),
            ));
        });
        let ev = events(&trace);
        let grouped: Vec<_> = Cycles::new(&ev)
            .map(|(t, cycle)| {
                (
                    t,
                    cycle
                        .iter()
                        .map(|(_, id, v)| (id.as_str().to_owned(), *v))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        assert_eq!(swept, grouped);
    }

    #[test]
    fn check_observed_matches_check_and_counts() {
        use adassure_obs::{Event as ObsEvent, VecSink};

        let mut trace = Trace::new();
        for i in 0..100 {
            let t = f64::from(i) * 0.01;
            trace.record("x", t, if t < 0.5 { 0.0 } else { 5.0 });
        }
        let catalog = [bound(1.0)];
        let baseline = check(&catalog, &trace);
        let (report, metrics, sink) = check_observed(
            &catalog,
            &trace,
            7,
            &ObsConfig::enabled(),
            Box::new(VecSink::default()),
        );
        assert_eq!(report, baseline, "observability must not perturb verdicts");
        assert_eq!(metrics.cycles, 100);
        let a = &metrics.assertions[0];
        assert_eq!(a.id, "A1");
        assert_eq!(a.verdicts.total(), 100);
        assert_eq!(a.verdicts.pass, 50);
        assert_eq!(a.verdicts.violated, 50);
        assert_eq!(a.episodes, 1);
        assert_eq!(a.flips, 2, "unknown→pass, pass→violated");
        let events = sink.expect("sink returned").take_events();
        assert_eq!(metrics.events_emitted, events.len() as u64);
        assert!(events.iter().all(|e| e.run() == 7));
        assert!(matches!(events.first(), Some(ObsEvent::RunStart { .. })));
        assert!(matches!(events.last(), Some(ObsEvent::RunEnd { .. })));
    }

    #[test]
    fn empty_trace_is_clean() {
        let report = check(&[bound(1.0)], &Trace::new());
        assert!(report.is_clean());
        assert_eq!(report.end_time, 0.0);
    }
}
