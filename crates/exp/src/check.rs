//! Parallel offline checking: fan a batch of recorded traces across the
//! deterministic campaign executor.
//!
//! Scenario-replay pipelines check thousands of traces against the same
//! catalog. The batch path converts each trace to [`ColumnarTrace`] and
//! checks it on the columnar engine ([`lane`]), one trace per
//! [`par::map`] work item. Reports come back in input order and are
//! bit-identical to the serial scalar loop for any worker count (the
//! columnar engine's differential property test pins this).

use adassure_core::{checker, lane, Assertion, CheckReport};
use adassure_trace::{ColumnarTrace, Trace};

use crate::par;

/// Checks every trace against `catalog` on the columnar engine, one trace
/// per work item across the campaign thread pool.
pub fn check_traces(catalog: &[Assertion], traces: &[Trace]) -> Vec<CheckReport> {
    par::map(traces, |trace| {
        lane::check_columnar(catalog, &[ColumnarTrace::from_trace(trace)]).remove(0)
    })
}

/// Checks every trace against `catalog` with the scalar per-trace replay,
/// one trace per work item. Kept as the differential baseline for
/// [`check_traces`] (and for callers that already hold scalar traces they
/// are about to mutate).
pub fn check_traces_scalar(catalog: &[Assertion], traces: &[Trace]) -> Vec<CheckReport> {
    par::map(traces, |trace| checker::check(catalog, trace))
}

/// Checks a batch already in columnar form — the `.adt` corpus fast path:
/// no conversion, the traces fan straight out across the pool.
pub fn check_columnar_traces(catalog: &[Assertion], traces: &[ColumnarTrace]) -> Vec<CheckReport> {
    par::map(traces, |trace| {
        lane::check_columnar(catalog, std::slice::from_ref(trace)).remove(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adassure_core::assertion::{Condition, Severity};
    use adassure_core::SignalExpr;

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

    fn trace_with_peak(peak: f64) -> Trace {
        let mut t = Trace::new();
        for i in 0..50 {
            let time = f64::from(i) * 0.01;
            t.record("x", time, if i == 25 { peak } else { 0.0 });
        }
        t
    }

    #[test]
    fn parallel_batch_matches_serial_checks() {
        let catalog = [bound(1.0)];
        let traces: Vec<Trace> = (0..19)
            .map(|i| trace_with_peak(f64::from(i) * 0.4))
            .collect();
        let parallel = check_traces(&catalog, &traces);
        let serial: Vec<CheckReport> = traces.iter().map(|t| checker::check(&catalog, t)).collect();
        assert_eq!(parallel, serial);
        assert_eq!(check_traces_scalar(&catalog, &traces), serial);
        // Peaks above 1.0 violate the bound: i * 0.4 > 1.0 for i >= 3.
        assert_eq!(parallel.iter().filter(|r| !r.is_clean()).count(), 16);
    }

    #[test]
    fn columnar_batch_matches_trace_batch() {
        let catalog = [bound(1.0)];
        let traces: Vec<Trace> = (0..10).map(|i| trace_with_peak(f64::from(i))).collect();
        let columnar: Vec<ColumnarTrace> = traces.iter().map(ColumnarTrace::from_trace).collect();
        assert_eq!(
            check_columnar_traces(&catalog, &columnar),
            check_traces(&catalog, &traces)
        );
    }

    #[test]
    fn empty_batch_yields_no_reports() {
        assert!(check_traces(&[bound(1.0)], &[]).is_empty());
        assert!(check_columnar_traces(&[bound(1.0)], &[]).is_empty());
    }
}
