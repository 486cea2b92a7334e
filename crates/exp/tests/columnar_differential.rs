//! End-to-end differential over the full columnar pipeline: traces
//! exported to CSV, re-imported, converted to [`ColumnarTrace`],
//! round-tripped through the `.adt` binary encoding and checked by the
//! lane-batched engine must produce reports byte-identical (as JSON) to
//! the scalar per-trace replay over the original in-memory traces.
//!
//! This is the integration-level counterpart of the property test in
//! `adassure-core/tests/proptests.rs`: instead of synthetic generators it
//! exercises the exact artefact flows a campaign uses — the CSV
//! interchange leg `trace-import` consumes, and the `.adt` corpus leg
//! `check_columnar_traces` consumes.

use adassure_control::pipeline::EstimatorKind;
use adassure_control::ControllerKind;
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::grid::RunSpec;
use adassure_exp::{check_columnar_traces, check_traces_scalar};
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_trace::{csv, well_known, ColumnarTrace, Trace};

fn assert_reports_match(
    lane_reports: &[adassure_core::CheckReport],
    scalar_reports: &[adassure_core::CheckReport],
) {
    assert_eq!(lane_reports.len(), scalar_reports.len());
    for (i, (lane, scalar)) in lane_reports.iter().zip(scalar_reports).enumerate() {
        let lane_json = serde_json::to_string(lane).expect("serialize");
        let scalar_json = serde_json::to_string(scalar).expect("serialize");
        assert_eq!(
            lane_json, scalar_json,
            "trace {i}: columnar pipeline diverged from scalar replay"
        );
    }
}

/// CSV leg: the interchange format carries cycle-aligned tables (every
/// signal sampled every cycle — a controller-log shape), so this leg uses
/// seeded synthetic tables over the well-known signal set. Ten traces of
/// 400 cycles cross several 64-cycle words, and the xorshift wobble trips
/// some catalog bounds so
/// the compared reports contain real violations.
#[test]
fn csv_adt_lane_pipeline_matches_scalar_replay() {
    let scenario = Scenario::of_kind(ScenarioKind::Straight).expect("scenario");
    let cat = standard_catalog(&scenario);

    let traces: Vec<Trace> = (1..=10u64)
        .map(|seed| {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut trace = Trace::new();
            for i in 0..400u32 {
                let t = f64::from(i) * 0.01;
                for (j, name) in well_known::ALL.iter().enumerate() {
                    let wobble = 0.4 * rng() - 0.2;
                    let value = 0.05 * f64::from(i).sin() + 0.01 * j as f64 + wobble;
                    trace.record(*name, t, value);
                }
            }
            trace
        })
        .collect();

    let columnar: Vec<ColumnarTrace> = traces
        .iter()
        .map(|t| {
            let text = csv::to_csv(t).expect("csv export");
            let reimported = csv::from_csv(&text).expect("csv import");
            let bytes = ColumnarTrace::from_trace(&reimported).encode();
            ColumnarTrace::decode(&bytes).expect("adt decode")
        })
        .collect();

    assert_reports_match(
        &check_columnar_traces(&cat, &columnar),
        &check_traces_scalar(&cat, &traces),
    );
}

/// `.adt` leg: real simulator traces (multi-rate — GNSS and wheel series
/// are sparse relative to the controller cycle, so they cannot take the
/// CSV leg) round-tripped through the binary encoding.
#[test]
fn sim_traces_through_adt_match_scalar_replay() {
    let scenario = Scenario::of_kind(ScenarioKind::Straight).expect("scenario");
    let cat = standard_catalog(&scenario);

    let traces: Vec<Trace> = (1..=3u64)
        .map(|seed| {
            let spec = RunSpec {
                index: 0,
                scenario: scenario.kind,
                controller: ControllerKind::PurePursuit,
                estimator: EstimatorKind::Complementary,
                attack: None,
                seed,
            };
            let (out, _) = execute(&spec, &cat).expect("simulation runs");
            out.trace
        })
        .collect();

    let columnar: Vec<ColumnarTrace> = traces
        .iter()
        .map(|t| {
            let bytes = ColumnarTrace::from_trace(t).encode();
            ColumnarTrace::decode(&bytes).expect("adt decode")
        })
        .collect();

    assert_reports_match(
        &check_columnar_traces(&cat, &columnar),
        &check_traces_scalar(&cat, &traces),
    );
}
