//! Property-based test of the crash-recovery invariant: checkpointing a
//! fleet mid-campaign and continuing from the restored image yields
//! bit-identical per-stream reports and metrics to an uninterrupted run —
//! for any shard layout, any split point (including mid-confirm-window
//! guardians), and any health state (degraded, quarantined, recovering).

use adassure_core::{Assertion, Condition, HealthConfig, Severity, SignalExpr};
use adassure_fleet::{
    Fleet, FleetConfig, GuardConfig, SampleBatch, StreamConfig, StreamGuard, StreamId,
};
use proptest::prelude::*;

fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "P1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "P2",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.11,
            },
        ),
    ]
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        // Aggressive health thresholds so random traffic actually
        // reaches Degraded and Suspended before the split point.
        health: HealthConfig {
            stale_after: 0.11,
            quarantine_after: 2,
            recover_after: 3,
        },
        ..FleetConfig::default()
    }
}

const MAX_STREAMS: usize = 4;

/// One cycle's per-stream traffic: does `xtrack` violate, and does the
/// gnss fix arrive (absences drive Fresh violations and staleness
/// degradation/quarantine)?
type CycleSpec = [(bool, bool); MAX_STREAMS];

fn open_streams(fleet: &mut Fleet, guards: &[bool]) -> Vec<StreamId> {
    guards
        .iter()
        .map(|&guarded| {
            fleet.open_stream_with(StreamConfig {
                injector: None,
                // Tight confirmation window so splits land inside it.
                guard: guarded.then(|| {
                    StreamGuard::new(GuardConfig {
                        confirm_cycles: 3,
                        recover_cycles: 4,
                    })
                }),
            })
        })
        .collect()
}

fn feed(fleet: &Fleet, ids: &[StreamId], cycles: &[CycleSpec], from: usize) {
    for (i, cycle) in cycles.iter().enumerate().skip(from) {
        let t = 0.05 * (i + 1) as f64;
        for (stream, &(violate, gnss)) in ids.iter().zip(cycle.iter()) {
            let mut batch = SampleBatch::new(*stream);
            batch.push(t, "xtrack", if violate { 2.5 } else { 0.4 });
            if gnss {
                batch.push(t, "gnss_x", 1.0);
            }
            fleet.submit(batch).expect("submit");
        }
    }
}

/// Close every stream and serialize everything observable: per-stream
/// reports in order, then the merged metrics summary.
fn observable_output(mut fleet: Fleet, ids: &[StreamId]) -> Vec<String> {
    let mut out = Vec::with_capacity(ids.len() + 1);
    for &id in ids {
        let (report, _) = fleet.close_stream(id).expect("stream is open");
        out.push(serde_json::to_string(&report).expect("report serializes"));
    }
    out.push(serde_json::to_string(&fleet.metrics().summary()).expect("summary serializes"));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restored_fleet_continues_bit_identically(
        shards in 1usize..4,
        n_streams in 1usize..(MAX_STREAMS + 1),
        guards in proptest::collection::vec(any::<bool>(), MAX_STREAMS),
        cycles in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), any::<bool>()), MAX_STREAMS),
            4usize..28,
        ),
        split_roll in 0usize..1000,
    ) {
        let guards = &guards[..n_streams];
        let cycles: Vec<CycleSpec> = cycles
            .iter()
            .map(|c| {
                let mut spec = [(false, false); MAX_STREAMS];
                spec.copy_from_slice(&c[..MAX_STREAMS]);
                spec
            })
            .collect();
        let split = split_roll % (cycles.len() + 1);

        // Oracle: the same traffic, never interrupted.
        let mut oracle = Fleet::new(catalog(), config(shards));
        let oracle_ids = open_streams(&mut oracle, guards);
        feed(&oracle, &oracle_ids, &cycles, 0);
        let expected = observable_output(oracle, &oracle_ids);

        // Subject: checkpoint at the split, restore, continue.
        let mut subject = Fleet::new(catalog(), config(shards));
        let subject_ids = open_streams(&mut subject, guards);
        feed(&subject, &subject_ids, &cycles[..split], 0);
        let image = subject.checkpoint().expect("checkpointable fleet");
        drop(subject); // the "crash"
        let restored =
            Fleet::restore(catalog(), config(shards), &image).expect("image restores");
        feed(&restored, &subject_ids, &cycles, split);
        let actual = observable_output(restored, &subject_ids);

        prop_assert_eq!(actual, expected);
    }
}
