//! The two ways a batch reaches a checker give the same result: a batch
//! applied from its decoded wire frame, read in place
//! (`FrameDecoder::next_frame_ref` then `FleetHandle::submit_frame`, the
//! ingest server's path), and the same batch applied owned through
//! `Fleet::submit`. Reports must match byte for byte and the fleet
//! counters exactly, on hostile content: NaN and infinite values, NaN,
//! repeated and decreasing timestamps, channels no assertion reads, and
//! both well-known and dynamic channel names. Both must also match a
//! plain per-sample reference that feeds each stream's `OnlineChecker`
//! by name, the way batches were applied before they stayed columnar.

use adassure_core::{
    Assertion, CheckReport, Condition, HealthConfig, OnlineChecker, Severity, SignalExpr, Temporal,
};
use adassure_fleet::wire::{encode_sample_batch, FrameDecoder, FrameRef, DEFAULT_MAX_FRAME_LEN};
use adassure_fleet::{Fleet, FleetConfig, SampleBatch, StreamId};
use proptest::prelude::*;

/// Channels the generator draws from: well-known names read by the
/// catalog, dynamic names read by it, and one of each that nothing reads.
const CHANNELS: [&str; 7] = [
    "xtrack_err",
    "wheel_speed",
    "gnss_x",
    "lidar_range",
    "brake_temp",
    "steer_cmd",
    "cabin_temp",
];

const STREAMS: usize = 3;

fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "D1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack_err").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "D2",
            "wheel speed stays non-negative",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("wheel_speed"),
                limit: 0.0,
            },
        )
        .with_temporal(Temporal::Sustained(0.1)),
        Assertion::new(
            "D3",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.3,
            },
        ),
        Assertion::new(
            "D4",
            "lidar range under brake temperature",
            Severity::Warning,
            Condition::AtMost {
                expr: SignalExpr::signal("lidar_range").sub(SignalExpr::signal("brake_temp")),
                limit: 20.0,
            },
        ),
    ]
}

fn config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        health: HealthConfig {
            stale_after: 0.5,
            quarantine_after: 4,
            recover_after: 2,
        },
        ..FleetConfig::default()
    }
}

/// How a cycle's timestamp relates to the stream's clock.
#[derive(Debug, Clone, Copy)]
enum Step {
    Advance(u32),
    Repeat,
    Back(u32),
    Nan,
}

/// Mostly advancing, so that streams get far enough to raise, debounce
/// and recover violations between the bad cycles.
fn step() -> impl Strategy<Value = Step> {
    (0u32..10, 1u32..200).prop_map(|(kind, ms)| match kind {
        0 => Step::Repeat,
        1 => Step::Back(ms),
        2 => Step::Nan,
        _ => Step::Advance(ms),
    })
}

/// Mostly finite, with NaN and both infinities mixed in.
fn value() -> impl Strategy<Value = f64> {
    (0u32..12, -3000i32..3000).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => f64::from(v) / 100.0,
    })
}

/// One cycle: its timestamp step and its samples as (channel, value).
type Cycle = (Step, Vec<(usize, f64)>);

/// One batch: the index of its target stream and its cycles.
type RawBatch = (usize, Vec<Cycle>);

fn cycle() -> impl Strategy<Value = Cycle> {
    (
        step(),
        proptest::collection::vec((0..CHANNELS.len(), value()), 0..9),
    )
}

fn batch() -> impl Strategy<Value = RawBatch> {
    (0..STREAMS, proptest::collection::vec(cycle(), 0..8))
}

/// Builds the batches against `ids`, one clock per stream.
fn build(ids: &[StreamId], raw: &[RawBatch]) -> Vec<SampleBatch> {
    let mut clocks = vec![0.0f64; ids.len()];
    raw.iter()
        .map(|(stream, cycles)| {
            let mut batch = SampleBatch::new(ids[*stream]);
            let clock = &mut clocks[*stream];
            for (step, samples) in cycles {
                let t = match *step {
                    Step::Advance(ms) => {
                        *clock += f64::from(ms) / 1000.0;
                        *clock
                    }
                    Step::Repeat => *clock,
                    Step::Back(ms) => *clock - f64::from(ms) / 1000.0,
                    Step::Nan => f64::NAN,
                };
                for &(channel, value) in samples {
                    batch.push(t, CHANNELS[channel], value);
                }
            }
            batch
        })
        .collect()
}

/// The per-sample reference: each batch's runs of equal timestamps are
/// cycles (a NaN-stamped sample is a cycle of its own), every sample is
/// fed by name, and each stream finishes at its last accepted cycle.
fn reference(batches: &[SampleBatch], ids: &[StreamId]) -> Vec<CheckReport> {
    let mut streams: Vec<(OnlineChecker, f64)> = ids
        .iter()
        .map(|_| (OnlineChecker::with_health(catalog(), config().health), 0.0))
        .collect();
    for batch in batches {
        let stream = ids
            .iter()
            .position(|id| *id == batch.stream)
            .expect("known id");
        let (checker, last_t) = &mut streams[stream];
        let mut rest = &batch.samples[..];
        while let Some(first) = rest.first() {
            let run = 1 + rest[1..].iter().take_while(|s| s.t == first.t).count();
            let (cycle, tail) = rest.split_at(run);
            rest = tail;
            if checker.begin_cycle(first.t).is_err() {
                continue;
            }
            for sample in cycle {
                checker.update(sample.channel.clone(), sample.value);
            }
            checker.end_cycle();
            *last_t = first.t;
        }
    }
    streams
        .into_iter()
        .map(|(checker, last_t)| checker.finish(last_t))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_frame_apply_matches_owned_submit(
        raw in proptest::collection::vec(batch(), 1..24),
    ) {
        let mut wire_fleet = Fleet::new(catalog(), config());
        let mut owned_fleet = Fleet::new(catalog(), config());
        let ids: Vec<StreamId> = (0..STREAMS).map(|_| wire_fleet.open_stream()).collect();
        let owned_ids: Vec<StreamId> = (0..STREAMS).map(|_| owned_fleet.open_stream()).collect();
        prop_assert_eq!(&ids, &owned_ids);

        let batches = build(&ids, &raw);
        let expected = reference(&batches, &ids);
        let handle = wire_fleet.handle();
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut bytes = Vec::new();
        for (seq, batch) in batches.into_iter().enumerate() {
            bytes.clear();
            encode_sample_batch(&mut bytes, seq as u64, &batch).expect("test channels encode");
            decoder.feed(&bytes);
            match decoder.next_frame_ref().expect("an encoded batch decodes") {
                Some(FrameRef::SampleBatch(frame)) => {
                    prop_assert_eq!(frame.len(), batch.samples.len());
                    handle.submit_frame(&frame).expect("known shard");
                }
                other => panic!("expected a borrowed batch, got {other:?}"),
            }
            owned_fleet.submit(batch).expect("known shard");
        }
        prop_assert_eq!(wire_fleet.stats(), owned_fleet.stats());
        prop_assert_eq!(
            serde_json::to_vec(&wire_fleet.metrics().summary()).expect("summary serializes"),
            serde_json::to_vec(&owned_fleet.metrics().summary()).expect("summary serializes")
        );
        for (id, expected) in ids.into_iter().zip(&expected) {
            let (wire_report, _) = wire_fleet.close_stream(id).expect("open stream");
            let (owned_report, _) = owned_fleet.close_stream(id).expect("open stream");
            let wire_json = serde_json::to_vec(&wire_report).expect("report serializes");
            prop_assert_eq!(
                &wire_json,
                &serde_json::to_vec(&owned_report).expect("report serializes")
            );
            prop_assert_eq!(
                &wire_json,
                &serde_json::to_vec(expected).expect("report serializes")
            );
        }
    }
}
