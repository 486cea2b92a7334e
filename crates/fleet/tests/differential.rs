//! The fleet's central guarantee, pinned: sharded, batched, concurrent
//! checking produces **bit-identical** verdicts, violations and metrics
//! to running every stream on its own serial [`OnlineChecker`], for any
//! shard count and any number of threads submitting at once. The
//! synthetic streams carry excursions, NaN samples and gnss dropouts, so
//! verdicts, telemetry health, poisoning and staleness all cross the
//! shard and submitter boundaries.

use std::sync::Arc;

use adassure_core::{
    Assertion, CheckReport, CheckerPlan, Condition, HealthConfig, OnlineChecker, Severity,
    SignalExpr, Temporal,
};
use adassure_fleet::{Fleet, FleetConfig, SampleBatch};
use adassure_obs::MetricsSnapshot;

fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "F1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "F2",
            "speed stays positive",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("speed"),
                limit: 0.0,
            },
        )
        .with_temporal(Temporal::Sustained(0.15)),
        Assertion::new(
            "F3",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.3,
            },
        ),
    ]
}

fn health() -> HealthConfig {
    HealthConfig {
        stale_after: 0.5,
        quarantine_after: 8,
        recover_after: 3,
    }
}

/// One cycle of one stream: a timestamp and its channel samples.
struct Cycle {
    t: f64,
    samples: Vec<(&'static str, f64)>,
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn uniform(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }
}

/// A deterministic synthetic telemetry stream: mostly clean driving with
/// seeded excursions, NaN bursts and gnss dropouts so every verdict,
/// health state and temporal operator in the catalog gets exercised.
fn stream_cycles(seed: u64, cycles: usize) -> Vec<Cycle> {
    let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));
    let mut out = Vec::with_capacity(cycles);
    for k in 0..cycles {
        let t = 0.05 * (k + 1) as f64;
        let mut samples = Vec::new();
        let roll = rng.uniform();
        let xtrack = if roll < 0.15 {
            1.0 + 3.0 * rng.uniform() // excursion
        } else if roll < 0.2 {
            f64::NAN // poisoned sample
        } else {
            rng.uniform() * 0.8
        };
        samples.push(("xtrack", xtrack));
        if rng.uniform() > 0.1 {
            let speed = if rng.uniform() < 0.1 {
                -rng.uniform()
            } else {
                5.0 + rng.uniform()
            };
            samples.push(("speed", speed));
        }
        if rng.uniform() > 0.3 {
            samples.push(("gnss_x", rng.uniform() * 100.0));
        }
        out.push(Cycle { t, samples });
    }
    out
}

const STREAMS: usize = 24;

fn fleet_streams() -> Vec<Vec<Cycle>> {
    (0..STREAMS)
        .map(|i| stream_cycles(i as u64, 60 + (i % 7) * 10))
        .collect()
}

/// The serial oracle: one checker per stream, cycles applied in order,
/// snapshots merged in close order (= open order here) — exactly the
/// merge order `Fleet::metrics` uses once every stream is closed.
fn run_serial(plan: &Arc<CheckerPlan>, streams: &[Vec<Cycle>]) -> (Vec<CheckReport>, String) {
    let mut reports = Vec::new();
    let mut merged = MetricsSnapshot::empty();
    for cycles in streams {
        let mut checker = OnlineChecker::from_plan(Arc::clone(plan), health());
        let mut last_t = 0.0;
        for cycle in cycles {
            checker
                .begin_cycle(cycle.t)
                .expect("monotone by construction");
            for &(channel, value) in &cycle.samples {
                checker.update(channel, value);
            }
            checker.end_cycle();
            last_t = cycle.t;
        }
        let (report, snapshot, _) = checker.finish_observed(last_t);
        merged.merge(&snapshot);
        reports.push(report);
    }
    let summary = serde_json::to_string(&merged.summary()).expect("summary serializes");
    (reports, summary)
}

/// The system under test: the same streams through a fleet with the given
/// layout. Batches are cut at seeded cycle boundaries. `submitters`
/// threads each take every `submitters`-th stream and submit round-robin
/// across their streams through a clone of one `FleetHandle`, so streams
/// on a shared shard are applied concurrently while each stream keeps
/// its batch order.
fn run_fleet(
    plan: &Arc<CheckerPlan>,
    streams: &[Vec<Cycle>],
    shards: usize,
    submitters: usize,
) -> (Vec<CheckReport>, String) {
    let mut fleet = Fleet::with_plan(
        Arc::clone(plan),
        FleetConfig {
            shards,
            health: health(),
            ..FleetConfig::default()
        },
    );
    let ids: Vec<_> = (0..streams.len()).map(|_| fleet.open_stream()).collect();

    // Cut each stream into batches of 1..=4 cycles, seeded per stream.
    let mut batches: Vec<Vec<SampleBatch>> = Vec::new();
    for (index, cycles) in streams.iter().enumerate() {
        let mut cuts = Lcg(4242 + index as u64);
        let mut per_stream = Vec::new();
        let mut batch = SampleBatch::new(ids[index]);
        let mut left = 1 + (cuts.next() % 4) as usize;
        for cycle in cycles {
            for &(channel, value) in &cycle.samples {
                batch.push(cycle.t, channel, value);
            }
            left -= 1;
            if left == 0 {
                per_stream.push(std::mem::replace(&mut batch, SampleBatch::new(ids[index])));
                left = 1 + (cuts.next() % 4) as usize;
            }
        }
        if !batch.samples.is_empty() {
            per_stream.push(batch);
        }
        batches.push(per_stream);
    }

    // Each thread interleaves its streams round-robin (per-stream order
    // preserved — that is the only order that matters).
    let handle = fleet.handle();
    std::thread::scope(|scope| {
        for first in 0..submitters {
            let (handle, batches) = (handle.clone(), &batches);
            scope.spawn(move || {
                let mine: Vec<&Vec<SampleBatch>> =
                    batches.iter().skip(first).step_by(submitters).collect();
                let rounds = mine.iter().map(|b| b.len()).max().unwrap_or(0);
                for round in 0..rounds {
                    for batch in mine.iter().filter_map(|b| b.get(round)) {
                        handle.submit(batch.clone()).expect("submit");
                    }
                }
            });
        }
    });

    let reports = ids
        .iter()
        .map(|&id| fleet.close_stream(id).expect("close").0)
        .collect();
    let summary = serde_json::to_string(&fleet.metrics().summary()).expect("summary serializes");
    (reports, summary)
}

#[test]
fn sharded_fleet_matches_serial_for_any_layout() {
    let plan = Arc::new(CheckerPlan::compile(catalog()));
    let streams = fleet_streams();
    let (serial_reports, serial_summary) = run_serial(&plan, &streams);

    // The serial oracle is not vacuous: the synthetic streams really
    // exercise violations and inconclusive health.
    assert!(serial_reports.iter().any(|r| !r.violations.is_empty()));
    assert!(serial_reports.iter().any(|r| r.inconclusive_cycles > 0));

    for (shards, submitters) in [(1, 1), (2, 4), (7, 2), (24, 3), (3, 8)] {
        let (reports, summary) = run_fleet(&plan, &streams, shards, submitters);
        for (index, (fleet_report, serial_report)) in
            reports.iter().zip(&serial_reports).enumerate()
        {
            assert_eq!(
                fleet_report, serial_report,
                "stream {index} diverged at shards={shards} submitters={submitters}"
            );
        }
        assert_eq!(
            summary, serial_summary,
            "merged metrics diverged at shards={shards} submitters={submitters}"
        );
    }
}
