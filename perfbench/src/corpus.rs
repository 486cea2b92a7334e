//! Seeded benchmark inputs: the simulated drive corpus (for the offline,
//! replay and trip workloads) and the synthetic fleet telemetry (for the
//! bulk ingest workload). The same seed always gives the same inputs.

use adassure_control::pipeline::EstimatorKind;
use adassure_control::ControllerKind;
use adassure_core::{checker, Assertion, Condition, Severity, SignalExpr};
use adassure_exp::campaign::{self, standard_catalog};
use adassure_exp::RunSpec;
use adassure_fleet::{SampleBatch, StreamId};
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_trace::Trace;

use crate::spans::{Span, Spans};

/// Length of one recorded segment: drives are cut into fixed-length
/// segments so every op of a workload does about the same work.
const SEGMENT_S: f64 = 13.0;
/// Segments cut from each drive: before the attack (which starts at
/// 12 s), its onset, and its effect. Every seed's corpus therefore has
/// the same mix of phases; the seed changes the noise, not the mix.
const SEGMENTS_PER_CELL: usize = 3;
/// Segments in the corpus: three lane groups of eight.
pub const SEGMENTS: usize = CELLS.len() * SEGMENTS_PER_CELL;
/// The simulator's control period.
const CYCLE_S: f64 = 0.01;

/// Campaign cells: clean and attacked drives over two scenarios and two
/// controllers. Every one lasts at least `SEGMENTS_PER_CELL` segments.
/// Attacks index `adassure_attacks::campaign::standard_attacks`.
const CELLS: [(ScenarioKind, ControllerKind, Option<usize>); 8] = [
    (ScenarioKind::Straight, ControllerKind::PurePursuit, None),
    (ScenarioKind::SCurve, ControllerKind::Stanley, Some(2)),
    (ScenarioKind::SCurve, ControllerKind::PurePursuit, None),
    (ScenarioKind::Straight, ControllerKind::Stanley, Some(1)),
    (ScenarioKind::Straight, ControllerKind::Stanley, None),
    (ScenarioKind::SCurve, ControllerKind::PurePursuit, Some(9)),
    (ScenarioKind::SCurve, ControllerKind::Stanley, None),
    (
        ScenarioKind::Straight,
        ControllerKind::PurePursuit,
        Some(10),
    ),
];

/// SplitMix64 finaliser: decorrelates derived seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The standard 16-assertion catalog every drive segment is checked
/// against (the Straight scenario's, goal distance included).
pub fn drive_catalog() -> Vec<Assertion> {
    standard_catalog(&Scenario::of_kind(ScenarioKind::Straight).expect("library scenario"))
}

/// Runs the seeded campaign and cuts each drive into
/// `SEGMENTS_PER_CELL` segments of [`SEGMENT_S`] seconds from its start,
/// keeping their recorded timestamps. Each cell's simulation is one
/// [`Span::CampaignExecute`].
pub fn drive_segments(seed: u64, spans: &mut Spans) -> Vec<Trace> {
    let mut segments = Vec::with_capacity(SEGMENTS);
    for (index, &(scenario, controller, attack)) in CELLS.iter().enumerate() {
        let start = Scenario::of_kind(scenario)
            .expect("library scenario")
            .attack_start;
        let spec = RunSpec {
            index,
            scenario,
            controller,
            estimator: EstimatorKind::Complementary,
            attack: attack.map(|i| adassure_attacks::campaign::standard_attacks(start)[i]),
            seed: mix(seed, index as u64),
        };
        let output = spans.time(Span::CampaignExecute, || campaign::simulate(&spec));
        let trace = output.expect("library scenarios simulate").trace;
        for k in 0..SEGMENTS_PER_CELL {
            let from = k as f64 * SEGMENT_S - CYCLE_S / 2.0;
            let segment = trace.slice_time(from, from + SEGMENT_S);
            assert!(
                segment.sample_count() > 0,
                "cell {index} drove past segment {k}"
            );
            segments.push(segment);
        }
    }
    segments
}

/// One short trip for the trip workload: its batches (addressed to a
/// placeholder stream) and its size.
#[derive(Debug, Clone)]
pub struct Trip {
    /// The trip's batches, cut at cycle boundaries.
    pub batches: Vec<SampleBatch>,
    /// Samples across all batches.
    pub samples: u64,
    /// Control cycles across all batches.
    pub cycles: u64,
}

/// `count` trips of `trip_s` seconds, batched `batch_cycles` cycles per
/// batch. Trip `i` is cut from segment `i` (cyclically) at a seeded
/// offset, so every segment, and so every drive phase, is used equally.
pub fn trips(
    segments: &[Trace],
    seed: u64,
    count: usize,
    trip_s: f64,
    batch_cycles: usize,
) -> Vec<Trip> {
    let mut rng = Lcg::new(mix(seed, 0x7219));
    let offsets = ((SEGMENT_S - trip_s) / CYCLE_S) as u64;
    (0..count)
        .map(|i| {
            let segment = &segments[i % segments.len()];
            let first = segment.span().map_or(0.0, |(a, _)| a);
            let from = first + (rng.next() % offsets) as f64 * CYCLE_S - CYCLE_S / 2.0;
            let trip = segment.slice_time(from, from + trip_s);
            let mut out = Trip {
                batches: Vec::new(),
                samples: 0,
                cycles: 0,
            };
            let mut batch = SampleBatch::new(placeholder());
            let mut in_batch = 0;
            checker::for_each_cycle(&trip, |t, cycle| {
                for (id, value) in cycle {
                    batch.push(t, (*id).clone(), *value);
                }
                out.samples += cycle.len() as u64;
                out.cycles += 1;
                in_batch += 1;
                if in_batch == batch_cycles {
                    out.batches.push(std::mem::replace(
                        &mut batch,
                        SampleBatch::new(placeholder()),
                    ));
                    in_batch = 0;
                }
            });
            if !batch.samples.is_empty() {
                out.batches.push(batch);
            }
            out
        })
        .collect()
}

/// The stream id batches carry until a real stream is opened for them.
fn placeholder() -> StreamId {
    StreamId::from_raw(0, 0, 0)
}

/// The three-assertion fleet catalog of the fleet soaks (N1–N3).
pub fn fleet_catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "N1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "N2",
            "speed stays non-negative",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("speed"),
                limit: 0.0,
            },
        ),
        Assertion::new(
            "N3",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.5,
            },
        ),
    ]
}

/// Seeded 3-channel telemetry for `streams` long-lived streams of
/// `cycles` cycles each, `batch_cycles` cycles per batch: the fleet
/// soaks' LCG synthesizer (2 % cross-track excursions, 20 % gnss loss).
pub fn telemetry(
    seed: u64,
    streams: usize,
    cycles: usize,
    batch_cycles: usize,
) -> Vec<Vec<SampleBatch>> {
    (0..streams)
        .map(|k| {
            let mut rng = Lcg::new(mix(seed, 0x5EED_0000 + k as u64));
            let mut t = 0.0;
            let mut batches = Vec::with_capacity(cycles.div_ceil(batch_cycles));
            for first in (0..cycles).step_by(batch_cycles) {
                let mut batch = SampleBatch::new(placeholder());
                for _ in first..(first + batch_cycles).min(cycles) {
                    t += 0.05;
                    let xtrack = if rng.uniform() < 0.02 {
                        1.0 + rng.uniform() * 2.0
                    } else {
                        rng.uniform() * 0.9
                    };
                    batch.push(t, "xtrack", xtrack);
                    batch.push(t, "speed", 4.0 + rng.uniform());
                    if rng.uniform() > 0.2 {
                        batch.push(t, "gnss_x", rng.uniform() * 50.0);
                    }
                }
                batches.push(batch);
            }
            batches
        })
        .collect()
}

/// The 64-bit LCG of the fleet soaks.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed)
    }

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

/// FNV-1a over a sequence of byte strings.
#[cfg(test)]
pub fn digest<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of the corpus as `.adt` documents.
#[cfg(test)]
pub fn corpus_digest(segments: &[Trace]) -> u64 {
    let docs: Vec<Vec<u8>> = segments
        .iter()
        .map(|s| adassure_trace::ColumnarTrace::from_trace(s).encode())
        .collect();
    digest(docs.iter().map(Vec::as_slice))
}

/// Digest of batches as encoded wire frames.
#[cfg(test)]
pub fn batch_digest<'a>(batches: impl IntoIterator<Item = &'a SampleBatch>) -> u64 {
    let frames: Vec<Vec<u8>> = batches
        .into_iter()
        .enumerate()
        .map(|(seq, batch)| {
            let mut frame = Vec::new();
            adassure_fleet::wire::encode_sample_batch(&mut frame, seq as u64, batch)
                .expect("generated channel names are encodable");
            frame
        })
        .collect();
    digest(frames.iter().map(Vec::as_slice))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let mut spans = Spans::new(false);
        let a = drive_segments(11, &mut spans);
        let b = drive_segments(11, &mut spans);
        assert_eq!(corpus_digest(&a), corpus_digest(&b));
        let trips_a = trips(&a, 11, 16, 1.0, 25);
        let trips_b = trips(&b, 11, 16, 1.0, 25);
        let flat = |t: &[Trip]| batch_digest(t.iter().flat_map(|trip| &trip.batches));
        assert_eq!(flat(&trips_a), flat(&trips_b));
        let bulk = |seed| batch_digest(telemetry(seed, 8, 90, 30).iter().flatten());
        assert_eq!(bulk(11), bulk(11));

        // Another seed gives other inputs of the same shape.
        let c = drive_segments(12, &mut spans);
        assert_ne!(corpus_digest(&a), corpus_digest(&c));
        assert_eq!(c.len(), SEGMENTS);
        assert_ne!(bulk(11), bulk(12));
    }

    #[test]
    fn segments_have_the_fixed_length() {
        let mut spans = Spans::new(true);
        let segments = drive_segments(3, &mut spans);
        assert_eq!(spans.get(Span::CampaignExecute).count as usize, CELLS.len());
        for s in &segments {
            let (a, b) = s.span().expect("segment has samples");
            let cycles = ((b - a) / CYCLE_S).round() as usize + 1;
            assert_eq!(cycles, (SEGMENT_S / CYCLE_S) as usize, "segment {a}..{b}");
            assert_eq!(s.signal_count(), 30);
        }
        let trips = trips(&segments, 3, 8, 1.0, 25);
        for trip in &trips {
            assert_eq!(trip.cycles, 100);
            assert_eq!(trip.batches.len(), 4);
        }
    }
}
