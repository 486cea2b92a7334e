//! The wire path's central guarantee, pinned: checking driven through the
//! binary ingest protocol — TCP or Unix-domain, windowed producers,
//! concurrent connections and all — produces **bit-identical** per-stream
//! reports and merged metrics JSON to direct in-process [`Fleet`]
//! submission of the same batches.

use std::sync::{Arc, Mutex};

use adassure_core::{Assertion, Condition, Severity, SignalExpr};
use adassure_fleet::{
    Fleet, FleetConfig, IngestConfig, IngestListener, IngestServer, ProducerConfig, SampleBatch,
    StreamId,
};

fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "W1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "W2",
            "speed stays non-negative",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("speed"),
                limit: 0.0,
            },
        ),
        Assertion::new(
            "W3",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.3,
            },
        ),
    ]
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

/// Deterministic synthetic telemetry: excursions, NaN poisoning, lossy
/// gnss — every verdict and health state in the catalog fires somewhere.
fn stream_cycles(seed: u64, cycles: usize) -> Vec<Cycle> {
    let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));
    let mut out = Vec::with_capacity(cycles);
    for k in 0..cycles {
        let t = 0.05 * (k + 1) as f64;
        let mut samples = Vec::new();
        let roll = rng.uniform();
        let xtrack = if roll < 0.15 {
            1.0 + 3.0 * rng.uniform()
        } else if roll < 0.2 {
            f64::NAN
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

const STREAMS: usize = 16;

fn corpus() -> Vec<Vec<Cycle>> {
    (0..STREAMS)
        .map(|i| stream_cycles(i as u64, 50 + (i % 5) * 10))
        .collect()
}

/// Cuts stream `index`'s cycles into batches of 1..=4 cycles, seeded by
/// the stream index — both legs cut identically.
fn cut_batches(id: StreamId, index: usize, cycles: &[Cycle]) -> Vec<SampleBatch> {
    let mut cuts = Lcg(4242 + index as u64);
    let mut out = Vec::new();
    let mut batch = SampleBatch::new(id);
    let mut left = 1 + (cuts.next() % 4) as usize;
    for cycle in cycles {
        for &(channel, value) in &cycle.samples {
            batch.push(cycle.t, channel, value);
        }
        left -= 1;
        if left == 0 {
            out.push(std::mem::replace(&mut batch, SampleBatch::new(id)));
            left = 1 + (cuts.next() % 4) as usize;
        }
    }
    if !batch.samples.is_empty() {
        out.push(batch);
    }
    out
}

/// The oracle: direct in-process submission on a single-shard fleet.
/// Returns per-stream report JSON (close order = open order) and the
/// merged metrics summary JSON.
fn run_in_process(streams: &[Vec<Cycle>]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut fleet = Fleet::new(
        catalog(),
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
    );
    let ids: Vec<StreamId> = (0..streams.len()).map(|_| fleet.open_stream()).collect();
    for (index, cycles) in streams.iter().enumerate() {
        for batch in cut_batches(ids[index], index, cycles) {
            fleet.submit(batch).expect("submit");
        }
    }
    let reports = ids
        .iter()
        .map(|&id| {
            let (report, _) = fleet.close_stream(id).expect("close");
            serde_json::to_vec(&report).expect("report serializes")
        })
        .collect();
    let summary = serde_json::to_vec(&fleet.metrics().summary()).expect("summary serializes");
    (reports, summary)
}

fn wire_fleet(shards: usize) -> Arc<Mutex<Fleet>> {
    Arc::new(Mutex::new(Fleet::new(
        catalog(),
        FleetConfig {
            shards,
            ..FleetConfig::default()
        },
    )))
}

/// Drives the full corpus through one producer connection and returns
/// (per-stream report JSON, merged summary JSON, producer stats).
fn run_wire_connection<C: std::io::Read + std::io::Write>(
    mut producer: adassure_fleet::IngestProducer<C>,
    streams: &[Vec<Cycle>],
) -> (Vec<Vec<u8>>, Vec<u8>, adassure_fleet::ProducerStats) {
    let ids: Vec<StreamId> = (0..streams.len())
        .map(|_| producer.open_stream().expect("open over wire"))
        .collect();
    for (index, cycles) in streams.iter().enumerate() {
        for batch in cut_batches(ids[index], index, cycles) {
            producer.submit(&batch).expect("submit over wire");
        }
    }
    let reports = ids
        .iter()
        .map(|&id| producer.close_stream(id).expect("close over wire"))
        .collect();
    let summary = producer.fetch_metrics().expect("metrics over wire");
    producer.flush().expect("final flush");
    let (_, stats) = producer.into_parts();
    (reports, summary, stats)
}

#[test]
fn tcp_ingestion_is_bit_identical_to_in_process_submission() {
    let streams = corpus();
    let (oracle_reports, oracle_summary) = run_in_process(&streams);
    assert!(
        oracle_reports
            .iter()
            .any(|r| String::from_utf8_lossy(r).contains("\"violations\":[{")),
        "the oracle is not vacuous"
    );

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = IngestServer::spawn(
        wire_fleet(4),
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn server");

    let producer =
        adassure_fleet::ingest::connect_tcp(addr, ProducerConfig::default()).expect("connect");
    let (reports, summary, _) = run_wire_connection(producer, &streams);

    for (index, (wire, oracle)) in reports.iter().zip(&oracle_reports).enumerate() {
        assert_eq!(
            wire, oracle,
            "stream {index} report diverged between wire and in-process"
        );
    }
    assert_eq!(summary, oracle_summary, "merged metrics JSON diverged");

    let stats = server.shutdown();
    assert_eq!(stats.opens, STREAMS as u64);
    assert_eq!(stats.closes, STREAMS as u64);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.truncated, 0);
}

#[cfg(unix)]
#[test]
fn unix_domain_ingestion_matches_tcp_semantics() {
    let streams = corpus();
    let (oracle_reports, oracle_summary) = run_in_process(&streams);

    let dir = std::env::temp_dir().join(format!("adassure_uds_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let path = dir.join("ingest.sock");
    let _ = std::fs::remove_file(&path);
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind uds");
    let server = IngestServer::spawn(
        wire_fleet(2),
        IngestListener::Unix(listener),
        IngestConfig::default(),
    )
    .expect("spawn server");

    let producer =
        adassure_fleet::ingest::connect_unix(&path, ProducerConfig::default()).expect("connect");
    let (reports, summary, _) = run_wire_connection(producer, &streams);

    assert_eq!(reports, oracle_reports);
    assert_eq!(summary, oracle_summary);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Four concurrent producers over two shards: their connection threads
/// apply batches to shared shards at once, and nothing is nacked,
/// re-sent or lost — per-stream reports bit-identical to the oracle.
#[test]
fn concurrent_producers_lose_nothing() {
    const PRODUCERS: usize = 4;
    let streams = corpus();
    let (oracle_reports, _) = run_in_process(&streams);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = IngestServer::spawn(
        wire_fleet(2),
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn server");

    let per_producer = STREAMS / PRODUCERS;
    let results: Vec<(usize, Vec<Vec<u8>>, adassure_fleet::ProducerStats, u64)> =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for p in 0..PRODUCERS {
                let streams = &streams;
                handles.push(scope.spawn(move || {
                    let mut producer = adassure_fleet::ingest::connect_tcp(
                        addr,
                        ProducerConfig {
                            window: 4,
                            ..ProducerConfig::default()
                        },
                    )
                    .expect("connect");
                    let first = p * per_producer;
                    let my_streams = &streams[first..first + per_producer];
                    let ids: Vec<StreamId> = my_streams
                        .iter()
                        .map(|_| producer.open_stream().expect("open"))
                        .collect();
                    for (offset, cycles) in my_streams.iter().enumerate() {
                        for batch in cut_batches(ids[offset], first + offset, cycles) {
                            producer.submit(&batch).expect("submit");
                        }
                    }
                    let reports: Vec<Vec<u8>> = ids
                        .iter()
                        .map(|&id| producer.close_stream(id).expect("close"))
                        .collect();
                    // The hello plus one frame per sequence number.
                    let frames = producer.next_seq();
                    let (_, stats) = producer.into_parts();
                    (first, reports, stats, frames)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("producer thread"))
                .collect()
        });

    for (first, reports, stats, _) in &results {
        assert_eq!(stats.resent_frames, 0, "producer {first}: nothing re-sent");
        for (offset, report) in reports.iter().enumerate() {
            assert_eq!(
                report,
                &oracle_reports[first + offset],
                "stream {} diverged under concurrent producers",
                first + offset
            );
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.closes, STREAMS as u64);
    assert_eq!(
        stats.frames,
        results.iter().map(|r| r.3).sum::<u64>(),
        "the server decoded every frame exactly once"
    );
    assert_eq!(stats.malformed, 0);
}
