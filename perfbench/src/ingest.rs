//! The online path over loopback TCP, the transport `monitor-server`
//! serves: `ingest_bulk` (many long-lived streams on two windowed
//! producer connections, saturating the fleet) and `ingest_trips` (one
//! connection, one short trip per op, open to report).
//!
//! Every stream's report must equal the report an in-process `Fleet` fed
//! the same batches produces, and the fleet must have checked every
//! submitted cycle and sample exactly once.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adassure_core::Assertion;
use adassure_exp::Runtime;
use adassure_fleet::ingest::connect_tcp;
use adassure_fleet::wire::{encode_sample_batch, Frame, FrameDecoder};
use adassure_fleet::{
    Checkpointer, Fleet, FleetConfig, IngestConfig, IngestListener, IngestProducer, IngestServer,
    ProducerConfig, ProducerStats, SampleBatch, StreamId, SubmitError,
};

use crate::corpus::{self, Trip};
use crate::spans::{Span, Spans};
use crate::{calib, json, Layer, Pass, Workload, WORKERS};

/// `ingest_bulk`: streams per pass, split evenly over the producers.
const BULK_STREAMS: usize = 256;
/// `ingest_bulk`: producer connections.
const BULK_PRODUCERS: usize = 2;
/// `ingest_bulk`: cycles per stream per pass (20 Hz telemetry).
const BULK_CYCLES: usize = 600;
/// `ingest_bulk`: cycles per batch; a wave is one batch for every stream
/// of a connection.
const BULK_BATCH_CYCLES: usize = 30;
/// `ingest_bulk`: batches per shard queue. Small enough that two
/// producers outrun the single drain worker and meet `Saturated` nacks.
const BULK_QUEUE: usize = 256;
/// `ingest_bulk`: the first producer checkpoints the fleet after this many
/// of its batches in each pass, halfway through, so every op (one
/// connection's share of a pass) waits out exactly one checkpoint.
const CHECKPOINT_AFTER: usize = BULK_STREAMS / BULK_PRODUCERS * BULK_CYCLES / BULK_BATCH_CYCLES / 2;
/// `ingest_trips`: trips per pass, three from each drive segment.
const TRIPS: usize = 3 * corpus::SEGMENTS;
/// `ingest_trips`: trip length.
const TRIP_S: f64 = 1.0;
/// `ingest_trips`: cycles per batch (four batches per trip).
const TRIP_BATCH_CYCLES: usize = 25;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        runtime: Runtime::with_workers(WORKERS),
        ..FleetConfig::default()
    }
}

/// The in-process oracle: each stream's batches submitted straight into
/// a single-shard fleet; returns each stream's report JSON.
fn oracle<'a>(
    catalog: &[Assertion],
    streams: impl IntoIterator<Item = &'a [SampleBatch]>,
) -> Vec<Vec<u8>> {
    let mut fleet = Fleet::new(
        catalog.iter().cloned(),
        FleetConfig {
            shards: 1,
            ..fleet_config()
        },
    );
    let mut reports = Vec::new();
    for batches in streams {
        let id = fleet.open_stream();
        for batch in batches {
            let mut batch = SampleBatch {
                stream: id,
                samples: batch.samples.clone(),
            };
            loop {
                match fleet.submit(batch) {
                    Ok(()) => break,
                    Err(SubmitError::Saturated { batch: back, .. }) => {
                        fleet.poll();
                        batch = back;
                    }
                    Err(other) => panic!("in-process submit failed: {other}"),
                }
            }
        }
        fleet.poll();
        let (report, _) = fleet.close_stream(id).expect("oracle stream closes");
        reports.push(json(&report));
    }
    reports
}

/// A running ingest server on an ephemeral loopback port.
struct Live {
    server: IngestServer,
    producers: Vec<IngestProducer<TcpStream>>,
}

impl Live {
    fn spawn(catalog: &[Assertion], producers: usize, config: FleetConfig) -> Live {
        let fleet = Arc::new(Mutex::new(Fleet::new(catalog.iter().cloned(), config)));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("loopback address");
        let server = IngestServer::spawn(
            fleet,
            IngestListener::Tcp(listener),
            IngestConfig::default(),
        )
        .expect("spawn ingest server");
        let producers = (0..producers)
            .map(|_| connect_tcp(addr, ProducerConfig::default()).expect("connect producer"))
            .collect();
        Live { server, producers }
    }

    /// Shuts the server down and checks conservation: every submitted
    /// cycle and sample checked once, every stream closed, no bad, stale,
    /// truncated or malformed input. Records the server-side layer
    /// counters.
    fn finish(self, sent: &Sent, layer: &mut Layer) -> Result<(), String> {
        let producer_stats: Vec<ProducerStats> = self
            .producers
            .into_iter()
            .map(|p| p.into_parts().1)
            .collect();
        let fleet = Arc::clone(self.server.fleet());
        let ingest = self.server.shutdown();
        let fleet = fleet.lock().map_err(|_| "fleet lock poisoned")?;
        let stats = fleet.stats();
        let latency = fleet.cycle_latency();

        let resent: u64 = producer_stats.iter().map(|s| s.resent_frames).sum();
        let frames = sent.frames + resent;
        layer.insert("fleet.ingest.frames_sent", frames as f64);
        layer.insert(
            "fleet.ingest.saturated_nacks",
            producer_stats
                .iter()
                .map(|s| s.saturated_nacks)
                .sum::<u64>() as f64,
        );
        layer.insert(
            "fleet.ingest.superseded_nacks",
            producer_stats
                .iter()
                .map(|s| s.superseded_nacks)
                .sum::<u64>() as f64,
        );
        layer.insert("fleet.ingest.resent_frames", resent as f64);
        layer.insert(
            "fleet.ingest.useful_frame_ratio",
            sent.frames as f64 / frames as f64,
        );
        layer.insert("fleet.ingest.bytes_rx", ingest.bytes_rx as f64);
        layer.insert(
            "fleet.ingest.server_decode_ns_p50",
            ingest.decode_ns.p50().unwrap_or(0.0),
        );
        layer.insert(
            "fleet.ingest.server_decode_ns_p99",
            ingest.decode_ns.p99().unwrap_or(0.0),
        );
        layer.insert("fleet.shard.cycle_ns_p50", latency.p50().unwrap_or(0.0));
        layer.insert("fleet.shard.cycle_ns_p99", latency.p99().unwrap_or(0.0));
        layer.insert(
            "fleet.shard.rejected_batches",
            stats.rejected_batches as f64,
        );
        layer.insert("fleet.checkpoint.count", ingest.checkpoints as f64);
        layer.insert(
            "fleet.report_bytes",
            sent.report_bytes as f64 / sent.streams.max(1) as f64,
        );

        let checks = [
            ("checked cycles", stats.cycles, sent.cycles),
            ("checked samples", stats.samples, sent.samples),
            ("received samples", ingest.samples, sent.samples),
            ("closed streams", stats.closed_streams, sent.streams),
            ("bad cycles", stats.bad_cycles, 0),
            ("stale batches", stats.stale_batches, 0),
            ("truncated frames", ingest.truncated, 0),
            ("malformed frames", ingest.malformed, 0),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!("{what}: {got}, expected {want}"));
            }
        }
        Ok(())
    }
}

/// What the producers sent, for the conservation check.
#[derive(Debug, Default)]
struct Sent {
    /// Frames sent once each (opens, batches, closes), without re-sends.
    frames: u64,
    cycles: u64,
    samples: u64,
    streams: u64,
    report_bytes: u64,
    /// Samples in traced passes, and their wire bytes.
    traced_samples: u64,
    traced_wire_bytes: u64,
}

impl Sent {
    fn add(&mut self, other: &Sent) {
        self.frames += other.frames;
        self.cycles += other.cycles;
        self.samples += other.samples;
        self.streams += other.streams;
        self.report_bytes += other.report_bytes;
        self.traced_samples += other.traced_samples;
        self.traced_wire_bytes += other.traced_wire_bytes;
    }
}

/// Traced runs time the wire codec on each batch from outside: the
/// benchmark encodes and decodes the frame `submit` is about to send and
/// checks the decoded batch equals the original. Returns the frame size.
fn time_codec(batch: &SampleBatch, frame: &mut Vec<u8>, spans: &mut Spans) -> usize {
    frame.clear();
    spans
        .time(Span::WireEncode, || encode_sample_batch(frame, 1, batch))
        .expect("generated batches encode");
    let mut decoder = FrameDecoder::new(adassure_fleet::wire::DEFAULT_MAX_FRAME_LEN);
    decoder.feed(frame);
    match spans.time(Span::WireDecode, || decoder.next_frame()) {
        Ok(Some(Frame::SampleBatch { batch: decoded, .. })) if decoded == *batch => frame.len(),
        other => panic!("wire round trip changed the batch: {other:?}"),
    }
}

pub struct Trips {
    catalog: Vec<Assertion>,
    trips: Vec<Trip>,
    oracle: Vec<Vec<u8>>,
    live: Option<Live>,
    sent: Sent,
    drain_tail_ms: Vec<f64>,
}

impl Workload for Trips {
    /// Producer and server threads share both vCPUs and wait on each
    /// other, so no single thread's clock covers an op.
    const CLOCK: calib::Clock = calib::Clock::Wall;

    const REFERENCE: calib::Reference = calib::Reference::CHECKER;

    fn setup(seed: u64, _dir: &Path, spans: &mut Spans) -> Self {
        let catalog = corpus::drive_catalog();
        let segments = corpus::drive_segments(seed, spans);
        let trips = corpus::trips(&segments, seed, TRIPS, TRIP_S, TRIP_BATCH_CYCLES);
        let oracle = oracle(&catalog, trips.iter().map(|t| t.batches.as_slice()));
        Trips {
            catalog,
            trips,
            oracle,
            live: None,
            sent: Sent::default(),
            drain_tail_ms: Vec::new(),
        }
    }

    fn pass(&mut self, spans: &mut Spans, latencies: &mut Vec<f64>) -> Pass {
        let live = self
            .live
            .get_or_insert_with(|| Live::spawn(&self.catalog, 1, fleet_config()));
        let producer = &mut live.producers[0];
        let mut pass = Pass::default();
        let mut frame = Vec::new();
        let mut last_submit = Instant::now();
        let mut last_report = Instant::now();
        for (i, trip) in self.trips.iter_mut().enumerate() {
            let start = Instant::now();
            spans.enter();
            let id: StreamId = spans
                .time(Span::OpenStream, || producer.open_stream())
                .expect("open stream");
            for batch in &mut trip.batches {
                batch.stream = id;
                if spans.enabled() {
                    self.sent.traced_wire_bytes += time_codec(batch, &mut frame, spans) as u64;
                }
                spans
                    .time(Span::Submit, || producer.submit(batch))
                    .expect("submit batch");
            }
            last_submit = Instant::now();
            let report = spans
                .time(Span::CloseStream, || producer.close_stream(id))
                .expect("close stream");
            spans.exit(Span::Op);
            last_report = Instant::now();
            latencies.push(start.elapsed().as_secs_f64() * 1e6);

            pass.ops += 1;
            pass.samples += trip.samples;
            self.sent.frames += 2 + trip.batches.len() as u64;
            self.sent.cycles += trip.cycles;
            self.sent.samples += trip.samples;
            self.sent.streams += 1;
            self.sent.report_bytes += report.len() as u64;
            if spans.enabled() {
                self.sent.traced_samples += trip.samples;
            }
            if report != self.oracle[i] {
                eprintln!("ingest_trips: trip {i} report differs from the in-process fleet");
                pass.failed += 1;
            }
        }
        self.drain_tail_ms
            .push(last_report.duration_since(last_submit).as_secs_f64() * 1e3);
        pass
    }

    fn finish(self, _spans: &Spans, layer: &mut Layer) -> Result<(), String> {
        record_sent(&self.sent, &self.drain_tail_ms, layer);
        self.live
            .map_or(Ok(()), |live| live.finish(&self.sent, layer))
    }
}

fn record_sent(sent: &Sent, drain_tail_ms: &[f64], layer: &mut Layer) {
    if sent.traced_samples > 0 {
        layer.insert(
            "fleet.wire.bytes_per_sample",
            sent.traced_wire_bytes as f64 / sent.traced_samples as f64,
        );
    }
    layer.insert(
        "fleet.drain_tail_ms",
        crate::stats::median(drain_tail_ms).unwrap_or(0.0),
    );
}

pub struct Bulk {
    catalog: Vec<Assertion>,
    /// Per stream, its batches in order.
    streams: Vec<Vec<SampleBatch>>,
    samples: Vec<u64>,
    oracle: Vec<Vec<u8>>,
    checkpoint: PathBuf,
    live: Option<(Live, Checkpointer)>,
    sent: Sent,
    drain_tail_ms: Vec<f64>,
    checkpoint_bytes: u64,
}

/// One producer connection's share of a bulk pass.
struct Share<'a> {
    producer: &'a mut IngestProducer<TcpStream>,
    streams: &'a mut [Vec<SampleBatch>],
    samples: &'a [u64],
    oracle: &'a [Vec<u8>],
    /// Set on the producer that checkpoints.
    checkpoint: Option<(&'a Checkpointer, &'a Path)>,
}

/// What one connection did in a pass.
struct ShareResult {
    spans: Spans,
    latency_us: f64,
    sent: Sent,
    pass: Pass,
    drain_tail_ms: f64,
}

impl Share<'_> {
    /// One op: this connection's share of a pass. It opens its streams,
    /// sends their batches wave by wave (one batch per stream per wave),
    /// waits for the last ack, then closes every stream and collects its
    /// report. The first producer checkpoints the fleet mid-pass.
    fn run(self, traced: bool) -> ShareResult {
        let mut spans = Spans::new(traced);
        let mut sent = Sent::default();
        let producer = self.producer;
        let start = Instant::now();
        spans.enter();
        let ids: Vec<StreamId> = self
            .streams
            .iter()
            .map(|_| {
                spans
                    .time(Span::OpenStream, || producer.open_stream())
                    .expect("open stream")
            })
            .collect();
        let waves = self.streams.first().map_or(0, Vec::len);
        let mut frame = Vec::new();
        let mut submitted = 0;
        for wave in 0..waves {
            for (batches, &id) in self.streams.iter_mut().zip(&ids) {
                let batch = &mut batches[wave];
                batch.stream = id;
                if traced {
                    sent.traced_wire_bytes += time_codec(batch, &mut frame, &mut spans) as u64;
                    sent.traced_samples += batch.samples.len() as u64;
                }
                spans
                    .time(Span::Submit, || producer.submit(batch))
                    .expect("submit batch");
                submitted += 1;
                if let Some((checkpointer, path)) = self.checkpoint {
                    if submitted == CHECKPOINT_AFTER {
                        spans
                            .time(Span::Checkpoint, || checkpointer.checkpoint_to(path))
                            .expect("checkpoint fleet");
                    }
                }
            }
        }
        producer.flush().expect("flush producer");
        let acked = Instant::now();
        let reports: Vec<Vec<u8>> = ids
            .iter()
            .map(|&id| {
                spans
                    .time(Span::CloseStream, || producer.close_stream(id))
                    .expect("close stream")
            })
            .collect();
        spans.exit(Span::Op);
        let latency_us = start.elapsed().as_secs_f64() * 1e6;
        let drain_tail_ms = acked.elapsed().as_secs_f64() * 1e3;

        let failed = reports
            .iter()
            .zip(self.oracle)
            .filter(|(r, o)| r != o)
            .count() as u64;
        if failed > 0 {
            eprintln!("ingest_bulk: {failed} stream reports differ from the in-process fleet");
        }
        let samples: u64 = self.samples.iter().sum();
        sent.frames = (ids.len() * (waves + 2)) as u64;
        sent.cycles = (ids.len() * BULK_CYCLES) as u64;
        sent.samples = samples;
        sent.streams = ids.len() as u64;
        sent.report_bytes = reports.iter().map(|r| r.len() as u64).sum();
        ShareResult {
            spans,
            latency_us,
            sent,
            pass: Pass {
                ops: 1,
                failed: u64::from(failed > 0),
                samples,
            },
            drain_tail_ms,
        }
    }
}

impl Workload for Bulk {
    /// Producer and server threads share both vCPUs and wait on each
    /// other, so no single thread's clock covers an op.
    const CLOCK: calib::Clock = calib::Clock::Wall;

    const REFERENCE: calib::Reference = calib::Reference::CHECKER;

    fn setup(seed: u64, dir: &Path, _spans: &mut Spans) -> Self {
        let catalog = corpus::fleet_catalog();
        let streams = corpus::telemetry(seed, BULK_STREAMS, BULK_CYCLES, BULK_BATCH_CYCLES);
        let oracle = oracle(&catalog, streams.iter().map(Vec::as_slice));
        Bulk {
            catalog,
            samples: streams
                .iter()
                .map(|s| s.iter().map(|b| b.samples.len() as u64).sum())
                .collect(),
            streams,
            oracle,
            checkpoint: dir.join("fleet.adckpt"),
            live: None,
            sent: Sent::default(),
            drain_tail_ms: Vec::new(),
            checkpoint_bytes: 0,
        }
    }

    fn pass(&mut self, spans: &mut Spans, latencies: &mut Vec<f64>) -> Pass {
        let (live, checkpointer) = self.live.get_or_insert_with(|| {
            let config = FleetConfig {
                queue_capacity: BULK_QUEUE,
                ..fleet_config()
            };
            let live = Live::spawn(&self.catalog, BULK_PRODUCERS, config);
            let checkpointer = live.server.checkpointer();
            (live, checkpointer)
        });
        let per = BULK_STREAMS / BULK_PRODUCERS;
        let traced = spans.enabled();
        let checkpoint = self.checkpoint.as_path();
        let results: Vec<ShareResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .producers
                .iter_mut()
                .zip(self.streams.chunks_mut(per))
                .zip(self.samples.chunks(per).zip(self.oracle.chunks(per)))
                .enumerate()
                .map(|(p, ((producer, streams), (samples, oracle)))| {
                    let share = Share {
                        producer,
                        streams,
                        samples,
                        oracle,
                        checkpoint: (p == 0).then_some((&*checkpointer, checkpoint)),
                    };
                    scope.spawn(move || share.run(traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("producer thread"))
                .collect()
        });
        let mut pass = Pass::default();
        let mut tail: f64 = 0.0;
        for result in results {
            spans.merge(&result.spans);
            latencies.push(result.latency_us);
            self.sent.add(&result.sent);
            pass.ops += result.pass.ops;
            pass.failed += result.pass.failed;
            pass.samples += result.pass.samples;
            tail = tail.max(result.drain_tail_ms);
        }
        self.drain_tail_ms.push(tail);
        if let Ok(meta) = std::fs::metadata(&self.checkpoint) {
            self.checkpoint_bytes = meta.len();
        }
        pass
    }

    fn finish(self, _spans: &Spans, layer: &mut Layer) -> Result<(), String> {
        record_sent(&self.sent, &self.drain_tail_ms, layer);
        layer.insert("fleet.checkpoint.bytes", self.checkpoint_bytes as f64);
        self.live
            .map_or(Ok(()), |(live, _)| live.finish(&self.sent, layer))
    }
}
