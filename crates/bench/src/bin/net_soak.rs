//! Network ingest soak: drives synthetic vehicle streams through the
//! binary wire protocol over loopback TCP — real frames, real sockets,
//! real backpressure — and records the sustained numbers to
//! `BENCH_ingest.json`.
//!
//! The harness spawns an [`adassure_fleet::IngestServer`] on an ephemeral
//! loopback port and `--producers` connection threads, each owning an
//! equal slice of the streams. Every stream is the same seeded LCG
//! telemetry synthesizer as `fleet_soak`, so the workload is reproducible
//! and directly comparable with the in-process soak: the delta between
//! `BENCH_fleet.json` and `BENCH_ingest.json` *is* the wire tax
//! (encode + syscalls + decode + acks).
//!
//! Nothing is allowed to be lost or re-sent: after the soak the fleet's
//! cycle count must equal `streams x cycles` exactly, and the server must
//! have decoded each frame the producers sent exactly once — a busy
//! connection thread simply reads its socket later, it never makes a
//! producer re-send — or the run exits non-zero.
//!
//! ```text
//! net_soak [--streams N] [--cycles N] [--shards N] [--batch N]
//!          [--producers N] [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI mode: a short burst proving the wire path works
//! end to end under concurrency. Regenerate the committed numbers with:
//! `cargo run --release -p adassure-bench --bin net_soak`

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adassure_core::{Assertion, Condition, Severity, SignalExpr};
use adassure_fleet::ingest::connect_tcp;
use adassure_fleet::{
    Fleet, FleetConfig, IngestConfig, IngestListener, IngestServer, ProducerConfig, SampleBatch,
    StreamId,
};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    regenerate: &'static str,
    transport: &'static str,
    producers: usize,
    streams: usize,
    shards: usize,
    cycles_per_stream: usize,
    cycles: u64,
    samples: u64,
    violations: u64,
    bytes_rx: u64,
    wall_s: f64,
    samples_per_sec: f64,
    cycles_per_sec: f64,
    mib_per_sec: f64,
    /// Frames producers re-sent on a live connection; the run fails
    /// unless this is 0.
    resent_frames: u64,
    /// Sampled wire-frame decode latency (log₂ buckets: quantiles are
    /// upper bounds with one-octave relative error).
    decode_p50_ns: f64,
    decode_p99_ns: f64,
    /// Sampled per-cycle checker latency, same fleet series as
    /// `fleet_soak`.
    cycle_p50_ns: f64,
    cycle_p99_ns: f64,
}

struct Args {
    streams: usize,
    cycles: usize,
    shards: usize,
    batch: usize,
    producers: usize,
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: 0,
        cycles: 0,
        shards: 8,
        batch: 32,
        producers: 4,
        smoke: false,
        out: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric value"))
        };
        match flag.as_str() {
            "--streams" => args.streams = grab("--streams"),
            "--cycles" => args.cycles = grab("--cycles"),
            "--shards" => args.shards = grab("--shards"),
            "--batch" => args.batch = grab("--batch").max(1),
            "--producers" => args.producers = grab("--producers").max(1),
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.streams == 0 {
        args.streams = if args.smoke { 64 } else { 1_024 };
    }
    if args.cycles == 0 {
        args.cycles = if args.smoke { 48 } else { 1_200 };
    }
    if args.out.is_empty() {
        args.out = "BENCH_ingest.json".into();
    }
    // Every producer owns an equal slice of the streams.
    args.streams = args.streams.next_multiple_of(args.producers);
    args
}

fn catalog() -> Vec<Assertion> {
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

/// Seeded per-stream telemetry synthesizer — identical constants to
/// `fleet_soak`, so both soaks check the same fleet-wide workload.
struct Synth {
    state: u64,
    t: f64,
}

impl Synth {
    fn new(seed: u64) -> Self {
        Synth {
            state: seed.wrapping_mul(2654435761).wrapping_add(12345),
            t: 0.0,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    fn uniform(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }

    fn cycle_into(&mut self, batch: &mut SampleBatch) {
        self.t += 0.05;
        let roll = self.uniform();
        let xtrack = if roll < 0.02 {
            1.0 + self.uniform() * 2.0
        } else {
            self.uniform() * 0.9
        };
        batch.push(self.t, "xtrack", xtrack);
        batch.push(self.t, "speed", 4.0 + self.uniform());
        if self.uniform() > 0.2 {
            batch.push(self.t, "gnss_x", self.uniform() * 50.0);
        }
    }
}

fn main() {
    let args = parse_args();
    let fleet = Arc::new(Mutex::new(Fleet::new(
        catalog(),
        FleetConfig {
            shards: args.shards,
            ..FleetConfig::default()
        },
    )));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn ingest server");

    let per_producer = args.streams / args.producers;
    let start = Instant::now();
    let producers: Vec<(adassure_fleet::ProducerStats, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..args.producers {
            let args = &args;
            handles.push(scope.spawn(move || {
                let mut producer =
                    connect_tcp(addr, ProducerConfig::default()).expect("connect producer");
                let ids: Vec<StreamId> = (0..per_producer)
                    .map(|_| producer.open_stream().expect("open stream"))
                    .collect();
                let mut synths: Vec<Synth> = (0..per_producer)
                    .map(|k| Synth::new((p * per_producer + k) as u64))
                    .collect();
                let waves = args.cycles.div_ceil(args.batch);
                for wave in 0..waves {
                    let cycles_this_wave = args.batch.min(args.cycles - wave * args.batch);
                    for (id, synth) in ids.iter().zip(synths.iter_mut()) {
                        let mut batch = SampleBatch::new(*id);
                        for _ in 0..cycles_this_wave {
                            synth.cycle_into(&mut batch);
                        }
                        // A busy server reads later; the producer just
                        // waits longer for its acks.
                        producer.submit(&batch).expect("submit batch");
                    }
                }
                for id in &ids {
                    producer.close_stream(*id).expect("close stream");
                }
                // The hello plus one frame per sequence number.
                let frames = producer.next_seq();
                let (_, stats) = producer.into_parts();
                (stats, frames)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let ingest = server.shutdown();

    let fleet = fleet.lock().expect("fleet lock");
    let stats = fleet.stats();
    let expected_cycles = (args.streams * args.cycles) as u64;
    assert_eq!(
        stats.cycles, expected_cycles,
        "every cycle submitted over the wire must be checked exactly once"
    );
    assert_eq!(ingest.samples, stats.samples, "wire samples all applied");
    assert_eq!(stats.bad_cycles, 0, "synth timestamps are monotone");
    assert_eq!(stats.stale_batches, 0, "no batch outlived its stream");
    assert_eq!(stats.closed_streams, args.streams as u64);
    assert_eq!(ingest.truncated, 0);
    assert_eq!(ingest.malformed, 0);

    let resent_frames: u64 = producers.iter().map(|(s, _)| s.resent_frames).sum();
    let frames_sent: u64 = producers.iter().map(|(_, frames)| frames).sum();
    if resent_frames != 0 || ingest.frames != frames_sent {
        eprintln!(
            "re-sent frames: producers re-sent {resent_frames}; \
             the server decoded {} frames of the {frames_sent} sent",
            ingest.frames
        );
        std::process::exit(1);
    }
    let latency = fleet.cycle_latency();
    let report = Report {
        benchmark: "net_soak",
        regenerate: "cargo run --release -p adassure-bench --bin net_soak",
        transport: "loopback-tcp",
        producers: args.producers,
        streams: args.streams,
        shards: args.shards,
        cycles_per_stream: args.cycles,
        cycles: stats.cycles,
        samples: stats.samples,
        violations: stats.violations,
        bytes_rx: ingest.bytes_rx,
        wall_s,
        samples_per_sec: stats.samples as f64 / wall_s,
        cycles_per_sec: stats.cycles as f64 / wall_s,
        mib_per_sec: ingest.bytes_rx as f64 / wall_s / (1024.0 * 1024.0),
        resent_frames,
        decode_p50_ns: ingest.decode_ns.p50().unwrap_or(0.0),
        decode_p99_ns: ingest.decode_ns.p99().unwrap_or(0.0),
        cycle_p50_ns: latency.p50().unwrap_or(0.0),
        cycle_p99_ns: latency.p99().unwrap_or(0.0),
    };

    println!(
        "soak   : {} producers x {} streams x {} cycles over {} in {:.2} s",
        report.producers, per_producer, report.cycles_per_stream, report.transport, report.wall_s
    );
    println!(
        "ingest : {:.0} samples/sec, {:.0} cycles/sec, {:.1} MiB/s on the wire",
        report.samples_per_sec, report.cycles_per_sec, report.mib_per_sec
    );
    println!(
        "flow   : {} frames re-sent (zero lost)",
        report.resent_frames
    );
    println!(
        "latency: decode p50 <= {:.0} ns / p99 <= {:.0} ns; cycle p50 <= {:.0} ns / p99 <= {:.0} ns",
        report.decode_p50_ns, report.decode_p99_ns, report.cycle_p50_ns, report.cycle_p99_ns
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json + "\n").unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {}", args.out);
}
