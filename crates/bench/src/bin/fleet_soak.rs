//! Fleet soak benchmark: drives N synthetic vehicle streams through the
//! sharded fleet checker ([`adassure_fleet::Fleet`]) and records the
//! sustained ingestion numbers — streams, samples/sec and sampled
//! per-cycle latency quantiles — to `BENCH_fleet.json`.
//!
//! Every stream is a seeded LCG telemetry synthesizer (same shape as the
//! `monitor-server` demo: cross-track error with excursions, speed, a
//! lossy gnss channel), so runs are reproducible and every assertion in
//! the catalog fires somewhere in the fleet. Ingestion is wave-based:
//! each wave cuts `--batch` cycles per stream into one `SampleBatch` and
//! submits it. The streams are split over one submitting thread per
//! worker of the shared pool, each with its own `FleetHandle`, and every
//! submit applies its batch before it returns.
//!
//! ```text
//! fleet_soak [--streams N] [--cycles N] [--shards N] [--batch N]
//!            [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI mode: 10,240 concurrent streams for a short burst,
//! proving fleet-scale stream counts complete on one vCPU. The default
//! (full) mode runs fewer, longer streams and writes the committed
//! `BENCH_fleet.json` at the repo root.
//!
//! Regenerate with:
//! `cargo run --release -p adassure-bench --bin fleet_soak`

use std::time::Instant;

use adassure_core::{Assertion, Condition, Severity, SignalExpr};
use adassure_exp::Runtime;
use adassure_fleet::{Fleet, FleetConfig, FleetHandle, SampleBatch, StreamId};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    regenerate: &'static str,
    streams: usize,
    shards: usize,
    workers: usize,
    cycles_per_stream: usize,
    cycles: u64,
    samples: u64,
    violations: u64,
    wall_s: f64,
    samples_per_sec: f64,
    cycles_per_sec: f64,
    /// Sampled per-cycle evaluation latency (log₂ buckets, so quantiles
    /// are upper bounds with one-octave relative error).
    cycle_p50_ns: f64,
    cycle_p99_ns: f64,
}

struct Args {
    streams: usize,
    cycles: usize,
    shards: usize,
    batch: usize,
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: 0,
        cycles: 0,
        shards: 8,
        batch: 8,
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
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    // Smoke proves *stream count* (10k+ concurrent on one vCPU); the full
    // run proves *sustained throughput* on fewer, longer streams.
    if args.streams == 0 {
        args.streams = if args.smoke { 10_240 } else { 8_192 };
    }
    if args.cycles == 0 {
        args.cycles = if args.smoke { 16 } else { 250 };
    }
    if args.out.is_empty() {
        args.out = "BENCH_fleet.json".into();
    }
    args
}

fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "K1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "K2",
            "speed stays non-negative",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("speed"),
                limit: 0.0,
            },
        ),
        Assertion::new(
            "K3",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.5,
            },
        ),
    ]
}

/// Seeded per-stream telemetry synthesizer (same LCG family as the
/// differential test, different constants per stream).
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

    /// Appends one cycle of samples at the stream's next timestamp.
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

/// Submits every wave for one thread's share of the streams.
fn submit_waves(handle: &FleetHandle, ids: &[StreamId], synths: &mut [Synth], args: &Args) {
    let waves = args.cycles.div_ceil(args.batch);
    for wave in 0..waves {
        let cycles_this_wave = args.batch.min(args.cycles - wave * args.batch);
        for (id, synth) in ids.iter().zip(synths.iter_mut()) {
            let mut batch = SampleBatch::new(*id);
            for _ in 0..cycles_this_wave {
                synth.cycle_into(&mut batch);
            }
            if let Err(e) = handle.submit(batch) {
                panic!("submit failed: {e}");
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let workers = Runtime::global().workers();
    let mut fleet = Fleet::new(
        catalog(),
        FleetConfig {
            shards: args.shards,
            ..FleetConfig::default()
        },
    );

    let start = Instant::now();
    let ids: Vec<StreamId> = (0..args.streams).map(|_| fleet.open_stream()).collect();
    let mut synths: Vec<Synth> = (0..args.streams).map(|i| Synth::new(i as u64)).collect();
    assert_eq!(
        fleet.stats().open_streams,
        args.streams as u64,
        "every stream must be concurrently open"
    );

    let per = args.streams.div_ceil(workers).max(1);
    let handle = fleet.handle();
    std::thread::scope(|scope| {
        for (ids, synths) in ids.chunks(per).zip(synths.chunks_mut(per)) {
            let (handle, args) = (&handle, &args);
            scope.spawn(move || submit_waves(handle, ids, synths, args));
        }
    });
    for id in &ids {
        fleet.close_stream(*id).expect("stream closes cleanly");
    }
    let wall_s = start.elapsed().as_secs_f64();

    let stats = fleet.stats();
    assert_eq!(stats.closed_streams, args.streams as u64);
    assert_eq!(stats.cycles, (args.streams * args.cycles) as u64);
    assert_eq!(stats.bad_cycles, 0, "synth timestamps are monotone");
    assert_eq!(stats.stale_batches, 0, "no batch outlived its stream");

    let latency = fleet.cycle_latency();
    let report = Report {
        benchmark: "fleet_soak",
        regenerate: "cargo run --release -p adassure-bench --bin fleet_soak",
        streams: args.streams,
        shards: args.shards,
        workers,
        cycles_per_stream: args.cycles,
        cycles: stats.cycles,
        samples: stats.samples,
        violations: stats.violations,
        wall_s,
        samples_per_sec: stats.samples as f64 / wall_s,
        cycles_per_sec: stats.cycles as f64 / wall_s,
        cycle_p50_ns: latency.p50().unwrap_or(0.0),
        cycle_p99_ns: latency.p99().unwrap_or(0.0),
    };

    println!(
        "soak   : {} streams x {} cycles on {} shards / {} workers in {:.2} s",
        report.streams, report.cycles_per_stream, report.shards, report.workers, report.wall_s
    );
    println!(
        "ingest : {:.0} samples/sec, {:.0} cycles/sec",
        report.samples_per_sec, report.cycles_per_sec
    );
    println!(
        "latency: p50 <= {:.0} ns, p99 <= {:.0} ns per cycle ({} violations seen)",
        report.cycle_p50_ns, report.cycle_p99_ns, report.violations
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json + "\n").unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {}", args.out);
}
