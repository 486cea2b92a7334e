//! Network chaos soak: the `net_soak` workload run through seeded
//! transport faults and a full mid-campaign server crash, proving the
//! crash-recovery stack end to end — reconnecting producers
//! ([`adassure_fleet::ResilientProducer`]), session resumption with ack
//! replay, periodic checkpoints, and restore-on-restart — and recording
//! the sustained numbers to `BENCH_chaos.json`.
//!
//! Every producer connection runs over a
//! [`adassure_fleet::ChaosTransport`] that severs the socket mid-frame
//! at a seeded rate. Two-fifths of the way through the campaign the
//! harness kills the server and discards its fleet (post-checkpoint
//! progress is deliberately lost), restores a fresh fleet from the last
//! periodic checkpoint on a *new* port, and lets the producers
//! reconnect, resume their sessions, and replay the gap from their
//! retention buffers.
//!
//! The acceptance bar is byte-identity: after the dust settles, every
//! stream's final report must be byte-for-byte equal to an undisturbed
//! in-process run of the same seeded telemetry, and the restored fleet
//! must have checked exactly `streams x cycles` cycles — zero lost,
//! zero duplicated.
//!
//! All streams are opened (and a checkpoint taken) before the first
//! sample: a stream's identity is assigned at open time, so opens must
//! be checkpoint-covered before a crash can be survived transparently
//! (DESIGN.md §13).
//!
//! ```text
//! chaos_soak [--streams N] [--cycles N] [--shards N] [--batch N]
//!            [--producers N] [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI mode. Regenerate the committed numbers with:
//! `cargo run --release -p adassure-bench --bin chaos_soak`

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use adassure_core::{Assertion, Condition, Severity, SignalExpr};
use adassure_fleet::{
    restore_server, ChaosConfig, ChaosTransport, Fleet, FleetConfig, IngestConfig, IngestListener,
    IngestServer, ProducerConfig, ProducerStats, ReconnectPolicy, ResilientProducer, SampleBatch,
    SessionSeed, StreamId, Transport,
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
    wall_s: f64,
    samples_per_sec: f64,
    cycles_per_sec: f64,
    /// Successful session resumptions: one per producer for the server
    /// crash, plus one per chaos-severed connection.
    reconnects: u64,
    /// Frames re-sent during resumes, from windows and replay retention.
    replayed_frames: u64,
    /// Periodic checkpoints written before the crash (the restore point
    /// is the last of these).
    checkpoints_before_crash: u64,
    /// Hard server kills survived mid-campaign.
    server_crashes: u64,
    /// Whether every per-stream report was byte-identical to the
    /// undisturbed in-process oracle. The run aborts on a mismatch, so a
    /// written report always says true.
    oracle_byte_identical: bool,
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
        args.out = "BENCH_chaos.json".into();
    }
    assert!(args.cycles >= 2, "need at least 2 cycles to crash mid-run");
    // Every producer owns an equal slice of the streams, and the batch
    // size is capped so there are at least two waves — the crash has to
    // land strictly mid-campaign.
    args.streams = args.streams.next_multiple_of(args.producers);
    args.batch = args.batch.min(args.cycles.div_ceil(2));
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
/// `net_soak`, so the chaos numbers are directly comparable.
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

fn fleet_config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        ..FleetConfig::default()
    }
}

/// The undisturbed truth: the same seeded telemetry run in-process — no
/// sockets, no faults, no crash. Returns each stream's report JSON,
/// indexed by synth seed.
fn oracle_reports(args: &Args) -> Vec<String> {
    let mut fleet = Fleet::new(catalog(), fleet_config(args.shards));
    let ids: Vec<StreamId> = (0..args.streams).map(|_| fleet.open_stream()).collect();
    let mut synths: Vec<Synth> = (0..args.streams).map(|k| Synth::new(k as u64)).collect();
    let waves = args.cycles.div_ceil(args.batch);
    for wave in 0..waves {
        let cycles_this_wave = args.batch.min(args.cycles - wave * args.batch);
        for (id, synth) in ids.iter().zip(synths.iter_mut()) {
            let mut batch = SampleBatch::new(*id);
            for _ in 0..cycles_this_wave {
                synth.cycle_into(&mut batch);
            }
            if let Err(e) = fleet.submit(batch) {
                panic!("oracle submit failed: {e}");
            }
        }
    }
    ids.iter()
        .map(|&id| {
            let (report, _) = fleet.close_stream(id).expect("oracle close");
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect()
}

/// Periodic checkpoint writer; stopped (and joined) before the crash so
/// the file on disk is a consistent pre-crash snapshot.
struct CheckpointLoop {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<u64>,
}

fn start_checkpoints(server: &IngestServer, path: PathBuf, every: Duration) -> CheckpointLoop {
    let stop = Arc::new(AtomicBool::new(false));
    let checkpointer = server.checkpointer();
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut written = 0u64;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(every);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match checkpointer.checkpoint_to(&path) {
                    Ok(()) => written += 1,
                    Err(e) => eprintln!("chaos_soak: checkpoint failed: {e}"),
                }
            }
            written
        })
    };
    CheckpointLoop { stop, thread }
}

impl CheckpointLoop {
    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("checkpoint thread")
    }
}

fn spawn_server(fleet: Arc<Mutex<Fleet>>, seed: Option<SessionSeed>) -> IngestServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let config = IngestConfig::default();
    match seed {
        Some(seed) => {
            IngestServer::spawn_restored(fleet, IngestListener::Tcp(listener), config, seed)
        }
        None => IngestServer::spawn(fleet, IngestListener::Tcp(listener), config),
    }
    .expect("spawn ingest server")
}

/// One producer thread's campaign: open, wait out the initial
/// checkpoint, submit waves (pausing at the crash barrier), close.
/// Returns the final stats and the per-synth-seed report JSONs.
fn run_producer(
    p: usize,
    args: &Args,
    addr: &Arc<Mutex<std::net::SocketAddr>>,
    barrier: &Barrier,
    crash_wave: usize,
) -> (ProducerStats, Vec<(usize, String)>) {
    let per_producer = args.streams / args.producers;
    let chaos = ChaosConfig {
        write_cut: 0.0008,
        read_cut: 0.0008,
        delay: 0.0,
        delay_us: 0,
    };
    let mut dial = 0u64;
    let addr_for_dial = Arc::clone(addr);
    let connect = Box::new(
        move |_attempt: u32| -> std::io::Result<Box<dyn Transport>> {
            dial += 1;
            let conn = TcpStream::connect(*addr_for_dial.lock().expect("addr lock"))?;
            conn.set_nodelay(true)?;
            // A distinct seed per (producer, dial) keeps the fault pattern
            // deterministic but different on every reconnect.
            let seed = ((p as u64 + 1) << 32) | dial;
            Ok(Box::new(ChaosTransport::new(conn, chaos, seed)))
        },
    );
    let mut producer = ResilientProducer::connect(
        connect,
        ProducerConfig {
            window: 64,
            // Must cover the worst-case frame gap between two periodic
            // checkpoints; ~1.5k frames per producer at full tilt.
            retain_for_replay: 8192,
            ..ProducerConfig::default()
        },
        ReconnectPolicy {
            max_attempts: 40,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            seed: p as u64,
        },
    )
    .expect("connect producer");

    let ids: Vec<StreamId> = (0..per_producer)
        .map(|_| producer.open_stream().expect("open stream"))
        .collect();
    let mut synths: Vec<Synth> = (0..per_producer)
        .map(|k| Synth::new((p * per_producer + k) as u64))
        .collect();
    barrier.wait(); // all streams open
    barrier.wait(); // initial checkpoint covers the opens

    let waves = args.cycles.div_ceil(args.batch);
    for wave in 0..waves {
        if wave == crash_wave {
            barrier.wait(); // crash point
            barrier.wait(); // server restarted on a new port
        }
        let cycles_this_wave = args.batch.min(args.cycles - wave * args.batch);
        for (id, synth) in ids.iter().zip(synths.iter_mut()) {
            let mut batch = SampleBatch::new(*id);
            for _ in 0..cycles_this_wave {
                synth.cycle_into(&mut batch);
            }
            producer.submit(&batch).expect("submit survives chaos");
        }
    }
    let mut reports = Vec::with_capacity(per_producer);
    for (k, id) in ids.iter().enumerate() {
        let json = producer.close_stream(*id).expect("close survives chaos");
        reports.push((
            p * per_producer + k,
            String::from_utf8(json).expect("utf8 report"),
        ));
    }
    (producer.stats(), reports)
}

fn main() {
    let args = parse_args();
    let ckpt_dir = std::env::temp_dir().join(format!("adassure-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).expect("checkpoint dir");
    let ckpt_path = ckpt_dir.join("fleet.adckpt");
    let ckpt_every = Duration::from_millis(250);

    let first_fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config(args.shards))));
    let first_server = spawn_server(Arc::clone(&first_fleet), None);
    let addr = Arc::new(Mutex::new(first_server.local_addr().expect("tcp addr")));

    let waves = args.cycles.div_ceil(args.batch);
    let crash_wave = (waves * 2 / 5).clamp(1, waves - 1);
    // Producers and the main thread meet at four points: opens done,
    // initial checkpoint written, crash wave reached, restart done.
    let barrier = Barrier::new(args.producers + 1);

    let start = Instant::now();
    let (producer_stats, mut reports, restored_fleet, final_server, checkpoints) =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for p in 0..args.producers {
                let args = &args;
                let addr = &addr;
                let barrier = &barrier;
                handles.push(scope.spawn(move || run_producer(p, args, addr, barrier, crash_wave)));
            }

            barrier.wait(); // opens done
            first_server
                .checkpoint_to(&ckpt_path)
                .expect("initial checkpoint");
            let ckpt_loop = start_checkpoints(&first_server, ckpt_path.clone(), ckpt_every);
            barrier.wait(); // release producers

            barrier.wait(); // crash point
            let checkpoints = 1 + ckpt_loop.finish();
            first_server.kill(); // the fleet is discarded: post-checkpoint progress is lost
            let bytes = std::fs::read(&ckpt_path).expect("checkpoint file");
            let (restored, session_seed) =
                restore_server(catalog(), fleet_config(args.shards), &bytes)
                    .expect("checkpoint restores");
            let restored = Arc::new(Mutex::new(restored));
            let new_server = spawn_server(Arc::clone(&restored), Some(session_seed));
            *addr.lock().expect("addr lock") = new_server.local_addr().expect("tcp addr");
            let ckpt_tail = start_checkpoints(&new_server, ckpt_path.clone(), ckpt_every);
            barrier.wait(); // producers reconnect, resume, and replay

            let mut stats = Vec::new();
            let mut reports = Vec::new();
            for h in handles {
                let (s, r) = h.join().expect("producer thread");
                stats.push(s);
                reports.extend(r);
            }
            ckpt_tail.finish();
            (stats, reports, restored, new_server, checkpoints)
        });
    let wall_s = start.elapsed().as_secs_f64();
    let ingest = final_server.shutdown();

    // Byte-identity against the undisturbed oracle, per synth seed.
    let oracle = oracle_reports(&args);
    reports.sort_by_key(|(seed, _)| *seed);
    assert_eq!(reports.len(), args.streams);
    let mut mismatches = 0;
    for (seed, json) in &reports {
        if oracle[*seed] != *json {
            eprintln!("stream {seed}: report diverged from the oracle");
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "chaos run must be byte-identical to oracle");

    // Conservation: the restored fleet is the fleet of record, and it
    // must have checked every cycle exactly once despite the cuts, the
    // crash, and the replays.
    let fleet = restored_fleet.lock().expect("fleet lock");
    let stats = fleet.stats();
    assert_eq!(
        stats.cycles,
        (args.streams * args.cycles) as u64,
        "every cycle checked exactly once across the crash"
    );
    assert_eq!(stats.bad_cycles, 0, "replay preserved per-stream order");
    assert_eq!(stats.stale_batches, 0, "no batch outlived its stream");
    assert_eq!(stats.closed_streams, args.streams as u64);
    assert!(
        ingest.resumes >= args.producers as u64,
        "every producer resumed at least once after the crash"
    );

    let reconnects: u64 = producer_stats.iter().map(|s| s.reconnects).sum();
    let replayed_frames: u64 = producer_stats.iter().map(|s| s.replayed_frames).sum();
    let report = Report {
        benchmark: "chaos_soak",
        regenerate: "cargo run --release -p adassure-bench --bin chaos_soak",
        transport: "loopback-tcp+chaos",
        producers: args.producers,
        streams: args.streams,
        shards: args.shards,
        cycles_per_stream: args.cycles,
        cycles: stats.cycles,
        samples: stats.samples,
        violations: stats.violations,
        wall_s,
        samples_per_sec: stats.samples as f64 / wall_s,
        cycles_per_sec: stats.cycles as f64 / wall_s,
        reconnects,
        replayed_frames,
        checkpoints_before_crash: checkpoints,
        server_crashes: 1,
        oracle_byte_identical: true,
    };
    drop(fleet);

    let per_producer = args.streams / args.producers;
    println!(
        "soak   : {} producers x {} streams x {} cycles, crash at wave {}/{} in {:.2} s",
        report.producers,
        per_producer,
        report.cycles_per_stream,
        crash_wave + 1,
        waves,
        report.wall_s
    );
    println!(
        "chaos  : {} reconnects, {} frames replayed, {} checkpoints before the crash",
        report.reconnects, report.replayed_frames, report.checkpoints_before_crash
    );
    println!(
        "ingest : {:.0} samples/sec, {:.0} cycles/sec — byte-identical to the oracle",
        report.samples_per_sec, report.cycles_per_sec
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, json + "\n").unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {}", args.out);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
