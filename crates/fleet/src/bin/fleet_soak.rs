//! `fleet-soak` — the fleet's end-to-end correctness smoke. It takes no
//! flags, runs three phases on the seeded fleet of
//! [`adassure_fleet::synth`] and panics (exit code 101) on the first
//! failed check:
//!
//! 1. **in-process:** 10,240 streams × 16 cycles, all open at once, from
//!    four concurrent [`FleetHandle`] submitters. Every cycle is checked
//!    exactly once, and every assertion of the catalog fires.
//! 2. **loopback TCP:** 64 streams × 48 cycles from four
//!    [`IngestProducer`]s. Every report is byte-identical
//!    to the in-process oracle, nothing is lost or re-sent, and the server
//!    decodes exactly the frames the producers sent.
//! 3. **chaos:** the same streams from four dialing producers
//!    ([`IngestProducer::dial`]) over [`ChaosTransport`]s that sever sockets mid-frame. A checkpoint is
//!    taken at the first wave boundary, when half of each producer's
//!    streams are open; the other half are opened after it. Then the
//!    server is killed, a fresh fleet is restored from that checkpoint
//!    on a new port, and the producers resume and replay the gap, the
//!    late opens included, while a loop writes checkpoints. Every report
//!    is still byte-identical to the oracle, and every cycle is checked
//!    exactly once.
//!
//! The oracle is one undisturbed in-process run of the wire phases'
//! streams. The checkpoint directory is removed on every exit path.
//! Throughput is `perfbench`'s job (`BENCHMARK.json`), not this smoke's.
//!
//! ```text
//! cargo run --release -p adassure-fleet --bin fleet-soak
//! ```

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use adassure_fleet::ingest::connect_tcp;
use adassure_fleet::synth::{catalog, wave, waves, Synth};
use adassure_fleet::{
    restore_server, ChaosConfig, ChaosTransport, Fleet, FleetConfig, FleetHandle, IngestConfig,
    IngestListener, IngestProducer, IngestServer, ProducerConfig, ProducerStats, ReconnectPolicy,
    SessionSeed, StreamId, Transport,
};

/// Submitting threads in-process, and producers on the wire.
const THREADS: usize = 4;
const IN_PROCESS_STREAMS: usize = 10_240;
const IN_PROCESS_CYCLES: usize = 16;
const IN_PROCESS_BATCH: usize = 8;
const WIRE_STREAMS: usize = 64;
const WIRE_CYCLES: usize = 48;
const WIRE_BATCH: usize = 32;
const PER_PRODUCER: usize = WIRE_STREAMS / THREADS;
/// Each wire producer opens this many of its streams before the chaos
/// phase's checkpoint, and the rest after it.
const HALF: usize = PER_PRODUCER / 2;

/// Report JSONs of closed streams, each with its stream's seed.
type Reports = Vec<(usize, Vec<u8>)>;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 8,
        ..FleetConfig::default()
    }
}

/// Runs `streams` synthetic streams (seeds `0..streams`) in-process from
/// `threads` concurrent submitters, then closes them all. Returns the
/// fleet and each stream's report JSON, indexed by seed.
fn run_in_process(
    streams: usize,
    cycles: usize,
    batch: usize,
    threads: usize,
) -> (Fleet, Vec<Vec<u8>>) {
    let mut fleet = Fleet::new(catalog(), fleet_config());
    let ids: Vec<StreamId> = (0..streams).map(|_| fleet.open_stream()).collect();
    let mut synths: Vec<Synth> = (0..streams).map(|k| Synth::new(k as u64)).collect();
    assert_eq!(
        fleet.stats().open_streams,
        streams as u64,
        "every stream is open at once"
    );
    let per = streams.div_ceil(threads);
    let handle = fleet.handle();
    std::thread::scope(|scope| {
        for (ids, synths) in ids.chunks(per).zip(synths.chunks_mut(per)) {
            let handle: &FleetHandle = &handle;
            scope.spawn(move || {
                for n in waves(cycles, batch) {
                    wave(ids, synths, n, |b| handle.submit(b).expect("submit"));
                }
            });
        }
    });
    let reports = ids
        .iter()
        .map(|&id| {
            let (report, _) = fleet.close_stream(id).expect("stream closes cleanly");
            serde_json::to_vec(&report).expect("report serializes")
        })
        .collect();
    (fleet, reports)
}

/// Phase 1: fleet-scale stream counts on the sharded checker.
fn in_process_phase() {
    let (fleet, _) = run_in_process(
        IN_PROCESS_STREAMS,
        IN_PROCESS_CYCLES,
        IN_PROCESS_BATCH,
        THREADS,
    );
    let stats = fleet.stats();
    assert_eq!(stats.closed_streams, IN_PROCESS_STREAMS as u64);
    assert_eq!(
        stats.cycles,
        (IN_PROCESS_STREAMS * IN_PROCESS_CYCLES) as u64
    );
    assert_eq!(stats.bad_cycles, 0, "synth timestamps are monotone");
    assert_eq!(stats.stale_batches, 0, "no batch outlived its stream");
    let mut fired = Vec::new();
    for assertion in &fleet.metrics().assertions {
        assert!(
            assertion.episodes > 0,
            "assertion {} never fired in the fleet",
            assertion.id
        );
        fired.push(format!("{} {}", assertion.id, assertion.episodes));
    }
    println!(
        "in-process: {IN_PROCESS_STREAMS} streams x {IN_PROCESS_CYCLES} cycles, \
         violation episodes {}",
        fired.join(", ")
    );
}

/// The synthesizers of producer `p`'s streams.
fn producer_synths(p: usize) -> Vec<Synth> {
    (0..PER_PRODUCER)
        .map(|k| Synth::new((p * PER_PRODUCER + k) as u64))
        .collect()
}

/// Fails unless every wire report is byte-identical to the oracle's
/// report of the same seed.
fn assert_matches_oracle(phase: &str, oracle: &[Vec<u8>], reports: &Reports) {
    assert_eq!(
        reports.len(),
        oracle.len(),
        "{phase}: one report per stream"
    );
    let mut mismatches = 0;
    for (seed, json) in reports {
        if oracle[*seed] != *json {
            eprintln!("{phase}: stream {seed}'s report differs from the in-process oracle");
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches, 0,
        "{phase}: every report byte-identical to the oracle"
    );
}

fn spawn_server(fleet: Arc<Mutex<Fleet>>, seed: Option<SessionSeed>) -> IngestServer {
    let listener = IngestListener::Tcp(TcpListener::bind("127.0.0.1:0").expect("bind loopback"));
    let config = IngestConfig::default();
    match seed {
        Some(seed) => IngestServer::spawn_restored(fleet, listener, config, seed),
        None => IngestServer::spawn(fleet, listener, config),
    }
    .expect("spawn ingest server")
}

/// Phase 2: the clean wire, loopback TCP.
fn tcp_phase(oracle: &[Vec<u8>]) {
    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let server = spawn_server(Arc::clone(&fleet), None);
    let addr = server.local_addr().expect("tcp addr");
    let runs: Vec<(ProducerStats, u64, Reports)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|p| {
                scope.spawn(move || {
                    let mut producer =
                        connect_tcp(addr, ProducerConfig::default()).expect("connect producer");
                    let ids: Vec<StreamId> = (0..PER_PRODUCER)
                        .map(|_| producer.open_stream().expect("open stream"))
                        .collect();
                    let mut synths = producer_synths(p);
                    for n in waves(WIRE_CYCLES, WIRE_BATCH) {
                        wave(&ids, &mut synths, n, |b| {
                            producer.submit(&b).expect("submit batch");
                        });
                    }
                    let reports = (ids.iter().enumerate())
                        .map(|(k, &id)| {
                            let json = producer.close_stream(id).expect("close stream");
                            (p * PER_PRODUCER + k, json)
                        })
                        .collect();
                    // The hello plus one frame per sequence number.
                    let frames = producer.next_seq();
                    (producer.into_parts().1, frames, reports)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let ingest = server.shutdown();

    let (mut resent, mut sent, mut reports) = (0, 0, Reports::new());
    for (stats, frames, r) in runs {
        resent += stats.resent_frames;
        sent += frames;
        reports.extend(r);
    }
    assert_matches_oracle("tcp", oracle, &reports);
    let stats = fleet.lock().expect("fleet lock").stats();
    assert_eq!(
        stats.cycles,
        (WIRE_STREAMS * WIRE_CYCLES) as u64,
        "every cycle sent over the wire is checked exactly once"
    );
    assert_eq!(ingest.samples, stats.samples, "wire samples all applied");
    assert_eq!(stats.bad_cycles, 0, "synth timestamps are monotone");
    assert_eq!(stats.stale_batches, 0, "no batch outlived its stream");
    assert_eq!(ingest.truncated, 0);
    assert_eq!(ingest.malformed, 0);
    assert_eq!(stats.closed_streams, WIRE_STREAMS as u64);
    assert_eq!(resent, 0, "a busy server reads later; no producer re-sends");
    assert_eq!(
        ingest.frames, sent,
        "the server decodes each frame sent once"
    );
    println!(
        "tcp       : {THREADS} producers x {PER_PRODUCER} streams x {WIRE_CYCLES} cycles, \
         {sent} frames, byte-identical to the oracle"
    );
}

/// A scratch directory, removed when dropped: a failed check unwinds
/// through its owner, so no checkpoint is left behind.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("adassure-fleet-soak-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("checkpoint dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A thread writing checkpoints back to back, 10 ms apart, until
/// stopped.
struct CheckpointLoop {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

impl CheckpointLoop {
    fn start(server: &IngestServer, path: &Path) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let checkpointer = server.checkpointer();
        let (flag, path) = (Arc::clone(&stop), path.to_path_buf());
        let thread = std::thread::spawn(move || {
            let mut written = 0;
            while !flag.load(Ordering::SeqCst) {
                match checkpointer.checkpoint_to(&path) {
                    Ok(()) => written += 1,
                    Err(e) => eprintln!("fleet-soak: checkpoint failed: {e}"),
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            written
        });
        CheckpointLoop { stop, thread }
    }

    /// Stops the loop and returns the checkpoints it wrote; the file on
    /// disk is then a consistent snapshot.
    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("checkpoint thread")
    }
}

/// A barrier that a failing party breaks: once one party panics, every
/// wait panics too, so a failed check ends the soak instead of leaving
/// the other parties blocked forever.
struct Meeting {
    parties: usize,
    /// Arrivals at the current meeting, meetings held, and whether a
    /// party failed.
    state: Mutex<(usize, u64, bool)>,
    met: Condvar,
}

impl Meeting {
    fn new(parties: usize) -> Self {
        Meeting {
            parties,
            state: Mutex::new((0, 0, false)),
            met: Condvar::new(),
        }
    }

    /// Blocks until every party has arrived.
    fn wait(&self) {
        let mut state = self.state.lock().expect("meeting lock");
        let held = state.1;
        state.0 += 1;
        if state.0 == self.parties {
            *state = (0, held + 1, state.2);
            self.met.notify_all();
        }
        while state.1 == held && !state.2 {
            state = self.met.wait(state).expect("meeting lock");
        }
        let broken = state.2;
        drop(state);
        assert!(!broken, "another party of the soak failed");
    }
}

/// A party's hold on a meeting: dropped by a panicking thread, it breaks
/// the meeting.
struct Attendance<'a>(&'a Meeting);

impl Drop for Attendance<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let meeting = self.0;
            meeting
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .2 = true;
            meeting.met.notify_all();
        }
    }
}

/// One chaos producer. It opens the first half of its streams and sends
/// them the first wave; once the checkpoint the crash restores from is
/// written, it opens the second half and sends them the first wave too;
/// after the restart it sends every stream the remaining waves and
/// closes them. Returns its stats and its reports by seed.
fn chaos_producer(
    p: usize,
    addr: &Arc<Mutex<SocketAddr>>,
    meeting: &Meeting,
) -> (ProducerStats, Reports) {
    let _attendance = Attendance(meeting);
    let chaos = ChaosConfig {
        write_cut: 0.0008,
        read_cut: 0.0008,
        delay: 0.0,
        delay_us: 0,
    };
    let mut dial = 0u64;
    let addr = Arc::clone(addr);
    let connect = Box::new(
        move |_attempt: u32| -> std::io::Result<Box<dyn Transport>> {
            dial += 1;
            let conn = TcpStream::connect(*addr.lock().expect("addr lock"))?;
            conn.set_nodelay(true)?;
            // A distinct seed per (producer, dial) keeps the fault pattern
            // deterministic but different on every reconnect.
            let seed = ((p as u64 + 1) << 32) | dial;
            Ok(Box::new(ChaosTransport::new(conn, chaos, seed)))
        },
    );
    let mut producer = IngestProducer::dial(
        connect,
        ProducerConfig {
            window: 64,
            // Covers every frame sent after the checkpoint the crash
            // restores from.
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

    let mut synths = producer_synths(p);
    let mut waves = waves(WIRE_CYCLES, WIRE_BATCH);
    let first_wave = waves.next().expect("at least one wave");
    let mut ids: Vec<StreamId> = Vec::with_capacity(PER_PRODUCER);
    for half in [0..HALF, HALF..PER_PRODUCER] {
        for _ in half.clone() {
            ids.push(producer.open_stream().expect("open stream"));
        }
        wave(&ids[half.clone()], &mut synths[half], first_wave, |b| {
            producer.submit(&b).expect("submit survives chaos");
        });
        producer.flush().expect("flush survives chaos");
        meeting.wait(); // first half: the checkpoint; second half: the crash
        meeting.wait(); // first half: checkpoint written; second: restarted
    }
    for n in waves {
        wave(&ids, &mut synths, n, |b| {
            producer.submit(&b).expect("submit survives chaos");
        });
    }
    let reports = (ids.iter().enumerate())
        .map(|(k, &id)| {
            let json = producer.close_stream(id).expect("close survives chaos");
            (p * PER_PRODUCER + k, json)
        })
        .collect();
    (producer.stats(), reports)
}

/// Phase 3: faulted sockets and a server crash with checkpoint restore.
///
/// The crash restores the checkpoint taken at the first wave boundary,
/// when half of each producer's streams are open and hold a wave of
/// checker state. The other half are opened after it, so the replay runs
/// their opens again on the restored fleet, in whatever order the
/// producers resume, and each stream's handle still names its stream.
fn chaos_phase(oracle: &[Vec<u8>]) {
    let dir = ScratchDir::new();
    let path = dir.0.join("fleet.adckpt");
    let first = spawn_server(
        Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config()))),
        None,
    );
    let addr = Arc::new(Mutex::new(first.local_addr().expect("tcp addr")));
    let waves_total = waves(WIRE_CYCLES, WIRE_BATCH).count();
    let first_wave = waves(WIRE_CYCLES, WIRE_BATCH).next().expect("a wave");
    // The producers and this thread meet four times: the first wave of the
    // first half applied, the checkpoint written, the first wave of the
    // second half applied (the crash), and the restart done.
    let meeting = Meeting::new(THREADS + 1);

    let (stats, reports, restored, server, at_restore, checkpoints) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|p| {
                let (addr, meeting) = (&addr, &meeting);
                scope.spawn(move || chaos_producer(p, addr, meeting))
            })
            .collect();
        let _attendance = Attendance(&meeting);
        meeting.wait(); // the first half's first wave is applied
        first.checkpoint_to(&path).expect("checkpoint");
        meeting.wait(); // release the producers

        meeting.wait(); // crash point
        first.kill(); // the fleet is discarded: progress after the checkpoint is lost
        let bytes = std::fs::read(&path).expect("checkpoint file");
        let (restored, seed) =
            restore_server(catalog(), fleet_config(), &bytes).expect("checkpoint restores");
        let at_restore = restored.stats();
        let restored = Arc::new(Mutex::new(restored));
        let server = spawn_server(Arc::clone(&restored), Some(seed));
        *addr.lock().expect("addr lock") = server.local_addr().expect("tcp addr");
        let periodic = CheckpointLoop::start(&server, &path);
        meeting.wait(); // producers reconnect, resume and replay

        let mut stats = Vec::new();
        let mut reports = Vec::new();
        for h in handles {
            let (s, r) = h.join().expect("producer thread");
            stats.push(s);
            reports.extend(r);
        }
        let checkpoints = periodic.finish();
        (stats, reports, restored, server, at_restore, checkpoints)
    });
    let ingest = server.shutdown();

    assert_matches_oracle("chaos", oracle, &reports);
    let half = (WIRE_STREAMS / 2) as u64;
    assert_eq!(
        (at_restore.open_streams, at_restore.cycles),
        (half, half * first_wave as u64),
        "the restored image is the first-wave checkpoint"
    );
    assert_eq!(
        ingest.opens, half,
        "the restored server ran the replayed opens"
    );
    // The restored fleet is the fleet of record: every cycle checked
    // exactly once despite the cuts, the crash and the replays.
    let fleet_stats = restored.lock().expect("fleet lock").stats();
    assert_eq!(
        fleet_stats.cycles,
        (WIRE_STREAMS * WIRE_CYCLES) as u64,
        "every cycle checked exactly once across the crash"
    );
    assert_eq!(fleet_stats.bad_cycles, 0, "replay kept per-stream order");
    assert_eq!(fleet_stats.stale_batches, 0, "no batch outlived its stream");
    assert_eq!(fleet_stats.closed_streams, WIRE_STREAMS as u64);
    assert!(
        ingest.resumes >= THREADS as u64,
        "every producer resumed at least once after the crash"
    );
    let reconnects: u64 = stats.iter().map(|s| s.reconnects).sum();
    let replayed: u64 = stats.iter().map(|s| s.replayed_frames).sum();
    println!(
        "chaos     : restored the checkpoint at wave 1/{waves_total} ({} streams, {} cycles), \
         {} opens replayed, {checkpoints} checkpoints after the restart, {reconnects} \
         reconnects, {replayed} frames replayed, byte-identical to the oracle",
        at_restore.open_streams, at_restore.cycles, ingest.opens
    );
}

fn main() {
    in_process_phase();
    let (_, oracle) = run_in_process(WIRE_STREAMS, WIRE_CYCLES, WIRE_BATCH, 1);
    tcp_phase(&oracle);
    chaos_phase(&oracle);
    println!("fleet-soak: OK");
}
