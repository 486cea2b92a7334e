//! End-to-end crash-resilience tests: a producer surviving seeded
//! connection cuts, a server restart recovering from a checkpoint with
//! producers resuming their sessions, and the typed connection cap.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use adassure_core::{Assertion, Condition, Severity, SignalExpr};
use adassure_fleet::wire::{
    encode_close_stream, encode_hello, encode_open_stream, encode_sample_batch,
};
use adassure_fleet::{
    restore_server, ChaosConfig, ChaosTransport, Fleet, FleetConfig, IngestConfig, IngestListener,
    IngestProducer, IngestServer, NackReason, ProducerConfig, ProducerError, ReconnectPolicy,
    SampleBatch, StreamId, Transport,
};

fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "R1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "R2",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.2,
            },
        ),
    ]
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        ..FleetConfig::default()
    }
}

/// Deterministic per-cycle batch for one stream: periodic excursions and
/// periodic gnss dropouts, so reports have real violations to compare.
fn cycle_batch(stream: StreamId, stream_idx: u64, cycle: u64) -> SampleBatch {
    let t = 0.05 * (cycle + 1) as f64;
    let mut batch = SampleBatch::new(stream);
    let xtrack = if (cycle + stream_idx).is_multiple_of(17) {
        2.0
    } else {
        0.3
    };
    batch.push(t, "xtrack", xtrack);
    if !(cycle + stream_idx).is_multiple_of(11) {
        batch.push(t, "gnss_x", 1.0);
    }
    batch
}

/// Oracle: the same traffic applied in-process, no network, no faults.
fn oracle_reports(streams: usize, cycles: u64) -> Vec<String> {
    let mut fleet = Fleet::new(catalog(), fleet_config());
    let ids: Vec<StreamId> = (0..streams).map(|_| fleet.open_stream()).collect();
    for cycle in 0..cycles {
        for (idx, &id) in ids.iter().enumerate() {
            fleet
                .submit(cycle_batch(id, idx as u64, cycle))
                .expect("submit");
        }
    }
    ids.iter()
        .map(|&id| {
            let (report, _) = fleet.close_stream(id).expect("open stream closes");
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect()
}

fn unique_tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("adassure-resilience-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

#[test]
fn producer_survives_seeded_connection_cuts() {
    const STREAMS: usize = 2;
    const CYCLES: u64 = 300;

    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn");
    let addr = server.local_addr().expect("tcp addr");

    let chaos = ChaosConfig {
        write_cut: 0.03,
        read_cut: 0.03,
        delay: 0.0,
        delay_us: 0,
    };
    let mut dial = 0u64;
    let connect = Box::new(
        move |_attempt: u32| -> std::io::Result<Box<dyn Transport>> {
            dial += 1;
            let conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            // A distinct seed per dial keeps the fault pattern deterministic
            // but different on every reconnect.
            Ok(Box::new(ChaosTransport::new(conn, chaos, 0xC0FFEE ^ dial)))
        },
    );
    let mut producer = IngestProducer::dial(
        connect,
        ProducerConfig {
            window: 16,
            retain_for_replay: 128,
            ..ProducerConfig::default()
        },
        ReconnectPolicy {
            base_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(20),
            max_attempts: 16,
            seed: 7,
        },
    )
    .expect("initial connect");

    let ids: Vec<StreamId> = (0..STREAMS)
        .map(|_| producer.open_stream().expect("open"))
        .collect();
    for cycle in 0..CYCLES {
        for (idx, &id) in ids.iter().enumerate() {
            producer
                .submit(&cycle_batch(id, idx as u64, cycle))
                .expect("submit survives cuts");
        }
    }
    producer.flush().expect("flush survives cuts");
    let reports: Vec<String> = ids
        .iter()
        .map(|&id| {
            let json = producer.close_stream(id).expect("close survives cuts");
            String::from_utf8(json).expect("utf8 report")
        })
        .collect();

    let stats = producer.stats();
    assert!(
        stats.reconnects > 0,
        "chaos at 3% per op over {CYCLES} cycles must cut at least once"
    );
    assert_eq!(reports, oracle_reports(STREAMS, CYCLES));

    let server_stats = server.shutdown();
    assert_eq!(server_stats.resumes, stats.reconnects);
    assert_eq!(
        server_stats.batches,
        STREAMS as u64 * CYCLES,
        "exactly once"
    );
}

#[test]
fn server_restart_restores_sessions_from_checkpoint() {
    const PRE: u64 = 40; // cycles before the checkpoint
    const LOST: u64 = 10; // applied after the checkpoint, lost in the crash
    const POST: u64 = 30; // cycles after the restart

    let dir = unique_tmp("restart");
    let ckpt = dir.join("fleet.adckpt");

    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn");

    let addr = Arc::new(Mutex::new(server.local_addr().expect("tcp addr")));
    let connect = {
        let addr = Arc::clone(&addr);
        Box::new(
            move |_attempt: u32| -> std::io::Result<Box<dyn Transport>> {
                let conn = TcpStream::connect(*addr.lock().expect("addr lock"))?;
                conn.set_nodelay(true)?;
                Ok(Box::new(conn) as Box<dyn Transport>)
            },
        )
    };
    let mut producer = IngestProducer::dial(
        connect,
        ProducerConfig {
            window: 16,
            retain_for_replay: 256,
            ..ProducerConfig::default()
        },
        ReconnectPolicy {
            base_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(50),
            ..ReconnectPolicy::default()
        },
    )
    .expect("connect");

    let id = producer.open_stream().expect("open");
    for cycle in 0..PRE {
        producer.submit(&cycle_batch(id, 0, cycle)).expect("submit");
    }
    producer.flush().expect("flush");
    server.checkpoint_to(&ckpt).expect("checkpoint");

    // These cycles are applied and acknowledged, then lost in the crash;
    // the producer's replay retention brings them back.
    for cycle in PRE..PRE + LOST {
        producer.submit(&cycle_batch(id, 0, cycle)).expect("submit");
    }
    producer.flush().expect("flush");

    server.kill();
    drop(fleet);

    let bytes = std::fs::read(&ckpt).expect("checkpoint file");
    let (restored, seed) =
        restore_server(catalog(), fleet_config(), &bytes).expect("checkpoint restores");
    assert_eq!(seed.len(), 1, "the producer's session is in the image");
    let listener = TcpListener::bind("127.0.0.1:0").expect("rebind");
    let server = IngestServer::spawn_restored(
        Arc::new(Mutex::new(restored)),
        IngestListener::Tcp(listener),
        IngestConfig::default(),
        seed,
    )
    .expect("respawn");
    *addr.lock().expect("addr lock") = server.local_addr().expect("tcp addr");

    // The next operation hits the dead socket, reconnects to the new
    // address and resumes; the LOST cycles replay from retention.
    for cycle in PRE + LOST..PRE + LOST + POST {
        producer.submit(&cycle_batch(id, 0, cycle)).expect("submit");
    }
    let report =
        String::from_utf8(producer.close_stream(id).expect("close after restart")).expect("utf8");

    assert_eq!(vec![report], oracle_reports(1, PRE + LOST + POST));
    let stats = producer.stats();
    assert_eq!(stats.reconnects, 1);
    assert!(
        stats.replayed_frames >= LOST,
        "the post-checkpoint frames were replayed ({} < {LOST})",
        stats.replayed_frames
    );
    let server_stats = server.shutdown();
    assert_eq!(server_stats.resumes, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_limit_is_a_typed_nack() {
    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(listener),
        IngestConfig {
            max_connections: 1,
            ..IngestConfig::default()
        },
    )
    .expect("spawn");
    let addr = server.local_addr().expect("tcp addr");

    let first = adassure_fleet::ingest::connect_tcp(addr, ProducerConfig::default())
        .expect("first connection is under the cap");

    // The second connection is refused with the typed reason.
    let conn = TcpStream::connect(addr).expect("tcp connect");
    match IngestProducer::connect(conn, ProducerConfig::default()) {
        Err(ProducerError::Rejected {
            seq: 0,
            reason: NackReason::ConnectionLimit,
        }) => {}
        other => panic!("expected a ConnectionLimit nack, got {other:?}"),
    }

    // Capacity frees up once the first connection ends.
    drop(first);
    let mut retried = None;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let conn = TcpStream::connect(addr).expect("tcp connect");
        match IngestProducer::connect(conn, ProducerConfig::default()) {
            Ok(p) => {
                retried = Some(p);
                break;
            }
            Err(ProducerError::Rejected {
                reason: NackReason::ConnectionLimit,
                ..
            }) => continue,
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(retried.is_some(), "slot frees after the first conn closes");

    let stats = server.shutdown();
    assert!(stats.rejected_connections >= 1);
    assert_eq!(stats.resumes, 0);
}

/// A fresh `Hello` while every retained session is live is refused like
/// an over-cap connection: a typed `ConnectionLimit` nack, counted in
/// `rejected_connections`.
#[test]
fn session_limit_is_a_typed_connection_limit_nack() {
    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(listener),
        IngestConfig {
            max_sessions: 1,
            ..IngestConfig::default()
        },
    )
    .expect("spawn");
    let addr = server.local_addr().expect("tcp addr");

    let _first = adassure_fleet::ingest::connect_tcp(addr, ProducerConfig::default())
        .expect("first session fits");
    let conn = TcpStream::connect(addr).expect("tcp connect");
    match IngestProducer::connect(conn, ProducerConfig::default()) {
        Err(ProducerError::Rejected {
            seq: 0,
            reason: NackReason::ConnectionLimit,
        }) => {}
        other => panic!("expected a ConnectionLimit nack, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.rejected_connections, 1);
    assert_eq!(stats.rejected_stale, 0);
}

/// Two producers open streams after the checkpoint a crash restores
/// from, and replay those opens in the other order than they first ran.
/// Each handle still names its own stream, so every report matches the
/// in-process oracle byte for byte.
#[test]
fn replayed_opens_in_swapped_order_keep_their_streams() {
    const PRE: u64 = 20; // cycles of the first streams before the checkpoint
    const LOST: u64 = 15; // cycles sent after it, lost in the crash
    const POST: u64 = 10; // cycles after the restart

    let dir = unique_tmp("swapped-opens");
    let ckpt = dir.join("fleet.adckpt");
    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(TcpListener::bind("127.0.0.1:0").expect("bind")),
        IngestConfig::default(),
    )
    .expect("spawn");
    let addr = Arc::new(Mutex::new(server.local_addr().expect("tcp addr")));
    let producer = |seed: u64| {
        let addr = Arc::clone(&addr);
        let connect = Box::new(
            move |_attempt: u32| -> std::io::Result<Box<dyn Transport>> {
                let conn = TcpStream::connect(*addr.lock().expect("addr lock"))?;
                conn.set_nodelay(true)?;
                Ok(Box::new(conn) as Box<dyn Transport>)
            },
        );
        IngestProducer::dial(
            connect,
            ProducerConfig {
                window: 16,
                retain_for_replay: 256,
                ..ProducerConfig::default()
            },
            ReconnectPolicy {
                base_delay: std::time::Duration::from_millis(1),
                max_delay: std::time::Duration::from_millis(50),
                seed,
                ..ReconnectPolicy::default()
            },
        )
        .expect("connect")
    };
    let mut producers = [producer(1), producer(2)];
    // Stream `2p` is producer p's first, stream `2p + 1` its second; the
    // oracle opens them in index order.
    let mut ids = [[StreamId::from_raw(0, 0, 0); 2]; 2];
    let feed = |p: &mut IngestProducer<Box<dyn Transport>>,
                id: StreamId,
                idx: u64,
                cycles: std::ops::Range<u64>| {
        for cycle in cycles {
            p.submit(&cycle_batch(id, idx, cycle)).expect("submit");
        }
        p.flush().expect("flush");
    };

    for (p, producer) in producers.iter_mut().enumerate() {
        ids[p][0] = producer.open_stream().expect("open");
        feed(producer, ids[p][0], 2 * p as u64, 0..PRE);
    }
    server.checkpoint_to(&ckpt).expect("checkpoint");
    // Opened after the checkpoint, producer 0 first: the crash loses
    // these opens and the replay runs them again.
    for (p, producer) in producers.iter_mut().enumerate() {
        ids[p][1] = producer.open_stream().expect("open");
        feed(producer, ids[p][1], 2 * p as u64 + 1, 0..LOST);
        feed(producer, ids[p][0], 2 * p as u64, PRE..PRE + LOST);
    }
    server.kill();
    drop(fleet);

    let bytes = std::fs::read(&ckpt).expect("checkpoint file");
    let (restored, seed) =
        restore_server(catalog(), fleet_config(), &bytes).expect("checkpoint restores");
    assert_eq!(seed.len(), 2, "both sessions are in the image");
    let server = IngestServer::spawn_restored(
        Arc::new(Mutex::new(restored)),
        IngestListener::Tcp(TcpListener::bind("127.0.0.1:0").expect("rebind")),
        IngestConfig::default(),
        seed,
    )
    .expect("respawn");
    *addr.lock().expect("addr lock") = server.local_addr().expect("tcp addr");

    // Producer 1 resumes, and replays its open, before producer 0 does.
    for p in [1, 0] {
        let producer = &mut producers[p];
        feed(producer, ids[p][1], 2 * p as u64 + 1, LOST..LOST + POST);
        feed(
            producer,
            ids[p][0],
            2 * p as u64,
            PRE + LOST..PRE + LOST + POST,
        );
        assert_eq!(producer.stats().reconnects, 1, "producer {p} resumed once");
    }
    let mut reports = vec![String::new(); 4];
    for (p, producer) in producers.iter_mut().enumerate() {
        for (k, &id) in ids[p].iter().enumerate() {
            let json = producer.close_stream(id).expect("close after restart");
            reports[2 * p + k] = String::from_utf8(json).expect("utf8 report");
        }
    }

    // The oracle's streams 0 and 2 ran PRE + LOST + POST cycles, streams
    // 1 and 3 LOST + POST.
    let full = oracle_reports(4, PRE + LOST + POST);
    let late = oracle_reports(4, LOST + POST);
    assert_eq!(
        reports,
        [
            full[0].as_str(),
            late[1].as_str(),
            full[2].as_str(),
            late[3].as_str()
        ]
    );
    let stats = server.shutdown();
    assert_eq!(stats.resumes, 2);
    assert_eq!(
        stats.opens, 2,
        "the restored server ran the two replayed opens"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where [`CutOnce`] severs its connection.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// Inside the frame ending past byte `at`: the bytes before `at`
    /// reach the server, the rest never do.
    Write(u64),
    /// On the first read once `at` bytes are written: the frame reaches
    /// the server, its ack never reaches the producer.
    Read(u64),
}

/// A TCP transport that severs itself once, at a chosen written byte.
struct CutOnce {
    inner: TcpStream,
    written: u64,
    cut: Option<Cut>,
}

impl CutOnce {
    fn sever(&mut self) -> std::io::Error {
        self.cut = None;
        let _ = self.inner.shutdown(Shutdown::Both);
        std::io::Error::new(ErrorKind::ConnectionReset, "cut at a chosen byte")
    }
}

impl Read for CutOnce {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.cut {
            Some(Cut::Read(at)) if self.written >= at => Err(self.sever()),
            _ => self.inner.read(buf),
        }
    }
}

impl Write for CutOnce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(Cut::Write(at)) = self.cut {
            if self.written + buf.len() as u64 > at {
                self.inner.write_all(&buf[..(at - self.written) as usize])?;
                return Err(self.sever());
            }
        }
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Dial attempts per redial in the tests that cut a connection once.
const REDIAL_ATTEMPTS: u32 = 3;

/// Runs `call`, and runs it again if it gave up: repeating a call that
/// gave up sends none of its frames twice.
fn repeating<T>(gave_up: &mut u32, mut call: impl FnMut() -> Result<T, ProducerError>) -> T {
    match call() {
        Err(ProducerError::GaveUp { attempts, .. }) => {
            assert_eq!(attempts, REDIAL_ATTEMPTS);
            *gave_up += 1;
            call().expect("the repeated call redials")
        }
        done => done.expect("call"),
    }
}

/// A connect closure for [`CutOnce`] transports: the first dial is cut at
/// `cut`, the next `refusals` dials are refused, later ones are clean.
fn cut_then_refuse(
    addr: std::net::SocketAddr,
    cut: Cut,
    refusals: u32,
) -> impl FnMut(u32) -> std::io::Result<Box<dyn Transport>> + Send + 'static {
    let mut dials = 0u32;
    move |_attempt: u32| {
        dials += 1;
        if (2..2 + refusals).contains(&dials) {
            return Err(std::io::Error::new(ErrorKind::ConnectionRefused, "refused"));
        }
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(Box::new(CutOnce {
            inner: conn,
            written: 0,
            cut: (dials == 1).then_some(cut),
        }) as Box<dyn Transport>)
    }
}

/// A window-1 producer whose redials wait long enough for the server to
/// detach a cut connection.
fn cut_once_producer(
    connect: impl FnMut(u32) -> std::io::Result<Box<dyn Transport>> + Send + 'static,
    window: usize,
) -> IngestProducer<Box<dyn Transport>> {
    IngestProducer::dial(
        connect,
        ProducerConfig {
            window,
            ..ProducerConfig::default()
        },
        ReconnectPolicy {
            base_delay: std::time::Duration::from_millis(20),
            max_attempts: REDIAL_ATTEMPTS,
            ..ReconnectPolicy::default()
        },
    )
    .expect("connect")
}

/// One stream of `CYCLES` batches and a close from a window-1 producer,
/// so every frame is written alone and its ack read before the next.
/// The first connection is cut once in or after frame `target` (0 is the
/// open, `CYCLES + 1` the close). The next `refusals` dials are refused:
/// with [`REDIAL_ATTEMPTS`] of them the first redial gives up and the
/// call it interrupted is repeated. Later dials are clean. Whichever side
/// of the boundary the cut falls, every frame is applied once.
fn cut_once(target: usize, after_write: bool, refusals: u32) {
    const CYCLES: u64 = 6;

    // The producer's bytes on the first connection, frame by frame.
    let handle = StreamId::from_open_seq(1);
    let mut frames = vec![Vec::new(); CYCLES as usize + 3];
    encode_hello(&mut frames[0]);
    encode_open_stream(&mut frames[1], 1);
    for cycle in 0..CYCLES {
        let frame = &mut frames[cycle as usize + 2];
        encode_sample_batch(frame, cycle + 2, &cycle_batch(handle, 0, cycle)).expect("encodes");
    }
    encode_close_stream(&mut frames[CYCLES as usize + 2], CYCLES + 2, handle);
    let start: usize = frames[..target + 1].iter().map(Vec::len).sum();
    let len = frames[target + 1].len();
    let cut = if after_write {
        Cut::Read((start + len) as u64)
    } else {
        Cut::Write((start + len / 2) as u64)
    };

    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn");
    let addr = server.local_addr().expect("tcp addr");
    let mut producer = cut_once_producer(cut_then_refuse(addr, cut, refusals), 1);

    let mut gave_up = 0;
    let id = repeating(&mut gave_up, || producer.open_stream());
    assert_eq!(id, handle);
    for cycle in 0..CYCLES {
        let batch = cycle_batch(id, 0, cycle);
        repeating(&mut gave_up, || producer.submit(&batch));
    }
    let report = repeating(&mut gave_up, || producer.close_stream(id));
    let report = String::from_utf8(report).expect("utf8");

    assert_eq!(gave_up, u32::from(refusals > 0), "{cut:?}");
    assert_eq!(vec![report], oracle_reports(1, CYCLES), "{cut:?}");
    let stats = producer.stats();
    assert_eq!(stats.reconnects, 1, "{cut:?}");
    // A frame cut inside is re-sent; one cut after its bytes is not, the
    // server replays its ack instead.
    assert_eq!(stats.replayed_frames, u64::from(!after_write), "{cut:?}");
    let server_stats = server.shutdown();
    assert_eq!(server_stats.resumes, 1, "{cut:?}");
    assert_eq!(server_stats.truncated, u64::from(!after_write), "{cut:?}");
    assert_eq!(server_stats.opens, 1, "{cut:?}");
    assert_eq!(server_stats.batches, CYCLES, "{cut:?}");
    assert_eq!(server_stats.closes, 1, "{cut:?}");
}

#[test]
fn a_batch_cut_on_either_side_of_its_last_byte_is_applied_once() {
    cut_once(4, false, 0);
    cut_once(4, true, 0);
}

#[test]
fn a_close_cut_on_either_side_of_its_last_byte_is_applied_once() {
    cut_once(7, false, 0);
    cut_once(7, true, 0);
}

/// Every attempt of the redial after the cut is refused, so the call it
/// interrupted gives up: the submit after the cut batch before that
/// submit's frame is windowed, the close while it waits for the report of
/// its windowed frame. The repeated call redials, and nothing is applied
/// twice.
#[test]
fn a_call_that_gave_up_is_repeated_without_sending_twice() {
    for (target, after_write) in [(4, false), (4, true), (7, false), (7, true)] {
        cut_once(target, after_write, REDIAL_ATTEMPTS);
    }
}

/// A submit that would push the queued bytes past the coalescing bound
/// writes them before its own frame takes a sequence number. When that
/// write is cut and the redial gives up, the repeated submit sends its
/// batch once.
#[test]
fn a_submit_that_gave_up_flushing_queued_bytes_sends_its_batch_once() {
    // Two samples a cycle: one batch is larger than the 128 KiB bound.
    const CYCLES: u64 = 4000;
    let batch = |stream: StreamId, part: u64| {
        let mut batch = SampleBatch::new(stream);
        for cycle in part * CYCLES..(part + 1) * CYCLES {
            let t = 0.05 * (cycle + 1) as f64;
            batch.push(t, "xtrack", if cycle % 17 == 0 { 2.0 } else { 0.3 });
            batch.push(t, "gnss_x", 1.0);
        }
        batch
    };
    let mut oracle = Fleet::new(catalog(), fleet_config());
    let id = oracle.open_stream();
    for part in 0..2 {
        oracle.submit(batch(id, part)).expect("submit");
    }
    let (report, _) = oracle.close_stream(id).expect("open stream closes");
    let expected = serde_json::to_string(&report).expect("report serializes");

    // The cut falls inside the first batch, which is written only when
    // the second submit finds the outbound buffer full.
    let handle = StreamId::from_open_seq(1);
    let (mut hello, mut open, mut first) = (Vec::new(), Vec::new(), Vec::new());
    encode_hello(&mut hello);
    encode_open_stream(&mut open, 1);
    encode_sample_batch(&mut first, 2, &batch(handle, 0)).expect("encodes");
    assert!(
        open.len() + first.len() >= 128 * 1024,
        "one batch fills the buffer"
    );
    let cut = Cut::Write((hello.len() + open.len() + first.len() / 2) as u64);

    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config())));
    let server = IngestServer::spawn(
        Arc::clone(&fleet),
        IngestListener::Tcp(TcpListener::bind("127.0.0.1:0").expect("bind")),
        IngestConfig::default(),
    )
    .expect("spawn");
    let addr = server.local_addr().expect("tcp addr");
    let mut producer = cut_once_producer(cut_then_refuse(addr, cut, REDIAL_ATTEMPTS), 16);

    let mut gave_up = 0;
    let id = repeating(&mut gave_up, || producer.open_stream());
    for part in 0..2 {
        let batch = batch(id, part);
        repeating(&mut gave_up, || producer.submit(&batch));
    }
    let report = repeating(&mut gave_up, || producer.close_stream(id));

    assert_eq!(gave_up, 1);
    assert_eq!(String::from_utf8(report).expect("utf8"), expected);
    let stats = producer.stats();
    assert_eq!(stats.reconnects, 1);
    assert_eq!(
        stats.replayed_frames, 1,
        "the open before the cut was applied"
    );
    let server_stats = server.shutdown();
    assert_eq!(server_stats.resumes, 1);
    assert_eq!((server_stats.opens, server_stats.batches), (1, 2));
    assert_eq!(server_stats.closes, 1);
}

/// A session the server cannot resume is refused on the first attempt of
/// a redial, and that refusal surfaces at once rather than after
/// [`ReconnectPolicy::max_attempts`] dials. Every later call redials and
/// is refused again.
#[test]
fn an_unresumable_session_is_refused_at_once_and_on_every_call() {
    let spawn = || {
        IngestServer::spawn(
            Arc::new(Mutex::new(Fleet::new(catalog(), fleet_config()))),
            IngestListener::Tcp(TcpListener::bind("127.0.0.1:0").expect("bind")),
            IngestConfig::default(),
        )
        .expect("spawn")
    };
    let (first, other) = (spawn(), spawn());
    let addrs = [
        first.local_addr().expect("tcp addr"),
        other.local_addr().expect("tcp addr"),
    ];
    let mut hello = Vec::new();
    encode_hello(&mut hello);
    let dials = Arc::new(Mutex::new(0usize));
    let connect = {
        let dials = Arc::clone(&dials);
        move |_attempt: u32| -> std::io::Result<Box<dyn Transport>> {
            // The first dial reaches the server that opened the session
            // and is cut on the first read after the handshake; later ones
            // reach a server that never heard of it.
            let mut dials = dials.lock().expect("dials lock");
            *dials += 1;
            let conn = TcpStream::connect(addrs[usize::from(*dials > 1)])?;
            Ok(Box::new(CutOnce {
                inner: conn,
                written: 0,
                cut: (*dials == 1).then_some(Cut::Read(hello.len() as u64 + 1)),
            }) as Box<dyn Transport>)
        }
    };
    let mut producer = IngestProducer::dial(
        connect,
        ProducerConfig::default(),
        ReconnectPolicy {
            base_delay: std::time::Duration::from_millis(1),
            ..ReconnectPolicy::default()
        },
    )
    .expect("connect");

    let id = producer.open_stream().expect("an open is only queued");
    let refused = |result: Result<(), ProducerError>| {
        assert!(
            matches!(
                result,
                Err(ProducerError::Rejected {
                    seq: 0,
                    reason: NackReason::UnknownSession,
                })
            ),
            "{result:?}"
        );
    };
    refused(producer.flush());
    assert_eq!(*dials.lock().expect("dials lock"), 2, "one redial attempt");
    refused(producer.close_stream(id).map(drop));
    assert_eq!(*dials.lock().expect("dials lock"), 3, "one more attempt");
    assert_eq!(producer.stats().reconnects, 0);

    assert_eq!(first.shutdown().opens, 1);
    let other = other.shutdown();
    assert_eq!((other.resumes, other.opens), (0, 0));
}
