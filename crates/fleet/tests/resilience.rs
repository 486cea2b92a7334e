//! End-to-end crash-resilience tests: a producer surviving seeded
//! connection cuts, a server restart recovering from a checkpoint with
//! producers resuming their sessions, and the typed connection cap.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use adassure_core::{Assertion, Condition, Severity, SignalExpr};
use adassure_fleet::{
    restore_server, ChaosConfig, ChaosTransport, Fleet, FleetConfig, IngestConfig, IngestListener,
    IngestProducer, IngestServer, NackReason, ProducerConfig, ProducerError, ReconnectPolicy,
    ResilientProducer, SampleBatch, StreamId, Transport,
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
    let mut producer = ResilientProducer::connect(
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
    let mut producer = ResilientProducer::connect(
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
