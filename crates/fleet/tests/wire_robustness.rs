//! Adversarial coverage for the binary ingest path: truncated frames,
//! flipped bytes, bad magic/version, oversize declared lengths, garbage
//! streams and mid-frame disconnects must yield typed errors and counted
//! drops — never a panic, never a hang, never a wedged server.
//!
//! The byte sweeps run every input through both decoder accessors, the
//! owned `next_frame` and the borrowed `next_frame_ref` the server
//! uses, and require the same outcome from both.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adassure_core::{Assertion, Condition, Severity, SignalExpr};
use adassure_fleet::{
    wire, Fleet, FleetConfig, FrameDecoder, IngestConfig, IngestListener, IngestServer,
    IngestStatsSnapshot, ProducerConfig, SampleBatch, StreamId, WireError,
};

fn catalog() -> Vec<Assertion> {
    vec![Assertion::new(
        "R1",
        "bounded x",
        Severity::Critical,
        Condition::AtMost {
            expr: SignalExpr::signal("x").abs(),
            limit: 1.0,
        },
    )]
}

fn spawn_server() -> IngestServer {
    let fleet = Arc::new(Mutex::new(Fleet::new(catalog(), FleetConfig::default())));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    IngestServer::spawn(
        fleet,
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn server")
}

/// A realistic multi-frame byte string: hello, open, two batches, close.
fn valid_session_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    wire::encode_hello(&mut bytes);
    wire::encode_open_stream(&mut bytes, 1);
    let id = StreamId::from_raw(0, 0, 1);
    let mut batch = SampleBatch::new(id);
    batch.push(0.1, "x", 0.4);
    batch.push(0.1, "y", -2.0);
    batch.push(0.2, "x", 1.8);
    wire::encode_sample_batch(&mut bytes, 2, &batch).expect("encode batch");
    let mut batch = SampleBatch::new(id);
    batch.push(0.3, "x", 0.0);
    wire::encode_sample_batch(&mut bytes, 3, &batch).expect("encode batch");
    wire::encode_close_stream(&mut bytes, 4, id);
    bytes
}

fn drain_all(decoder: &mut FrameDecoder) -> Result<usize, WireError> {
    let mut n = 0;
    while decoder.next_frame()?.is_some() {
        n += 1;
    }
    Ok(n)
}

fn drain_all_ref(decoder: &mut FrameDecoder) -> Result<usize, WireError> {
    let mut n = 0;
    while decoder.next_frame_ref()?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// Two decoders fed the same bytes, one drained through `next_frame` and
/// the other through `next_frame_ref`.
struct Twin {
    owned: FrameDecoder,
    borrowed: FrameDecoder,
}

impl Twin {
    fn new(max_frame_len: usize) -> Self {
        Twin {
            owned: FrameDecoder::new(max_frame_len),
            borrowed: FrameDecoder::new(max_frame_len),
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        self.owned.feed(bytes);
        self.borrowed.feed(bytes);
    }

    /// Drains both decoders; they must agree on the frame count or the
    /// error. `at` names the input in the failure message.
    fn drain(&mut self, at: &str) -> Result<usize, WireError> {
        let owned = drain_all(&mut self.owned);
        let borrowed = drain_all_ref(&mut self.borrowed);
        assert_eq!(owned, borrowed, "accessors disagree on {at}");
        assert_eq!(self.owned.pending(), self.borrowed.pending(), "{at}");
        owned
    }
}

/// Every prefix of a valid byte stream decodes cleanly: complete frames
/// come out, the truncated tail waits for more bytes, and nothing errors.
#[test]
fn every_truncation_point_is_need_more_bytes_not_an_error() {
    let bytes = valid_session_bytes();
    let mut full = Twin::new(wire::DEFAULT_MAX_FRAME_LEN);
    full.feed(&bytes);
    let total = full
        .drain("the whole stream")
        .expect("the untruncated stream is valid");
    assert_eq!(total, 5);

    for cut in 0..bytes.len() {
        let mut decoder = Twin::new(wire::DEFAULT_MAX_FRAME_LEN);
        decoder.feed(&bytes[..cut]);
        let got = decoder
            .drain(&format!("a prefix of {cut} bytes"))
            .unwrap_or_else(|e| panic!("prefix of {cut} bytes errored: {e}"));
        assert!(got <= total);
        // Feeding the remainder always completes the session.
        decoder.feed(&bytes[cut..]);
        let rest = decoder
            .drain(&format!("the suffix after {cut} bytes"))
            .expect("suffix completes cleanly");
        assert_eq!(got + rest, total, "reassembly at cut {cut} lost frames");
    }
}

/// Flipping any single byte must produce either a still-parseable stream
/// or a typed `WireError` — never a panic. (Step 1: every position.)
#[test]
fn single_byte_corruption_never_panics() {
    let bytes = valid_session_bytes();
    for at in 0..bytes.len() {
        for flip in [0xFFu8, 0x80, 0x01] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= flip;
            let mut decoder = Twin::new(wire::DEFAULT_MAX_FRAME_LEN);
            decoder.feed(&corrupt);
            // Either outcome is fine, as long as both accessors reach it.
            let _ = decoder.drain(&format!("byte {at} flipped by {flip:#04x}"));
        }
    }
}

/// A declared body length beyond the cap is rejected *before* buffering,
/// and the decoder stays poisoned afterwards.
#[test]
fn oversize_declared_length_is_rejected_up_front() {
    let mut decoder = FrameDecoder::new(1024);
    decoder.feed(&(u32::MAX).to_le_bytes());
    match decoder.next_frame() {
        Err(WireError::FrameTooLong { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, 1024);
        }
        other => panic!("expected FrameTooLong, got {other:?}"),
    }
    decoder.feed(b"more bytes after the fault");
    assert!(decoder.next_frame().is_err(), "the decoder stays poisoned");
}

/// Pseudo-random garbage never panics or hangs the decoder.
#[test]
fn random_garbage_fuzz_never_panics() {
    let mut state = 0x243F6A8885A308D3u64;
    for round in 0..64 {
        let mut decoder = Twin::new(64 * 1024);
        let mut bytes = Vec::with_capacity(512);
        for _ in 0..(64 + round * 8) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bytes.extend_from_slice(&state.to_le_bytes());
        }
        decoder.feed(&bytes);
        let _ = decoder.drain(&format!("garbage round {round}"));
    }
}

fn wait_for(server: &IngestServer, what: &str, pred: impl Fn(&IngestStatsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if pred(&server.stats()) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn connect(server: &IngestServer) -> TcpStream {
    let addr = server.local_addr().expect("tcp server has an addr");
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn
}

/// Reads until EOF (server closed the connection) or timeout.
fn read_to_close(conn: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => return out,
        }
    }
}

/// Garbage on a live connection: the server nacks `Malformed`, closes the
/// connection, counts the drop — and keeps serving new connections.
#[test]
fn live_server_survives_garbage_and_keeps_serving() {
    let server = spawn_server();

    let mut conn = connect(&server);
    conn.write_all(b"GET / HTTP/1.1\r\nHost: not-a-frame\r\n\r\n")
        .expect("write garbage");
    let response = read_to_close(&mut conn);
    drop(conn);
    // The nack is itself a valid frame carrying NackReason::Malformed.
    let mut decoder = FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
    decoder.feed(&response);
    match decoder.next_frame() {
        Ok(Some(wire::Frame::Nack { reason, .. })) => {
            assert_eq!(reason, adassure_fleet::NackReason::Malformed)
        }
        other => panic!("expected a Malformed nack, got {other:?}"),
    }
    wait_for(&server, "malformed count", |s| s.malformed >= 1);

    // A fresh, well-behaved connection still works end to end.
    let mut producer = adassure_fleet::ingest::connect_tcp(
        server.local_addr().unwrap(),
        ProducerConfig::default(),
    )
    .expect("reconnect after garbage");
    let id = producer.open_stream().expect("open");
    let mut batch = SampleBatch::new(id);
    batch.push(0.1, "x", 0.2);
    producer.submit(&batch).expect("submit");
    let report = producer.close_stream(id).expect("close");
    assert!(report.starts_with(b"{"), "close returned report JSON");
    server.shutdown();
}

/// A producer that dies mid-frame is counted as truncated; the server
/// neither panics nor hangs, and the stream machinery stays healthy.
#[test]
fn mid_frame_disconnect_is_counted_as_truncated() {
    let server = spawn_server();

    let mut bytes = Vec::new();
    wire::encode_hello(&mut bytes);
    let id = StreamId::from_raw(0, 0, 1);
    let mut batch = SampleBatch::new(id);
    for k in 0..64 {
        batch.push(0.1 * (k + 1) as f64, "x", 0.5);
    }
    wire::encode_sample_batch(&mut bytes, 1, &batch).expect("encode");

    let mut conn = connect(&server);
    // Send the hello plus half of the batch frame, then vanish.
    let cut = bytes.len() - 40;
    conn.write_all(&bytes[..cut]).expect("write partial");
    conn.flush().unwrap();
    drop(conn);

    wait_for(&server, "truncated count", |s| s.truncated >= 1);
    let snapshot = server.stats();
    assert_eq!(snapshot.batches, 0, "the half-frame was never applied");

    // Server is still alive for the next producer.
    let mut producer = adassure_fleet::ingest::connect_tcp(
        server.local_addr().unwrap(),
        ProducerConfig::default(),
    )
    .expect("reconnect after disconnect");
    let id = producer.open_stream().expect("open");
    producer.close_stream(id).expect("close");
    let stats = server.shutdown();
    assert_eq!(stats.truncated, 1);
    assert_eq!(stats.connections, 2);
}

/// Wrong magic and unsupported version are refused with typed nacks.
#[test]
fn bad_magic_and_bad_version_are_refused() {
    let server = spawn_server();

    // Hand-built hello with wrong magic.
    let mut conn = connect(&server);
    let mut frame = vec![0u8; 4];
    frame.push(0x01); // TYPE_HELLO
    frame.extend_from_slice(b"BADMAG");
    frame.push(wire::VERSION);
    frame.push(wire::LITTLE_ENDIAN);
    let body_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    conn.write_all(&frame).expect("write");
    let response = read_to_close(&mut conn);
    let mut decoder = FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
    decoder.feed(&response);
    assert!(
        matches!(
            decoder.next_frame(),
            Ok(Some(wire::Frame::Nack {
                reason: adassure_fleet::NackReason::Malformed,
                ..
            }))
        ),
        "wrong magic draws a Malformed nack"
    );

    // Correct magic, future version.
    let mut conn = connect(&server);
    let mut frame = vec![0u8; 4];
    frame.push(0x01);
    frame.extend_from_slice(wire::MAGIC);
    frame.push(wire::VERSION + 9);
    frame.push(wire::LITTLE_ENDIAN);
    let body_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    conn.write_all(&frame).expect("write");
    let response = read_to_close(&mut conn);
    let mut decoder = FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
    decoder.feed(&response);
    assert!(
        matches!(
            decoder.next_frame(),
            Ok(Some(wire::Frame::Nack {
                reason: adassure_fleet::NackReason::Unsupported,
                ..
            }))
        ),
        "future version draws an Unsupported nack"
    );

    wait_for(&server, "rejections counted", |s| s.malformed >= 1);
    server.shutdown();
}

/// A frame whose sequence number is not the next expected one can only
/// come from a broken client: it draws a `Malformed` nack, the server
/// closes the connection, counts it, and applies nothing.
#[test]
fn out_of_sequence_frame_is_a_protocol_violation() {
    let server = spawn_server();

    let mut bytes = Vec::new();
    wire::encode_hello(&mut bytes);
    wire::encode_open_stream(&mut bytes, 2);
    wire::encode_open_stream(&mut bytes, 1);
    let mut conn = connect(&server);
    conn.write_all(&bytes).expect("write");
    let response = read_to_close(&mut conn);
    assert!(
        matches!(conn.read(&mut [0u8; 1]), Ok(0)),
        "the server closed the connection"
    );

    let mut decoder = FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
    decoder.feed(&response);
    assert!(matches!(
        decoder.next_frame(),
        Ok(Some(wire::Frame::Ack { seq: 0, .. }))
    ));
    assert_eq!(
        decoder.next_frame().expect("valid response"),
        Some(wire::Frame::Nack {
            seq: 2,
            reason: adassure_fleet::NackReason::Malformed,
            retry_after_us: 0,
        })
    );
    assert_eq!(decoder.next_frame().expect("valid response"), None);

    wait_for(&server, "malformed count", |s| s.malformed >= 1);
    let stats = server.shutdown();
    assert_eq!(stats.malformed, 1);
    assert_eq!(stats.opens, 0, "neither open was applied");
}

/// A batch naming a stream its session has not opened is a typed,
/// counted rejection — and the connection keeps working afterwards.
#[test]
fn unknown_shard_is_nacked_and_counted() {
    let server = spawn_server();
    let mut producer = adassure_fleet::ingest::connect_tcp(
        server.local_addr().unwrap(),
        ProducerConfig::default(),
    )
    .expect("connect");

    let forged = StreamId::from_raw(9999, 0, 1);
    let mut batch = SampleBatch::new(forged);
    batch.push(0.1, "x", 0.0);
    let err = producer
        .submit(&batch)
        .and_then(|()| producer.flush())
        .expect_err("forged shard must be rejected");
    assert!(
        matches!(
            err,
            adassure_fleet::ProducerError::Rejected {
                reason: adassure_fleet::NackReason::UnknownStream,
                ..
            }
        ),
        "got {err:?}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.rejected_unknown_stream, 1);
}

/// A producer names a stream by its open's handle, valid in its own
/// session only: a closed handle, and a handle another session opened,
/// are refused as a forged id is, and the connection keeps working.
#[test]
fn a_handle_outside_its_session_or_closed_is_refused() {
    let server = spawn_server();
    let addr = server.local_addr().unwrap();
    let mut owner =
        adassure_fleet::ingest::connect_tcp(addr, ProducerConfig::default()).expect("connect");
    let mut other =
        adassure_fleet::ingest::connect_tcp(addr, ProducerConfig::default()).expect("connect");
    let id = owner.open_stream().expect("open");
    assert_eq!(id, StreamId::from_open_seq(1));
    let rejected = |err: adassure_fleet::ProducerError| match err {
        adassure_fleet::ProducerError::Rejected { reason, .. } => reason,
        other => panic!("expected a nack, got {other:?}"),
    };

    // The other session never opened seq 1.
    let mut batch = SampleBatch::new(id);
    batch.push(0.1, "x", 0.0);
    let err = other
        .submit(&batch)
        .and_then(|()| other.flush())
        .expect_err("a foreign handle");
    assert_eq!(rejected(err), adassure_fleet::NackReason::UnknownStream);
    let err = other.close_stream(id).expect_err("a foreign handle");
    assert_eq!(rejected(err), adassure_fleet::NackReason::UnknownSlot);

    owner.submit(&batch).expect("submit");
    owner.close_stream(id).expect("the owner closes its stream");
    let err = owner
        .submit(&batch)
        .and_then(|()| owner.flush())
        .expect_err("a closed handle");
    assert_eq!(rejected(err), adassure_fleet::NackReason::UnknownStream);
    let err = owner.close_stream(id).expect_err("a closed handle");
    assert_eq!(rejected(err), adassure_fleet::NackReason::UnknownSlot);

    let id = owner.open_stream().expect("the session still serves");
    owner.close_stream(id).expect("close");
    let stats = server.shutdown();
    assert_eq!(stats.rejected_unknown_stream, 2);
    assert_eq!(stats.rejected_stale, 2);
    assert_eq!((stats.opens, stats.closes, stats.batches), (2, 2, 1));
}

/// A batch naming a channel index past its table is malformed: the
/// server nacks it, counts it and closes the connection, and none of its
/// samples reaches a checker, because the parser checks every index
/// before anything is applied.
#[test]
fn out_of_range_channel_index_is_nacked_before_any_sample_applies() {
    let server = spawn_server();

    let mut bytes = Vec::new();
    wire::encode_hello(&mut bytes);
    wire::encode_open_stream(&mut bytes, 1);
    let batch_at = bytes.len();
    let mut batch = SampleBatch::new(StreamId::from_raw(0, 0, 0));
    batch.push(0.1, "x", 5.0);
    batch.push(0.2, "x", 5.0);
    batch.push(0.2, "y", 5.0);
    wire::encode_sample_batch(&mut bytes, 2, &batch).expect("encode batch");
    // Frame layout: length, type, seq, stream (3 x u32), channel count,
    // sample count, table length, table, then the index column. Point the
    // last sample past the two-entry table, so the good ones come first.
    let table_len_at = batch_at + 4 + 1 + 8 + 12 + 4 + 4;
    let table_len = u32::from_le_bytes(bytes[table_len_at..table_len_at + 4].try_into().unwrap());
    let last_index_at = table_len_at + 4 + table_len as usize + 2 * 4;
    bytes[last_index_at..last_index_at + 4].copy_from_slice(&2u32.to_le_bytes());

    let mut conn = connect(&server);
    conn.write_all(&bytes).expect("write");
    let response = read_to_close(&mut conn);
    let mut decoder = FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
    decoder.feed(&response);
    assert!(matches!(
        decoder.next_frame(),
        Ok(Some(wire::Frame::Ack { seq: 0, .. }))
    ));
    assert!(matches!(
        decoder.next_frame(),
        Ok(Some(wire::Frame::Ack { seq: 1, .. }))
    ));
    assert_eq!(
        decoder.next_frame().expect("valid response"),
        Some(wire::Frame::Nack {
            seq: 0,
            reason: adassure_fleet::NackReason::Malformed,
            retry_after_us: 0,
        })
    );
    assert_eq!(decoder.next_frame().expect("valid response"), None);

    wait_for(&server, "malformed count", |s| s.malformed >= 1);
    let fleet = server.fleet().lock().expect("fleet lock").stats();
    assert_eq!(fleet.open_streams, 1);
    assert_eq!(fleet.batches, 0, "the batch never reached its shard");
    assert_eq!(fleet.samples, 0);
    assert_eq!(fleet.cycles, 0);
    let stats = server.shutdown();
    assert_eq!(stats.malformed, 1);
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.samples, 0);
}
