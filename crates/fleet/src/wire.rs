//! The binary ingest wire protocol: versioned, little-endian,
//! length-prefixed frames carrying sample batches from producers to the
//! fleet monitor.
//!
//! The format follows the workspace's binary container conventions
//! (DESIGN.md, "Binary container conventions"): the `Hello` payload is
//! the shared `magic | version | endian` header, all integers and floats
//! are little-endian, and frame bodies are parsed with the one
//! bounds-checked reader, [`adassure_trace::binary::Cur`], so the decoder
//! returns typed [`WireError`]s instead of panicking on corrupt,
//! truncated or oversized input (see DESIGN.md §12 for the normative
//! spec).
//!
//! # Frame grammar
//!
//! ```text
//! frame := u32 body_len, body          body_len = 1 + payload length
//! body  := u8 frame_type, payload      body_len <= max_frame_len
//! ```
//!
//! Client → server frames (every one after [`Frame::Hello`] carries a
//! `u64` sequence number; the server requires the next expected sequence
//! — any other is a protocol violation that closes the connection — and
//! answers each with one [`Frame::Ack`] or [`Frame::Nack`]):
//!
//! | type | frame | payload |
//! |------|-------|---------|
//! | 0x01 | `Hello` | magic `b"ADWIRE"`, version `u8`, endianness `u8` (1 = LE), optional session token `u64` (absent or 0 = request a new session) |
//! | 0x02 | `OpenStream` | seq `u64`, flags `u32` (must be 0) |
//! | 0x03 | `SampleBatch` | seq `u64`, stream handle (`u32`×3), channel count `u32`, sample count `u32`, name-table length `u32`, name table (names joined `\n`), channel indices `u32`×n, times `f64`×n, values `f64`×n |
//! | 0x04 | `CloseStream` | seq `u64`, stream handle (`u32`×3) |
//! | 0x07 | `GetMetrics` | seq `u64` |
//! | 0x08 | `Resume` | session `u64`, last-acked seq `u64` (handshake-scoped; answered at seq 0) |
//!
//! A stream handle is [`StreamId::from_open_seq`] of the seq of the
//! `OpenStream` frame that opened the stream, so a producer knows it
//! without waiting for the open's ack; the server maps it to the fleet's
//! own id per session.
//!
//! Server → client:
//!
//! | type | frame | payload |
//! |------|-------|---------|
//! | 0x05 | `Ack` | seq `u64`, kind `u8`, kind-specific body |
//! | 0x06 | `Nack` | seq `u64`, reason `u8`, retry-after `u32` (µs) |
//!
//! The optional Hello session token and the `Resume` frame are the
//! crash-recovery extension (DESIGN.md §13): a producer that reconnects
//! presents its previous session token in `Hello`, then sends `Resume`
//! carrying the highest sequence it has a response for; the server
//! answers with [`AckBody::Resumed`] (its next expected sequence),
//! replays the stored responses in between, and the producer re-sends
//! its retained frames from the server's high-water mark on instead of
//! dying.
//! A bare `Hello` without the trailing token is exactly the pre-resume
//! v1 encoding, so old producers keep working unchanged.
//!
//! Sample batches are columnar inside the frame (index run, then time
//! run, then value run). The decoder validates a batch's structure once
//! and hands it out in place as a [`BatchFrame`]
//! ([`FrameDecoder::next_frame_ref`]); the server applies it from there,
//! and [`FrameDecoder::next_frame`] makes it an owned [`SampleBatch`].
//! Times and values are *not* semantically validated here: the shard
//! applies the same monotonicity and finiteness rules to wire batches as
//! to in-process ones, so the two paths stay bit-identical.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use adassure_trace::binary::{put_count, put_header, Cur, DecodeError};
use adassure_trace::SignalId;

use crate::shard::Columns;
use crate::stream::{IndexedBatch, Sample, SampleBatch, StreamId};

/// Magic bytes opening every [`Frame::Hello`].
pub const MAGIC: &[u8; 6] = b"ADWIRE";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Endianness marker: 1 = little-endian (the only defined value).
pub use adassure_trace::binary::LITTLE_ENDIAN;
/// Default cap on a frame body. A declared length above the decoder's
/// cap is rejected before any buffering, so a corrupt length prefix
/// cannot make the server allocate gigabytes.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

const TYPE_HELLO: u8 = 0x01;
const TYPE_OPEN_STREAM: u8 = 0x02;
const TYPE_SAMPLE_BATCH: u8 = 0x03;
const TYPE_CLOSE_STREAM: u8 = 0x04;
const TYPE_ACK: u8 = 0x05;
const TYPE_NACK: u8 = 0x06;
const TYPE_GET_METRICS: u8 = 0x07;
const TYPE_RESUME: u8 = 0x08;

const ACK_HELLO: u8 = 0;
const ACK_STREAM_OPENED: u8 = 1;
const ACK_BATCH_APPLIED: u8 = 2;
const ACK_STREAM_CLOSED: u8 = 3;
const ACK_METRICS: u8 = 4;
const ACK_RESUMED: u8 = 5;

/// Typed decode/encode failures. Never a panic: every malformed input
/// maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A frame declared a body longer than the decoder's cap.
    FrameTooLong {
        /// Declared body length.
        len: usize,
        /// The decoder's cap.
        max: usize,
    },
    /// Structurally invalid frame content (bad type, short payload,
    /// section-length mismatch, invalid name table, …).
    Malformed {
        /// Human-readable description of the violation.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLong { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed { message } => write!(f, "malformed frame: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Malformed {
            message: e.to_string(),
        }
    }
}

/// Why the server refused a frame. Stream reasons mirror
/// [`crate::StreamError`]. Load is never a reason: a connection thread
/// applies each batch before it reads the next frame, so a busy server
/// just reads its socket later (see [`crate::ingest`]). Reason bytes 0
/// and 4 are unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// A batch names no stream its session has open: a handle the
    /// session never opened or has closed, or any other id. The frame is
    /// dropped and counted; the sequence advances.
    UnknownStream,
    /// The fleet had already closed the stream behind the handle
    /// ([`crate::StreamError::StaleGeneration`]).
    StaleGeneration,
    /// A close names no stream its session has open, as
    /// [`NackReason::UnknownStream`] for a batch.
    UnknownSlot,
    /// The frame (or the byte stream) is structurally invalid, or its
    /// sequence number is not the next expected one. The server closes
    /// the connection after sending this.
    Malformed,
    /// Valid frame, unsupported content (unknown protocol version,
    /// non-zero reserved flags). The connection closes.
    Unsupported,
    /// The fleet is shutting down; the connection closes. This server
    /// never sends it: each batch is applied on its connection thread,
    /// so no queue can vanish under a connection. The byte stays
    /// assigned.
    ShuttingDown,
    /// The Hello presented a session token the server does not know (it
    /// restarted without a checkpoint covering it, evicted the session,
    /// or another connection holds it). The connection closes; state
    /// continuity cannot be guaranteed.
    UnknownSession,
    /// A [`Frame::Resume`] asked for responses the server's bounded ack
    /// ring has already evicted. The connection closes.
    ResumeGap,
    /// The server is at its configured connection cap
    /// ([`crate::IngestConfig::max_connections`]) or every retained
    /// session is live ([`crate::IngestConfig::max_sessions`]); reconnect
    /// after the retry-after hint.
    ConnectionLimit,
}

impl NackReason {
    fn to_byte(self) -> u8 {
        match self {
            NackReason::UnknownStream => 1,
            NackReason::StaleGeneration => 2,
            NackReason::UnknownSlot => 3,
            NackReason::Malformed => 5,
            NackReason::Unsupported => 6,
            NackReason::ShuttingDown => 7,
            NackReason::UnknownSession => 8,
            NackReason::ResumeGap => 9,
            NackReason::ConnectionLimit => 10,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            1 => NackReason::UnknownStream,
            2 => NackReason::StaleGeneration,
            3 => NackReason::UnknownSlot,
            5 => NackReason::Malformed,
            6 => NackReason::Unsupported,
            7 => NackReason::ShuttingDown,
            8 => NackReason::UnknownSession,
            9 => NackReason::ResumeGap,
            10 => NackReason::ConnectionLimit,
            other => {
                return Err(WireError::Malformed {
                    message: format!("unknown nack reason {other}"),
                })
            }
        })
    }
}

impl std::fmt::Display for NackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NackReason::UnknownStream => "unknown-stream",
            NackReason::StaleGeneration => "stale-generation",
            NackReason::UnknownSlot => "unknown-slot",
            NackReason::Malformed => "malformed",
            NackReason::Unsupported => "unsupported",
            NackReason::ShuttingDown => "shutting-down",
            NackReason::UnknownSession => "unknown-session",
            NackReason::ResumeGap => "resume-gap",
            NackReason::ConnectionLimit => "connection-limit",
        };
        f.write_str(name)
    }
}

/// The body of a positive server response.
#[derive(Debug, Clone, PartialEq)]
pub enum AckBody {
    /// Handshake accepted; the server speaks `version` and assigned (or
    /// re-attached) the given session.
    Hello {
        /// Server protocol version.
        version: u8,
        /// Session token: present the same token in a later Hello to
        /// resume after a disconnect.
        session: u64,
    },
    /// A stream was opened for this session.
    StreamOpened {
        /// The stream's handle, [`StreamId::from_open_seq`] of the open's
        /// sequence number: what the session's batches and close name.
        stream: StreamId,
    },
    /// The batch was applied to its stream: the server applies each batch
    /// before it acks it.
    BatchApplied {
        /// Highest sequence of this session covered by a persisted
        /// checkpoint; frames at or below it can never be asked for again
        /// and may be dropped from replay buffers.
        durable_seq: u64,
    },
    /// The stream was closed.
    StreamClosed {
        /// The final [`adassure_core::CheckReport`], JSON-encoded.
        report_json: Vec<u8>,
    },
    /// Fleet-wide metrics, as the deterministic
    /// [`adassure_obs::ObsSummary`] JSON.
    Metrics {
        /// The summary JSON bytes.
        summary_json: Vec<u8>,
    },
    /// A [`Frame::Resume`] was accepted: the server's next expected
    /// sequence follows, and the stored responses between the producer's
    /// last-acked sequence and the high-water mark are replayed right
    /// after this ack.
    Resumed {
        /// The server will apply this sequence next; re-send everything
        /// from here on.
        next_seq: u64,
    },
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake; must be the first frame a producer sends.
    Hello {
        /// Producer protocol version.
        version: u8,
        /// Session token to re-attach to, `0` to request a new session.
        /// Encoded as an optional trailing field: a bare v1 Hello decodes
        /// as `session == 0`.
        session: u64,
    },
    /// Request a new stream with default per-stream options.
    OpenStream {
        /// Sequence number.
        seq: u64,
        /// Reserved; must be zero.
        flags: u32,
    },
    /// A batch of samples for one open stream.
    SampleBatch {
        /// Sequence number.
        seq: u64,
        /// The decoded batch, addressed to the session's stream handle.
        batch: SampleBatch,
    },
    /// Close a stream and return its report.
    CloseStream {
        /// Sequence number.
        seq: u64,
        /// The stream to close.
        stream: StreamId,
    },
    /// Request the fleet-wide deterministic metrics summary.
    GetMetrics {
        /// Sequence number.
        seq: u64,
    },
    /// Rewind request after a reconnect. Only valid directly after a
    /// [`Frame::Hello`] that presented the same session token, before any
    /// windowed frame; answered at sequence 0.
    Resume {
        /// The session being resumed.
        session: u64,
        /// Highest sequence the producer already holds a response for;
        /// the server replays stored responses above it.
        last_acked: u64,
    },
    /// Positive response to the frame with the same sequence number.
    Ack {
        /// Sequence number being answered (0 for the handshake).
        seq: u64,
        /// Response body.
        body: AckBody,
    },
    /// Negative response; see [`NackReason`] for retry semantics.
    Nack {
        /// Sequence number being refused.
        seq: u64,
        /// Typed reason.
        reason: NackReason,
        /// Suggested retry delay in microseconds (meaningful for
        /// [`NackReason::ConnectionLimit`], zero otherwise).
        retry_after_us: u32,
    },
}

/// A decoded sample batch, borrowed from the decoder's buffer: the
/// frame's channel names, and its index, time and value columns still in
/// their little-endian wire bytes.
///
/// The body parser validates it whole before handing it out: the name
/// table, every count against the bytes present, the frame's exact end,
/// and every channel index against the table. A batch that reaches the
/// fleet therefore cannot fail halfway through its samples.
#[derive(Debug, PartialEq)]
pub struct BatchFrame<'a> {
    /// Sequence number.
    pub seq: u64,
    /// Target stream.
    pub stream: StreamId,
    channels: Vec<&'a str>,
    indices: &'a [[u8; 4]],
    times: &'a [[u8; 8]],
    values: &'a [[u8; 8]],
}

impl BatchFrame<'_> {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The batch as an owned [`SampleBatch`], one [`SignalId`] per sample.
    pub fn to_batch(&self) -> SampleBatch {
        let channels: Vec<SignalId> = self.channels.iter().map(SignalId::new).collect();
        let samples = (0..self.len())
            .map(|i| Sample {
                t: self.time(i),
                channel: channels[self.channel(i)].clone(),
                value: self.value(i),
            })
            .collect();
        SampleBatch {
            stream: self.stream,
            samples,
        }
    }
}

impl Columns for BatchFrame<'_> {
    fn stream(&self) -> StreamId {
        self.stream
    }

    fn channels(&self) -> impl Iterator<Item = &str> {
        self.channels.iter().copied()
    }

    fn len(&self) -> usize {
        self.indices.len()
    }

    fn channel(&self, i: usize) -> usize {
        u32::from_le_bytes(self.indices[i]) as usize
    }

    fn time(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.times[i])
    }

    fn value(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.values[i])
    }
}

/// One decoded frame as [`FrameDecoder::next_frame_ref`] returns it: a
/// sample batch stays borrowed in its wire columns, every other frame is
/// small and decoded owned.
#[derive(Debug, PartialEq)]
pub enum FrameRef<'a> {
    /// A sample batch, validated and borrowed.
    SampleBatch(BatchFrame<'a>),
    /// Any other frame; never [`Frame::SampleBatch`].
    Other(Frame),
}

impl FrameRef<'_> {
    /// The owned frame, as [`FrameDecoder::next_frame`] returns it.
    pub fn into_frame(self) -> Frame {
        match self {
            FrameRef::SampleBatch(batch) => Frame::SampleBatch {
                seq: batch.seq,
                batch: batch.to_batch(),
            },
            FrameRef::Other(frame) => frame,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Reserves the length prefix, runs `fill`, then patches the prefix.
fn with_frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    fill(out);
    let body_len = out.len() - at - 4;
    #[allow(clippy::cast_possible_truncation)] // bodies are bounded by the frame cap
    out[at..at + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
}

pub(crate) fn put_stream(out: &mut Vec<u8>, stream: StreamId) {
    let (shard, slot, gen) = stream.into_raw();
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&slot.to_le_bytes());
    out.extend_from_slice(&gen.to_le_bytes());
}

/// Appends an encoded [`Frame::Hello`] requesting a new session (the
/// bare pre-resume v1 form, without the trailing session token).
pub fn encode_hello(out: &mut Vec<u8>) {
    with_frame(out, |out| {
        out.push(TYPE_HELLO);
        put_header(out, MAGIC, VERSION);
    });
}

/// Appends an encoded [`Frame::Hello`] carrying an explicit session
/// token (`0` requests a new session; a previous token re-attaches).
pub fn encode_hello_session(out: &mut Vec<u8>, session: u64) {
    with_frame(out, |out| {
        out.push(TYPE_HELLO);
        put_header(out, MAGIC, VERSION);
        out.extend_from_slice(&session.to_le_bytes());
    });
}

/// Appends an encoded [`Frame::Resume`] to `out`.
pub fn encode_resume(out: &mut Vec<u8>, session: u64, last_acked: u64) {
    with_frame(out, |out| {
        out.push(TYPE_RESUME);
        out.extend_from_slice(&session.to_le_bytes());
        out.extend_from_slice(&last_acked.to_le_bytes());
    });
}

/// Appends an encoded [`Frame::OpenStream`] to `out`.
pub fn encode_open_stream(out: &mut Vec<u8>, seq: u64) {
    with_frame(out, |out| {
        out.push(TYPE_OPEN_STREAM);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
    });
}

/// Appends an encoded [`Frame::SampleBatch`] to `out`. The per-frame
/// channel table is built from the batch's channels in first-appearance
/// order, in one pass over the samples; the frame is then sized once and
/// its index, time and value columns filled in a second pass.
///
/// # Errors
///
/// [`WireError::Malformed`] when a channel name is empty or contains the
/// `\n` table separator (such names cannot round-trip).
pub fn encode_sample_batch(
    out: &mut Vec<u8>,
    seq: u64,
    batch: &SampleBatch,
) -> Result<(), WireError> {
    let IndexedBatch {
        channels, indices, ..
    } = IndexedBatch::new(batch);
    if let Some(name) = channels
        .iter()
        .map(|c| c.as_str())
        .find(|name| name.is_empty() || name.contains('\n'))
    {
        return Err(WireError::Malformed {
            message: format!("channel name {name:?} cannot be encoded"),
        });
    }
    let n = batch.samples.len();
    let table_len =
        channels.iter().map(|c| c.as_str().len()).sum::<usize>() + channels.len().saturating_sub(1);
    // type, seq, stream, channel count, sample count, table length.
    let head = 1 + 8 + 12 + 4 + 4 + 4;
    out.reserve(4 + head + table_len + 20 * n);
    with_frame(out, |out| {
        out.push(TYPE_SAMPLE_BATCH);
        out.extend_from_slice(&seq.to_le_bytes());
        put_stream(out, batch.stream);
        put_count(out, channels.len());
        put_count(out, n);
        put_count(out, table_len);
        for (i, channel) in channels.iter().enumerate() {
            if i > 0 {
                out.push(b'\n');
            }
            out.extend_from_slice(channel.as_str().as_bytes());
        }
        let at = out.len();
        out.resize(at + 20 * n, 0);
        let (index_col, rest) = out[at..].split_at_mut(4 * n);
        let (time_col, value_col) = rest.split_at_mut(8 * n);
        let columns = index_col
            .chunks_exact_mut(4)
            .zip(time_col.chunks_exact_mut(8))
            .zip(value_col.chunks_exact_mut(8));
        for (((index, time), value), (sample, &idx)) in
            columns.zip(batch.samples.iter().zip(&indices))
        {
            index.copy_from_slice(&idx.to_le_bytes());
            time.copy_from_slice(&sample.t.to_le_bytes());
            value.copy_from_slice(&sample.value.to_le_bytes());
        }
    });
    Ok(())
}

/// Appends an encoded [`Frame::CloseStream`] to `out`.
pub fn encode_close_stream(out: &mut Vec<u8>, seq: u64, stream: StreamId) {
    with_frame(out, |out| {
        out.push(TYPE_CLOSE_STREAM);
        out.extend_from_slice(&seq.to_le_bytes());
        put_stream(out, stream);
    });
}

/// Appends an encoded [`Frame::GetMetrics`] to `out`.
pub fn encode_get_metrics(out: &mut Vec<u8>, seq: u64) {
    with_frame(out, |out| {
        out.push(TYPE_GET_METRICS);
        out.extend_from_slice(&seq.to_le_bytes());
    });
}

/// Appends an encoded [`Frame::Ack`] to `out`.
pub fn encode_ack(out: &mut Vec<u8>, seq: u64, body: &AckBody) {
    with_frame(out, |out| {
        out.push(TYPE_ACK);
        out.extend_from_slice(&seq.to_le_bytes());
        match body {
            AckBody::Hello { version, session } => {
                out.push(ACK_HELLO);
                out.push(*version);
                out.extend_from_slice(&session.to_le_bytes());
            }
            AckBody::StreamOpened { stream } => {
                out.push(ACK_STREAM_OPENED);
                put_stream(out, *stream);
            }
            AckBody::BatchApplied { durable_seq } => {
                out.push(ACK_BATCH_APPLIED);
                out.extend_from_slice(&durable_seq.to_le_bytes());
            }
            AckBody::StreamClosed { report_json } => {
                out.push(ACK_STREAM_CLOSED);
                put_count(out, report_json.len());
                out.extend_from_slice(report_json);
            }
            AckBody::Metrics { summary_json } => {
                out.push(ACK_METRICS);
                put_count(out, summary_json.len());
                out.extend_from_slice(summary_json);
            }
            AckBody::Resumed { next_seq } => {
                out.push(ACK_RESUMED);
                out.extend_from_slice(&next_seq.to_le_bytes());
            }
        }
    });
}

/// Appends an encoded [`Frame::Nack`] to `out`.
pub fn encode_nack(out: &mut Vec<u8>, seq: u64, reason: NackReason, retry_after_us: u32) {
    with_frame(out, |out| {
        out.push(TYPE_NACK);
        out.extend_from_slice(&seq.to_le_bytes());
        out.push(reason.to_byte());
        out.extend_from_slice(&retry_after_us.to_le_bytes());
    });
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

pub(crate) fn read_stream(c: &mut Cur<'_>) -> Result<StreamId, DecodeError> {
    let shard = c.u32("stream shard")?;
    let slot = c.u32("stream slot")?;
    let gen = c.u32("stream generation")?;
    Ok(StreamId::from_raw(shard, slot, gen))
}

/// Parses one complete frame body (type byte + payload).
fn parse_body(body: &[u8]) -> Result<FrameRef<'_>, WireError> {
    let mut c = Cur::new(body);
    let frame_type = c.u8("frame type")?;
    let frame = match frame_type {
        TYPE_HELLO => {
            // Any version decodes: judging it is the server's job (it
            // nacks `Unsupported`).
            let version = c.header(MAGIC)?;
            // The session token is an optional trailing field: bare v1
            // hellos decode as "request a new session".
            let session = if c.remaining() == 0 {
                0
            } else {
                c.u64("hello session")?
            };
            c.expect_end("hello")?;
            Frame::Hello { version, session }
        }
        TYPE_OPEN_STREAM => {
            let seq = c.u64("open seq")?;
            let flags = c.u32("open flags")?;
            c.expect_end("open-stream")?;
            Frame::OpenStream { seq, flags }
        }
        TYPE_SAMPLE_BATCH => {
            let seq = c.u64("batch seq")?;
            let stream = read_stream(&mut c)?;
            let channel_count = c.u32("channel count")? as usize;
            let sample_count = c.u32("sample count")? as usize;
            let table_len = c.u32("name table length")? as usize;
            let channels = c.names(table_len, channel_count, "name table")?;
            let indices = c.chunks::<4>(sample_count, "channel indices")?;
            let times = c.chunks::<8>(sample_count, "sample times")?;
            let values = c.chunks::<8>(sample_count, "sample values")?;
            c.expect_end("sample batch")?;
            if let Some(idx) = indices
                .iter()
                .map(|&b| u32::from_le_bytes(b))
                .find(|&idx| idx as usize >= channel_count)
            {
                return Err(WireError::Malformed {
                    message: format!("channel index {idx} out of range ({channel_count})"),
                });
            }
            return Ok(FrameRef::SampleBatch(BatchFrame {
                seq,
                stream,
                channels,
                indices,
                times,
                values,
            }));
        }
        TYPE_CLOSE_STREAM => {
            let seq = c.u64("close seq")?;
            let stream = read_stream(&mut c)?;
            c.expect_end("close-stream")?;
            Frame::CloseStream { seq, stream }
        }
        TYPE_GET_METRICS => {
            let seq = c.u64("metrics seq")?;
            c.expect_end("get-metrics")?;
            Frame::GetMetrics { seq }
        }
        TYPE_RESUME => {
            let session = c.u64("resume session")?;
            let last_acked = c.u64("resume last-acked")?;
            c.expect_end("resume")?;
            Frame::Resume {
                session,
                last_acked,
            }
        }
        TYPE_ACK => {
            let seq = c.u64("ack seq")?;
            let kind = c.u8("ack kind")?;
            let body = match kind {
                ACK_HELLO => AckBody::Hello {
                    version: c.u8("server version")?,
                    session: c.u64("server session")?,
                },
                ACK_STREAM_OPENED => AckBody::StreamOpened {
                    stream: read_stream(&mut c)?,
                },
                ACK_BATCH_APPLIED => AckBody::BatchApplied {
                    durable_seq: c.u64("durable seq")?,
                },
                ACK_STREAM_CLOSED => {
                    let len = c.u32("report length")? as usize;
                    AckBody::StreamClosed {
                        report_json: c.take(len, "report JSON")?.to_vec(),
                    }
                }
                ACK_METRICS => {
                    let len = c.u32("summary length")? as usize;
                    AckBody::Metrics {
                        summary_json: c.take(len, "summary JSON")?.to_vec(),
                    }
                }
                ACK_RESUMED => AckBody::Resumed {
                    next_seq: c.u64("resume next seq")?,
                },
                other => return Err(c.bad(format!("unknown ack kind {other}")).into()),
            };
            c.expect_end("ack")?;
            Frame::Ack { seq, body }
        }
        TYPE_NACK => {
            let seq = c.u64("nack seq")?;
            let reason = NackReason::from_byte(c.u8("nack reason")?)?;
            let retry_after_us = c.u32("nack retry-after")?;
            c.expect_end("nack")?;
            Frame::Nack {
                seq,
                reason,
                retry_after_us,
            }
        }
        other => return Err(c.bad(format!("unknown frame type {other:#04x}")).into()),
    };
    Ok(FrameRef::Other(frame))
}

/// A streaming frame decoder over an arbitrary byte-chunk sequence.
///
/// Feed it whatever the socket yields ([`FrameDecoder::feed`]) and pull
/// complete frames with [`FrameDecoder::next_frame`], or borrowed from
/// the decoder's buffer with [`FrameDecoder::next_frame_ref`]; partial
/// frames stay buffered until their remaining bytes arrive. Errors are
/// sticky: a malformed or oversized frame poisons the connection
/// (framing can no longer be trusted), so every later call returns the
/// same error.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    max_frame_len: usize,
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame_len` as the body-length cap.
    pub fn new(max_frame_len: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame_len,
            poisoned: None,
        }
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: drop the consumed prefix once it
        // dominates the buffer so memory stays bounded by one frame.
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a complete frame.
    /// Non-zero at end-of-stream means the peer disconnected mid-frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame, `Ok(None)` if more bytes are
    /// needed: [`FrameDecoder::next_frame_ref`] with the frame made
    /// owned.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame_ref`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_frame_ref()?.map(FrameRef::into_frame))
    }

    /// Decodes the next complete frame without copying a sample batch
    /// out of the buffer, `Ok(None)` if more bytes are needed. The frame
    /// borrows the decoder until the next call.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLong`] for a declared body beyond the cap,
    /// [`WireError::Malformed`] for structural violations. Errors are
    /// sticky — the stream cannot be re-synchronised after one.
    pub fn next_frame_ref(&mut self) -> Result<Option<FrameRef<'_>>, WireError> {
        let FrameDecoder {
            buf,
            start,
            max_frame_len,
            poisoned,
        } = self;
        if let Some(err) = poisoned {
            return Err(err.clone());
        }
        let avail = &buf[*start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if body_len == 0 {
            return Err(poison(
                poisoned,
                WireError::Malformed {
                    message: "empty frame body".into(),
                },
            ));
        }
        if body_len > *max_frame_len {
            return Err(poison(
                poisoned,
                WireError::FrameTooLong {
                    len: body_len,
                    max: *max_frame_len,
                },
            ));
        }
        if avail.len() < 4 + body_len {
            return Ok(None);
        }
        match parse_body(&avail[4..4 + body_len]) {
            Ok(frame) => {
                *start += 4 + body_len;
                Ok(Some(frame))
            }
            Err(err) => Err(poison(poisoned, err)),
        }
    }
}

/// Makes `err` the decoder's sticky error and returns it.
fn poison(poisoned: &mut Option<WireError>, err: WireError) -> WireError {
    *poisoned = Some(err.clone());
    err
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn stream_id() -> StreamId {
        StreamId::from_raw(3, 17, 2)
    }

    fn sample_batch() -> SampleBatch {
        let mut batch = SampleBatch::new(stream_id());
        batch.push(0.05, "xtrack", 0.4);
        batch.push(0.05, "speed", 5.0);
        batch.push(0.10, "xtrack", f64::NAN);
        batch.push(0.10, "gnss_x", -12.5);
        batch
    }

    fn decode_all(bytes: &[u8]) -> Vec<Frame> {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.feed(bytes);
        let mut frames = Vec::new();
        while let Some(frame) = dec.next_frame().expect("valid frames") {
            frames.push(frame);
        }
        assert_eq!(dec.pending(), 0);
        frames
    }

    #[test]
    fn every_frame_round_trips() {
        let mut out = Vec::new();
        encode_hello(&mut out);
        encode_open_stream(&mut out, 1);
        encode_sample_batch(&mut out, 2, &sample_batch()).unwrap();
        encode_close_stream(&mut out, 3, stream_id());
        encode_get_metrics(&mut out, 4);
        encode_ack(
            &mut out,
            0,
            &AckBody::Hello {
                version: VERSION,
                session: 7,
            },
        );
        encode_ack(
            &mut out,
            1,
            &AckBody::StreamOpened {
                stream: stream_id(),
            },
        );
        encode_ack(&mut out, 2, &AckBody::BatchApplied { durable_seq: 1 });
        encode_ack(
            &mut out,
            3,
            &AckBody::StreamClosed {
                report_json: b"{\"violations\":[]}".to_vec(),
            },
        );
        encode_ack(
            &mut out,
            4,
            &AckBody::Metrics {
                summary_json: b"{}".to_vec(),
            },
        );
        encode_nack(&mut out, 9, NackReason::ConnectionLimit, 150);

        let frames = decode_all(&out);
        assert_eq!(frames.len(), 11);
        assert_eq!(
            frames[0],
            Frame::Hello {
                version: VERSION,
                session: 0
            }
        );
        assert_eq!(frames[1], Frame::OpenStream { seq: 1, flags: 0 });
        match &frames[2] {
            Frame::SampleBatch { seq: 2, batch } => {
                let expected = sample_batch();
                assert_eq!(batch.stream, expected.stream);
                assert_eq!(batch.samples.len(), expected.samples.len());
                for (a, b) in batch.samples.iter().zip(&expected.samples) {
                    assert_eq!(a.t.to_bits(), b.t.to_bits());
                    assert_eq!(a.channel, b.channel);
                    assert_eq!(a.value.to_bits(), b.value.to_bits());
                }
            }
            other => panic!("expected sample batch, got {other:?}"),
        }
        assert_eq!(
            frames[3],
            Frame::CloseStream {
                seq: 3,
                stream: stream_id()
            }
        );
        assert_eq!(frames[4], Frame::GetMetrics { seq: 4 });
        assert_eq!(
            frames[10],
            Frame::Nack {
                seq: 9,
                reason: NackReason::ConnectionLimit,
                retry_after_us: 150
            }
        );
    }

    #[test]
    fn session_and_resume_frames_round_trip() {
        let mut out = Vec::new();
        encode_hello_session(&mut out, 0xDEAD_BEEF_0042);
        encode_hello_session(&mut out, 0);
        encode_resume(&mut out, 0xDEAD_BEEF_0042, 17);
        encode_ack(&mut out, 0, &AckBody::Resumed { next_seq: 18 });
        encode_ack(&mut out, 2, &AckBody::BatchApplied { durable_seq: 0 });
        encode_nack(&mut out, 0, NackReason::UnknownSession, 0);
        encode_nack(&mut out, 0, NackReason::ResumeGap, 0);
        encode_nack(&mut out, 0, NackReason::ConnectionLimit, 5_000);

        let frames = decode_all(&out);
        assert_eq!(
            frames[0],
            Frame::Hello {
                version: VERSION,
                session: 0xDEAD_BEEF_0042
            }
        );
        assert_eq!(
            frames[1],
            Frame::Hello {
                version: VERSION,
                session: 0
            }
        );
        assert_eq!(
            frames[2],
            Frame::Resume {
                session: 0xDEAD_BEEF_0042,
                last_acked: 17
            }
        );
        assert_eq!(
            frames[3],
            Frame::Ack {
                seq: 0,
                body: AckBody::Resumed { next_seq: 18 }
            }
        );
        assert_eq!(
            frames[4],
            Frame::Ack {
                seq: 2,
                body: AckBody::BatchApplied { durable_seq: 0 }
            }
        );
        assert_eq!(
            frames[5],
            Frame::Nack {
                seq: 0,
                reason: NackReason::UnknownSession,
                retry_after_us: 0
            }
        );
        assert_eq!(
            frames[6],
            Frame::Nack {
                seq: 0,
                reason: NackReason::ResumeGap,
                retry_after_us: 0
            }
        );
        assert_eq!(
            frames[7],
            Frame::Nack {
                seq: 0,
                reason: NackReason::ConnectionLimit,
                retry_after_us: 5_000
            }
        );
    }

    #[test]
    fn bare_hello_and_session_hello_are_both_accepted() {
        // The bare (pre-resume) Hello encoding must keep decoding as
        // session 0 — old producers stay compatible.
        let mut bare = Vec::new();
        encode_hello(&mut bare);
        let mut with_session = Vec::new();
        encode_hello_session(&mut with_session, 0);
        assert_eq!(bare.len() + 8, with_session.len());
        assert_eq!(
            decode_all(&bare)[0],
            Frame::Hello {
                version: VERSION,
                session: 0
            }
        );
        // A partial trailing token is malformed, not silently truncated.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut bad = Vec::new();
        with_frame(&mut bad, |out| {
            out.push(TYPE_HELLO);
            out.extend_from_slice(MAGIC);
            out.push(VERSION);
            out.push(LITTLE_ENDIAN);
            out.extend_from_slice(&[1, 2, 3]);
        });
        dec.feed(&bad);
        assert!(matches!(dec.next_frame(), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles_frames() {
        let mut out = Vec::new();
        encode_hello(&mut out);
        encode_sample_batch(&mut out, 0, &sample_batch()).unwrap();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut frames = Vec::new();
        for &b in &out {
            dec.feed(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new(1024);
        dec.feed(&(u32::MAX).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooLong {
                len: u32::MAX as usize,
                max: 1024
            })
        );
        // Sticky: the framing is unrecoverable.
        dec.feed(&[0u8; 16]);
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::FrameTooLong { .. })
        ));
    }

    #[test]
    fn channel_index_out_of_range_is_typed() {
        let mut out = Vec::new();
        encode_sample_batch(&mut out, 0, &sample_batch()).unwrap();
        // The index section starts right after the name table; corrupt the
        // first index to an out-of-range value.
        let table_len_at = 4 + 1 + 8 + 12 + 4 + 4;
        let table_len =
            u32::from_le_bytes(out[table_len_at..table_len_at + 4].try_into().unwrap()) as usize;
        let idx_at = table_len_at + 4 + table_len;
        out[idx_at..idx_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.feed(&out);
        assert!(matches!(dec.next_frame(), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn unassigned_nack_reason_bytes_are_malformed() {
        // 0 and 4 lie between assigned bytes; they are refused like the
        // bytes past the last reason.
        for byte in [0u8, 4, 11, 0xFF] {
            let mut out = Vec::new();
            encode_nack(&mut out, 3, NackReason::Malformed, 0);
            out[4 + 1 + 8] = byte;
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
            dec.feed(&out);
            assert!(
                matches!(dec.next_frame(), Err(WireError::Malformed { .. })),
                "reason byte {byte}"
            );
        }
    }

    #[test]
    fn newline_in_channel_name_is_an_encode_error() {
        let mut batch = SampleBatch::new(stream_id());
        batch.push(0.1, "bad\nname", 1.0);
        let mut out = Vec::new();
        assert!(matches!(
            encode_sample_batch(&mut out, 0, &batch),
            Err(WireError::Malformed { .. })
        ));
    }
}
