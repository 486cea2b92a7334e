//! Reconnecting producer: wraps [`IngestProducer`] with transparent
//! session resumption on transport failure.
//!
//! [`ResilientProducer`] owns a *connect factory* instead of a socket.
//! When a send or an ack wait dies mid-operation, it tears the producer
//! down into its [`crate::ingest::RecoveryState`], dials a fresh
//! transport through the factory (capped exponential backoff with
//! deterministic jitter), resumes the session, and finishes the
//! interrupted operation — re-awaiting the replayed response when the
//! frame's sequence number was already consumed, re-issuing the frame
//! when it was not. Callers see exactly-once semantics across
//! connection cuts and server restarts; only a refusal the protocol
//! marks terminal (unknown session, resume gap, exhausted replay
//! retention) or an exhausted retry budget surfaces as an error.

use std::io::{Read, Write};
use std::time::Duration;

use crate::ingest::{IngestProducer, ProducerConfig, ProducerError, ProducerStats};
use crate::stream::{SampleBatch, StreamId};
use crate::wire::{AckBody, NackReason};

/// Object-safe transport bound: anything `Read + Write + Send` — a
/// `TcpStream`, a `UnixStream`, or a fault-injecting wrapper like
/// [`crate::chaos::ChaosTransport`].
pub trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// Backoff policy for reconnection attempts.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Dial attempts per reconnection before giving up.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub base_delay: Duration,
    /// Delay ceiling.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter (each delay is scaled into
    /// `[0.5, 1.0)` of its nominal value).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            seed: 0x5eed,
        }
    }
}

/// Failures surfaced by [`ResilientProducer`].
#[derive(Debug)]
pub enum ResilientError {
    /// The server refused this specific operation (stale stream id,
    /// unknown shard, …). The session itself is fine.
    Rejected {
        /// The refused frame's sequence number.
        seq: u64,
        /// The server's typed reason.
        reason: NackReason,
    },
    /// Every reconnection attempt failed; the session may still be
    /// resumable later by a new producer.
    GaveUp {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last failure seen.
        last: ProducerError,
    },
    /// The session cannot be resumed (unknown/expired session, resume
    /// gap, exhausted replay retention, protocol violation).
    Fatal(ProducerError),
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilientError::Rejected { seq, reason } => {
                write!(f, "frame {seq} rejected: {reason}")
            }
            ResilientError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} reconnect attempts: {last}")
            }
            ResilientError::Fatal(e) => write!(f, "unrecoverable: {e}"),
        }
    }
}

impl std::error::Error for ResilientError {}

type BoxedConnect = Box<dyn FnMut(u32) -> std::io::Result<Box<dyn Transport>> + Send>;

/// A producer that survives its transport: dial failures, connection
/// cuts, and server restarts (from a checkpoint) are absorbed by
/// reconnect-and-resume; the operation in flight completes exactly once.
pub struct ResilientProducer {
    inner: Option<IngestProducer<Box<dyn Transport>>>,
    connect: BoxedConnect,
    config: ProducerConfig,
    policy: ReconnectPolicy,
    rng: u64,
}

impl std::fmt::Debug for ResilientProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientProducer")
            .field("connected", &self.inner.is_some())
            .field("config", &self.config)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// Transient failures trigger a reconnect; anything else surfaces.
fn transient(e: &ProducerError) -> bool {
    matches!(
        e,
        ProducerError::Io(_)
            | ProducerError::Disconnected
            | ProducerError::Wire(_)
            | ProducerError::Rejected {
                reason: NackReason::ConnectionLimit,
                ..
            }
    )
}

/// Failures that end the session for good — retrying cannot help.
fn terminal(e: &ProducerError) -> bool {
    matches!(
        e,
        ProducerError::Protocol(_)
            | ProducerError::ReplayExhausted { .. }
            | ProducerError::Rejected {
                reason: NackReason::UnknownSession | NackReason::ResumeGap,
                ..
            }
    )
}

impl ResilientProducer {
    /// Dials the first connection through `connect` (with the same
    /// backoff as later reconnects) and performs the handshake.
    ///
    /// `connect` receives the attempt index (0-based within each dial
    /// burst) and returns a fresh blocking transport; it is retained and
    /// re-invoked on every reconnection.
    ///
    /// # Errors
    ///
    /// [`ResilientError::GaveUp`] when no attempt produced a working
    /// connection, [`ResilientError::Fatal`] on a protocol-level
    /// refusal.
    pub fn connect(
        mut connect: BoxedConnect,
        config: ProducerConfig,
        policy: ReconnectPolicy,
    ) -> Result<Self, ResilientError> {
        let mut rng = policy.seed | 1;
        let mut last = ProducerError::Disconnected;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff(&policy, &mut rng, attempt - 1));
            }
            let conn = match connect(attempt) {
                Ok(c) => c,
                Err(e) => {
                    last = ProducerError::Io(e);
                    continue;
                }
            };
            match IngestProducer::connect(conn, config) {
                Ok(inner) => {
                    return Ok(ResilientProducer {
                        inner: Some(inner),
                        connect,
                        config,
                        policy,
                        rng,
                    })
                }
                Err(e) if transient(&e) => last = e,
                Err(e) => return Err(ResilientError::Fatal(e)),
            }
        }
        Err(ResilientError::GaveUp {
            attempts: policy.max_attempts.max(1),
            last,
        })
    }

    /// Lifetime counters (carried across reconnects).
    pub fn stats(&self) -> ProducerStats {
        self.inner
            .as_ref()
            .map(IngestProducer::stats)
            .unwrap_or_default()
    }

    /// The session token, stable across reconnects.
    pub fn session(&self) -> u64 {
        self.inner.as_ref().map_or(0, IngestProducer::session)
    }

    /// Opens a stream; survives transport failure mid-operation.
    ///
    /// # Errors
    ///
    /// See [`ResilientError`].
    pub fn open_stream(&mut self) -> Result<StreamId, ResilientError> {
        self.run_op(IngestProducer::open_stream, |body| match body {
            AckBody::StreamOpened { stream } => Ok(stream),
            other => Err(ProducerError::Protocol(format!(
                "expected stream-opened ack, got {other:?}"
            ))),
        })
    }

    /// Closes `stream` and returns its final report as JSON bytes;
    /// survives transport failure mid-operation.
    ///
    /// # Errors
    ///
    /// See [`ResilientError`]; [`ResilientError::Rejected`] for stale or
    /// unknown ids.
    pub fn close_stream(&mut self, stream: StreamId) -> Result<Vec<u8>, ResilientError> {
        self.run_op(
            move |p| p.close_stream(stream),
            |body| match body {
                AckBody::StreamClosed { report_json } => Ok(report_json),
                other => Err(ProducerError::Protocol(format!(
                    "expected stream-closed ack, got {other:?}"
                ))),
            },
        )
    }

    /// Fetches the fleet metrics summary as JSON bytes; survives
    /// transport failure mid-operation.
    ///
    /// # Errors
    ///
    /// See [`ResilientError`].
    pub fn fetch_metrics(&mut self) -> Result<Vec<u8>, ResilientError> {
        self.run_op(IngestProducer::fetch_metrics, |body| match body {
            AckBody::Metrics { summary_json } => Ok(summary_json),
            other => Err(ProducerError::Protocol(format!(
                "expected metrics ack, got {other:?}"
            ))),
        })
    }

    /// Queues `batch`; a cut after the frame was windowed is absorbed by
    /// the resume replay, so the batch is applied exactly once either
    /// way.
    ///
    /// # Errors
    ///
    /// See [`ResilientError`].
    pub fn submit(&mut self, batch: &SampleBatch) -> Result<(), ResilientError> {
        loop {
            let p = self.producer()?;
            let before = p.next_seq();
            let err = match p.submit(batch) {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            let windowed = self.inner.as_ref().is_some_and(|p| p.next_seq() > before);
            self.absorb(err)?;
            if windowed {
                // The resume already replayed (or re-awaits) the frame.
                return Ok(());
            }
        }
    }

    /// Blocks until every in-flight frame is acknowledged, reconnecting
    /// as needed.
    ///
    /// # Errors
    ///
    /// See [`ResilientError`].
    pub fn flush(&mut self) -> Result<(), ResilientError> {
        loop {
            let err = match self.producer()?.flush() {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            self.absorb(err)?;
        }
    }

    /// One request/response operation with mid-operation recovery: when
    /// the failure struck after the frame's sequence was consumed, the
    /// retry re-awaits that sequence's (replayed) response instead of
    /// re-issuing the frame.
    fn run_op<T>(
        &mut self,
        mut issue: impl FnMut(&mut IngestProducer<Box<dyn Transport>>) -> Result<T, ProducerError>,
        claim: impl Fn(AckBody) -> Result<T, ProducerError>,
    ) -> Result<T, ResilientError> {
        let mut pending: Option<u64> = None;
        loop {
            let p = self.producer()?;
            let err = match pending {
                Some(seq) => match p.wait_response(seq).and_then(&claim) {
                    Ok(v) => return Ok(v),
                    Err(e) => e,
                },
                None => {
                    let before = p.next_seq();
                    match issue(p) {
                        Ok(v) => return Ok(v),
                        Err(e) => {
                            if self.inner.as_ref().is_some_and(|p| p.next_seq() > before) {
                                pending = Some(before);
                            }
                            e
                        }
                    }
                }
            };
            self.absorb(err)?;
        }
    }

    fn producer(&mut self) -> Result<&mut IngestProducer<Box<dyn Transport>>, ResilientError> {
        self.inner
            .as_mut()
            .ok_or(ResilientError::Fatal(ProducerError::Disconnected))
    }

    /// Classifies a failure: transient → reconnect and resume (Ok),
    /// operation-level rejection → [`ResilientError::Rejected`],
    /// anything else → [`ResilientError::Fatal`].
    fn absorb(&mut self, err: ProducerError) -> Result<(), ResilientError> {
        match err {
            e if transient(&e) => self.reconnect(e),
            ProducerError::Rejected { seq, reason } => {
                Err(ResilientError::Rejected { seq, reason })
            }
            e => Err(ResilientError::Fatal(e)),
        }
    }

    fn reconnect(&mut self, cause: ProducerError) -> Result<(), ResilientError> {
        let Some(dead) = self.inner.take() else {
            return Err(ResilientError::Fatal(ProducerError::Disconnected));
        };
        let mut recovery = dead.into_recovery();
        let mut last = cause;
        let attempts = self.policy.max_attempts.max(1);
        for attempt in 0..attempts {
            std::thread::sleep(backoff(&self.policy, &mut self.rng, attempt));
            let conn = match (self.connect)(attempt) {
                Ok(c) => c,
                Err(e) => {
                    last = ProducerError::Io(e);
                    continue;
                }
            };
            match IngestProducer::resume(conn, self.config, recovery) {
                Ok(p) => {
                    self.inner = Some(p);
                    return Ok(());
                }
                Err((r, e)) => {
                    recovery = r;
                    if terminal(&e) {
                        return Err(ResilientError::Fatal(*e));
                    }
                    last = *e;
                }
            }
        }
        Err(ResilientError::GaveUp { attempts, last })
    }
}

/// Capped exponential delay with deterministic jitter in `[0.5, 1.0)` of
/// nominal.
fn backoff(policy: &ReconnectPolicy, rng: &mut u64, attempt: u32) -> Duration {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    // Top 31 bits of the LCG state, scaled into [0, 1).
    let frac = (*rng >> 33) as f64 / (1u64 << 31) as f64;
    let nominal = policy.base_delay.as_secs_f64() * 2f64.powi(attempt.min(20) as i32);
    let capped = nominal.min(policy.max_delay.as_secs_f64());
    Duration::from_secs_f64(capped * frac.mul_add(0.5, 0.5))
}
