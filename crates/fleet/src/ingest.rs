//! Network ingestion: the connection-per-producer server loop feeding the
//! sharded fleet, and the reusable client-side producer.
//!
//! The server accepts TCP or Unix-domain connections and runs the
//! [`crate::wire`] protocol on each (one thread per producer — plain
//! `std::net`, no async runtime). A connection thread applies each
//! decoded batch itself, through a [`crate::FleetHandle`] that takes only
//! the batch's shard lock, and acknowledges it once it is applied.
//! Nothing is silently dropped: every refused frame is a typed
//! [`NackReason`] and is counted in [`IngestStats`].
//!
//! # Ordering and flow control
//!
//! Per-stream batch order is what the checker's determinism rests on, so
//! the connection enforces a sequence discipline: every post-handshake
//! frame carries a `u64` sequence number, and the server applies frames
//! strictly in that order. A frame out of sequence can only come from a
//! broken client: it is answered [`NackReason::Malformed`] and the
//! connection closes. Nothing is refused for load. A connection thread
//! that is busy checking does not read its socket, so the frames behind
//! the current one wait there: TCP's own window is the flow control and
//! nothing is ever re-sent. The result is exactly-once, in-order
//! application of every batch, which is what makes wire-path output
//! bit-identical to in-process submission (pinned by
//! `tests/ingest_differential.rs`).
//!
//! A producer names a stream by the seq of the `OpenStream` frame that
//! opened it ([`StreamId::from_open_seq`]), and its session maps that
//! handle to the fleet's id. So an open is windowed like a batch: the
//! producer knows the handle before the ack arrives, and a trip from
//! open to report waits on the close's round trip alone.
//!
//! # Sessions and crash recovery
//!
//! The sequence discipline lives in a *session*, not the connection. A
//! fresh `Hello` allocates a session token; the server keeps the
//! session's expected sequence, a bounded ring of its recent encoded
//! responses and its handle map after the connection drops. A producer that reconnects with
//! `Hello{session}` + `Resume{last_acked}` learns the server's next
//! expected sequence, receives replayed responses for frames it sent but
//! never saw answered, and re-sends its retained frames from there —
//! exactly-once application survives the cut. Periodic [`Checkpointer`]
//! snapshots (see [`crate::checkpoint`]) extend the same guarantee across
//! a server crash: a restored server nacks nothing, it simply answers
//! `Resume` with the checkpointed sequence and producers replay the gap
//! from their retained frames; a replayed open maps its handle again.
//! `BatchApplied` acks carry the session's durable (checkpoint-covered)
//! sequence so producers can trim that retention.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adassure_obs::Histogram;

use crate::checkpoint::{self, CheckpointError, SessionSeed, SessionSeedEntry};
use crate::fleet::{Fleet, FleetHandle};
use crate::shard::StreamError;
use crate::stream::{SampleBatch, StreamId};
use crate::wire::{
    encode_ack, encode_close_stream, encode_get_metrics, encode_hello, encode_hello_session,
    encode_nack, encode_open_stream, encode_resume, encode_sample_batch, AckBody, Frame,
    FrameDecoder, FrameRef, NackReason, WireError, DEFAULT_MAX_FRAME_LEN, VERSION,
};

/// Sample the per-frame decode latency every `DECODE_TIMING_MASK + 1`
/// frames — the same stride philosophy as the shard's cycle timing.
const DECODE_TIMING_MASK: u64 = 7;

/// Retry hint (µs) carried by [`NackReason::ConnectionLimit`] nacks.
const RETRY_AFTER_US: u32 = 100;

/// How long a connection thread blocks in `read` before it checks the
/// stop flag again.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(20);

/// Ingest server tuning.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Cap on a frame body; a declared length beyond it closes the
    /// connection with a typed error before any buffering.
    pub max_frame_len: usize,
    /// Cap on concurrently served connections; an accept beyond it is
    /// answered with a [`NackReason::ConnectionLimit`] nack (carrying a
    /// 100 µs retry hint) and closed, counted in
    /// [`IngestStats::rejected_connections`]. 0 = unlimited.
    pub max_connections: usize,
    /// Per-session ring of recent encoded responses retained for resume
    /// replay. A reconnecting producer whose `last_acked` has fallen out
    /// of the ring is refused with [`NackReason::ResumeGap`].
    pub session_ack_ring: usize,
    /// Cap on retained sessions; at the cap a new `Hello` evicts the
    /// oldest detached session, or is refused like an over-cap
    /// connection ([`NackReason::ConnectionLimit`]) when every session is
    /// live. 0 = unlimited.
    pub max_sessions: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_connections: 0,
            session_ack_ring: 256,
            max_sessions: 4096,
        }
    }
}

/// The transport the server listens on.
#[derive(Debug)]
pub enum IngestListener {
    /// Loopback/LAN TCP.
    Tcp(TcpListener),
    /// Unix-domain socket (same protocol, no TCP stack).
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Live ingestion counters, shared across connection threads.
#[derive(Debug)]
pub struct IngestStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections refused at [`IngestConfig::max_connections`], and
    /// new-session hellos refused at [`IngestConfig::max_sessions`].
    pub rejected_connections: AtomicU64,
    /// Successful session resumptions.
    pub resumes: AtomicU64,
    /// Checkpoints written via [`Checkpointer::checkpoint_to`].
    pub checkpoints: AtomicU64,
    /// Frames decoded (all types).
    pub frames: AtomicU64,
    /// Sample batches applied to their streams' checkers.
    pub batches: AtomicU64,
    /// Samples inside applied batches.
    pub samples: AtomicU64,
    /// Streams opened over the wire.
    pub opens: AtomicU64,
    /// Streams closed over the wire.
    pub closes: AtomicU64,
    /// Batches naming no stream their session has open.
    pub rejected_unknown_stream: AtomicU64,
    /// Close requests for stale or unknown streams, unknown-session
    /// hellos, and resume attempts past the ack ring.
    pub rejected_stale: AtomicU64,
    /// Protocol-level rejections: malformed or oversized frames, bad
    /// magic, unsupported versions, pre-handshake traffic, frames out of
    /// sequence.
    pub malformed: AtomicU64,
    /// Connections that disconnected mid-frame.
    pub truncated: AtomicU64,
    /// Raw bytes received.
    pub bytes_rx: AtomicU64,
    /// Sampled wall-clock frame decode latency (1-in-8 frames).
    pub decode_ns: Mutex<Histogram>,
}

impl Default for IngestStats {
    fn default() -> Self {
        IngestStats {
            connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            opens: AtomicU64::new(0),
            closes: AtomicU64::new(0),
            rejected_unknown_stream: AtomicU64::new(0),
            rejected_stale: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            bytes_rx: AtomicU64::new(0),
            decode_ns: Mutex::new(Histogram::nanos()),
        }
    }
}

/// A point-in-time copy of [`IngestStats`].
#[derive(Debug, Clone)]
pub struct IngestStatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused at the connection or session cap.
    pub rejected_connections: u64,
    /// Successful session resumptions.
    pub resumes: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Frames decoded.
    pub frames: u64,
    /// Batches applied.
    pub batches: u64,
    /// Samples applied.
    pub samples: u64,
    /// Streams opened over the wire.
    pub opens: u64,
    /// Streams closed over the wire.
    pub closes: u64,
    /// Batches naming no stream their session has open.
    pub rejected_unknown_stream: u64,
    /// Stale/unknown-stream and stale-session rejections.
    pub rejected_stale: u64,
    /// Protocol-level rejections (malformed frames, bad magic,
    /// unsupported version, pre-handshake traffic, out-of-sequence
    /// frames).
    pub malformed: u64,
    /// Mid-frame disconnects.
    pub truncated: u64,
    /// Raw bytes received.
    pub bytes_rx: u64,
    /// Sampled frame decode latency.
    pub decode_ns: Histogram,
}

impl IngestStats {
    /// Copies every counter (and the decode histogram) at once.
    pub fn snapshot(&self) -> IngestStatsSnapshot {
        IngestStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            opens: self.opens.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
            rejected_unknown_stream: self.rejected_unknown_stream.load(Ordering::Relaxed),
            rejected_stale: self.rejected_stale.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            // A histogram is consistent after any panic elsewhere: its
            // recorders only add to it.
            decode_ns: self
                .decode_ns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// One producer session's server-side state: the next expected
/// sequence, the durable (checkpoint-covered) sequence, whether a
/// connection currently owns it, the bounded ring of recent encoded
/// responses for resume replay, and the fleet stream behind each open
/// handle (keyed by the seq of the `OpenStream` frame that opened it;
/// see [`StreamId::from_open_seq`]).
#[derive(Debug)]
struct SessionEntry {
    expected_seq: u64,
    durable_seq: u64,
    attached: bool,
    acks: VecDeque<(u64, Vec<u8>)>,
    streams: BTreeMap<u64, StreamId>,
}

impl SessionEntry {
    fn push_ack(&mut self, seq: u64, bytes: Vec<u8>, cap: usize) {
        self.acks.push_back((seq, bytes));
        while self.acks.len() > cap.max(1) {
            self.acks.pop_front();
        }
    }
}

/// All sessions, keyed by token, plus the checkpoint gate: connection
/// threads hold the gate shared while handling a windowed frame, a
/// checkpoint holds it exclusively — so a checkpoint always observes the
/// fleet and every session at a frame boundary.
///
/// A session whose connection thread panicked while holding its entry is
/// *dead*: the frame it was handling may have reached the fleet without
/// advancing the expected sequence, so resending it could apply it twice.
/// A dead session cannot be attached, is left out of checkpoints, and
/// at the cap is evicted like a detached one; the table's own operations
/// never panic on it.
#[derive(Debug)]
struct SessionTable {
    inner: Mutex<TableInner>,
    gate: RwLock<()>,
    max_sessions: usize,
}

#[derive(Debug, Default)]
struct TableInner {
    sessions: BTreeMap<u64, Arc<Mutex<SessionEntry>>>,
    next_token: u64,
}

/// The entry's guard, or `None` if the session is dead (see
/// [`SessionTable`]).
fn live(entry: &Mutex<SessionEntry>) -> Option<MutexGuard<'_, SessionEntry>> {
    entry.lock().ok()
}

impl SessionTable {
    fn new(max_sessions: usize) -> Self {
        SessionTable {
            inner: Mutex::new(TableInner {
                sessions: BTreeMap::new(),
                next_token: 1,
            }),
            gate: RwLock::new(()),
            max_sessions,
        }
    }

    fn seeded(max_sessions: usize, seed: SessionSeed) -> Self {
        let table = SessionTable::new(max_sessions);
        {
            let mut inner = table.inner.lock().expect("session table lock");
            for entry in seed.sessions {
                inner.next_token = inner.next_token.max(entry.token + 1);
                inner.sessions.insert(
                    entry.token,
                    Arc::new(Mutex::new(SessionEntry {
                        expected_seq: entry.expected_seq,
                        // Everything the checkpoint covers is durable by
                        // definition of being in the checkpoint.
                        durable_seq: entry.expected_seq.saturating_sub(1),
                        attached: false,
                        acks: entry.acks.into_iter().collect(),
                        streams: entry.streams.into_iter().collect(),
                    })),
                );
            }
        }
        table
    }

    /// Allocates a fresh session, evicting the oldest detached or dead
    /// one at the cap. `None` when the table is full of attached sessions.
    fn create(&self) -> Option<(u64, Arc<Mutex<SessionEntry>>)> {
        let mut inner = self.inner.lock().expect("session table lock");
        if self.max_sessions > 0 && inner.sessions.len() >= self.max_sessions {
            let victim = inner
                .sessions
                .iter()
                .find(|(_, e)| live(e).is_none_or(|e| !e.attached))
                .map(|(token, _)| *token);
            match victim {
                Some(token) => {
                    inner.sessions.remove(&token);
                }
                None => return None,
            }
        }
        let token = inner.next_token;
        inner.next_token += 1;
        let entry = Arc::new(Mutex::new(SessionEntry {
            expected_seq: 1,
            durable_seq: 0,
            attached: true,
            acks: VecDeque::new(),
            streams: BTreeMap::new(),
        }));
        inner.sessions.insert(token, Arc::clone(&entry));
        Some((token, entry))
    }

    /// Attaches to an existing detached session. `None` for unknown
    /// tokens, dead sessions, or sessions another connection still owns.
    fn attach(&self, token: u64) -> Option<Arc<Mutex<SessionEntry>>> {
        let inner = self.inner.lock().expect("session table lock");
        let entry = inner.sessions.get(&token)?;
        let mut locked = live(entry)?;
        if locked.attached {
            return None;
        }
        locked.attached = true;
        Some(Arc::clone(entry))
    }

    /// Captures every live session for a checkpoint. Returns the seed
    /// entries plus `(token, expected_seq)` marks for the post-write
    /// durable bump. Caller must hold the gate exclusively.
    fn snapshot(&self) -> (Vec<SessionSeedEntry>, Vec<(u64, u64)>) {
        let inner = self.inner.lock().expect("session table lock");
        let mut seed = Vec::with_capacity(inner.sessions.len());
        let mut marks = Vec::with_capacity(inner.sessions.len());
        for (&token, entry) in &inner.sessions {
            let Some(e) = live(entry) else {
                continue;
            };
            seed.push(SessionSeedEntry {
                token,
                expected_seq: e.expected_seq,
                acks: e.acks.iter().cloned().collect(),
                streams: e.streams.iter().map(|(&h, &id)| (h, id)).collect(),
            });
            marks.push((token, e.expected_seq));
        }
        (seed, marks)
    }

    /// Advances durable sequences after a checkpoint file is safely on
    /// disk. Monotone (`max`), so a stale mark can never regress one.
    fn bump_durable(&self, marks: &[(u64, u64)]) {
        let inner = self.inner.lock().expect("session table lock");
        for (token, expected) in marks {
            if let Some(mut e) = inner.sessions.get(token).and_then(|e| live(e)) {
                e.durable_seq = e.durable_seq.max(expected.saturating_sub(1));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Everything a connection thread needs, bundled once.
#[derive(Debug)]
struct ConnShared {
    fleet: Arc<Mutex<Fleet>>,
    handle: FleetHandle,
    stats: Arc<IngestStats>,
    stop: Arc<AtomicBool>,
    sessions: Arc<SessionTable>,
    live_conns: Arc<AtomicUsize>,
    config: IngestConfig,
}

/// A clonable checkpoint handle, detached from the [`IngestServer`]'s
/// lifetime so a periodic thread can snapshot while the server serves.
///
/// Capture holds the session gate exclusively (stalling windowed-frame
/// handling for the duration of the in-memory copy) and serializes fleet
/// plus session state. Every acknowledged batch was applied before its
/// frame released the gate, so the image holds all of them. The file write
/// happens outside the gate, atomically (`.tmp` + rename), and only
/// *after* the rename do the sessions' durable sequences advance — so a
/// `durable_seq` a producer ever sees is always backed by a fully
/// written file.
///
/// File writes encode into one image buffer that the clones share and
/// keep (it is also the lock that orders their writes), so a periodic
/// checkpoint does not allocate and free an image each time.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    fleet: Arc<Mutex<Fleet>>,
    sessions: Arc<SessionTable>,
    stats: Arc<IngestStats>,
    image: Arc<Mutex<Vec<u8>>>,
}

impl Checkpointer {
    /// Encodes the fleet and session state into `out` and returns the
    /// `(session, durable_seq)` marks to apply once those bytes are
    /// safely on disk.
    fn capture(&self, out: &mut Vec<u8>) -> Vec<(u64, u64)> {
        let _gate = self.sessions.gate.write().expect("checkpoint gate");
        let state = self.fleet.lock().expect("fleet lock").capture_state();
        let (seed, marks) = self.sessions.snapshot();
        checkpoint::encode_into(out, &state, &seed);
        marks
    }

    /// Serializes the fleet and session state to checkpoint bytes
    /// without touching disk (durable sequences do not advance).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.capture(&mut out);
        out
    }

    /// Writes a checkpoint atomically to `path` (`path.tmp` + rename)
    /// and then advances the sessions' durable sequences.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn checkpoint_to(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut image = self.image.lock().expect("checkpoint image lock");
        let marks = self.capture(&mut image);
        let tmp = path.with_extension("adckpt.tmp");
        std::fs::write(&tmp, &*image)?;
        std::fs::rename(&tmp, path)?;
        self.sessions.bump_durable(&marks);
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// The ingest server: an accept loop and one protocol thread per
/// producer connection, which applies that producer's batches.
///
/// The fleet is shared (`Arc<Mutex<Fleet>>`) so a metrics endpoint — or
/// the embedding `monitor-server` — can serve exporter snapshots from
/// the same instance the wire path feeds. Batches bypass the mutex
/// entirely via [`FleetHandle`]; the lock is only taken for opens,
/// closes, metrics reads and checkpoints.
#[derive(Debug)]
pub struct IngestServer {
    fleet: Arc<Mutex<Fleet>>,
    stats: Arc<IngestStats>,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    sessions: Arc<SessionTable>,
    /// The [`Checkpointer`]s' shared image buffer.
    image: Arc<Mutex<Vec<u8>>>,
    local_addr: Option<SocketAddr>,
}

impl IngestServer {
    /// Starts serving `listener` against `fleet`. Returns immediately;
    /// the accept and connection threads run until
    /// [`IngestServer::shutdown`]. The `Mutex` around the fleet guards
    /// only opens, closes, metrics and checkpoints; batches take their
    /// shard's lock alone.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the listener cannot be switched to
    /// non-blocking accept mode.
    pub fn spawn(
        fleet: Arc<Mutex<Fleet>>,
        listener: IngestListener,
        config: IngestConfig,
    ) -> std::io::Result<Self> {
        IngestServer::spawn_with_sessions(
            fleet,
            listener,
            config,
            SessionTable::new(config.max_sessions),
        )
    }

    /// Starts a server whose session table is pre-seeded from a restored
    /// checkpoint (see [`crate::restore_server`]): reconnecting
    /// producers resume exactly at the checkpointed sequence instead of
    /// being refused as unknown.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the listener cannot be switched to
    /// non-blocking accept mode.
    pub fn spawn_restored(
        fleet: Arc<Mutex<Fleet>>,
        listener: IngestListener,
        config: IngestConfig,
        seed: SessionSeed,
    ) -> std::io::Result<Self> {
        IngestServer::spawn_with_sessions(
            fleet,
            listener,
            config,
            SessionTable::seeded(config.max_sessions, seed),
        )
    }

    fn spawn_with_sessions(
        fleet: Arc<Mutex<Fleet>>,
        listener: IngestListener,
        config: IngestConfig,
        sessions: SessionTable,
    ) -> std::io::Result<Self> {
        let stats = Arc::new(IngestStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let sessions = Arc::new(sessions);
        let local_addr = match &listener {
            IngestListener::Tcp(l) => Some(l.local_addr()?),
            #[cfg(unix)]
            IngestListener::Unix(_) => None,
        };
        let handle = fleet.lock().expect("fleet lock").handle();
        let shared = Arc::new(ConnShared {
            fleet: Arc::clone(&fleet),
            handle,
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
            sessions: Arc::clone(&sessions),
            live_conns: Arc::new(AtomicUsize::new(0)),
            config,
        });

        let threads = Arc::clone(&conn_threads);
        let accept = match listener {
            IngestListener::Tcp(l) => {
                l.set_nonblocking(true)?;
                std::thread::spawn(move || {
                    accept_loop(
                        || {
                            let (conn, _) = l.accept()?;
                            let _ = conn.set_nodelay(true);
                            let _ = conn.set_read_timeout(Some(CONN_READ_TIMEOUT));
                            Ok(conn)
                        },
                        &shared,
                        &threads,
                    );
                })
            }
            #[cfg(unix)]
            IngestListener::Unix(l) => {
                l.set_nonblocking(true)?;
                std::thread::spawn(move || {
                    accept_loop(
                        || {
                            let (conn, _) = l.accept()?;
                            let _ = conn.set_read_timeout(Some(CONN_READ_TIMEOUT));
                            Ok(conn)
                        },
                        &shared,
                        &threads,
                    );
                })
            }
        };

        Ok(IngestServer {
            fleet,
            stats,
            stop,
            accept,
            conn_threads,
            sessions,
            image: Arc::new(Mutex::new(Vec::new())),
            local_addr,
        })
    }

    /// The bound TCP address (`None` for Unix-domain listeners). Useful
    /// after binding port 0.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The shared fleet this server feeds. Its `Mutex` is not taken by
    /// batches, only by opens, closes, metrics and checkpoints.
    pub fn fleet(&self) -> &Arc<Mutex<Fleet>> {
        &self.fleet
    }

    /// A point-in-time copy of the ingestion counters.
    pub fn stats(&self) -> IngestStatsSnapshot {
        self.stats.snapshot()
    }

    /// A clonable checkpoint handle for periodic snapshot threads.
    pub fn checkpointer(&self) -> Checkpointer {
        Checkpointer {
            fleet: Arc::clone(&self.fleet),
            sessions: Arc::clone(&self.sessions),
            stats: Arc::clone(&self.stats),
            image: Arc::clone(&self.image),
        }
    }

    /// Writes a checkpoint atomically to `path`. See
    /// [`Checkpointer::checkpoint_to`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn checkpoint_to(&self, path: &Path) -> Result<(), CheckpointError> {
        self.checkpointer().checkpoint_to(path)
    }

    /// Stops accepting, waits for every connection thread, and returns
    /// the final counters. Every acknowledged batch has already been
    /// applied.
    pub fn shutdown(self) -> IngestStatsSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
        let conns: Vec<_> = self
            .conn_threads
            .lock()
            .expect("conn thread list lock")
            .drain(..)
            .collect();
        for t in conns {
            let _ = t.join();
        }
        self.stats.snapshot()
    }

    /// Stop for crash drills. The teardown is [`IngestServer::shutdown`]'s;
    /// what makes it a drill is that the caller then discards the fleet
    /// and rebuilds it from the last checkpoint, losing every
    /// post-checkpoint batch as a process kill would.
    pub fn kill(self) {
        self.shutdown();
    }
}

/// Joins finished connection threads in place; called every accept
/// iteration so a long-lived server does not accumulate one parked
/// handle per past connection.
fn reap_finished(conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let mut list = conn_threads.lock().expect("conn thread list lock");
    let mut i = 0;
    while i < list.len() {
        if list[i].is_finished() {
            let handle = list.swap_remove(i);
            let _ = handle.join();
        } else {
            i += 1;
        }
    }
}

/// Refuses a connection at the cap: one `ConnectionLimit` nack (with the
/// retry hint), then close.
fn reject_over_limit<C: Read + Write>(mut conn: C, shared: &ConnShared) {
    shared
        .stats
        .rejected_connections
        .fetch_add(1, Ordering::Relaxed);
    let mut out = Vec::with_capacity(32);
    encode_nack(&mut out, 0, NackReason::ConnectionLimit, RETRY_AFTER_US);
    let _ = conn.write_all(&out);
    let _ = conn.flush();
}

fn over_limit(shared: &ConnShared) -> bool {
    shared.config.max_connections > 0
        && shared.live_conns.load(Ordering::Relaxed) >= shared.config.max_connections
}

/// Accepts connections until the server stops. `accept` yields one
/// configured connection, or `WouldBlock` when none is pending.
fn accept_loop<C: Read + Write + Send + 'static>(
    mut accept: impl FnMut() -> std::io::Result<C>,
    shared: &Arc<ConnShared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        reap_finished(conn_threads);
        match accept() {
            Ok(conn) => {
                if over_limit(shared) {
                    reject_over_limit(conn, shared);
                } else {
                    spawn_conn(conn, shared, conn_threads);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

fn spawn_conn<C: Read + Write + Send + 'static>(
    conn: C,
    shared: &Arc<ConnShared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    shared.live_conns.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        serve_conn(conn, &shared);
        shared.live_conns.fetch_sub(1, Ordering::Relaxed);
    });
    conn_threads
        .lock()
        .expect("conn thread list lock")
        .push(handle);
}

/// Connection handshake progression: a new-session hello goes straight
/// to `Ready`; a session-bearing hello must `Resume` first, which checks
/// the token it names. Both later phases hold the session's entry, which
/// the connection owns (attached) until it ends.
enum Phase {
    AwaitHello,
    AwaitResume(u64, Arc<Mutex<SessionEntry>>),
    Ready(Arc<Mutex<SessionEntry>>),
}

/// Per-connection protocol state.
struct Conn {
    phase: Phase,
    frame_counter: u64,
}

enum Step {
    Continue,
    Close,
}

fn serve_conn<C: Read + Write>(mut conn: C, shared: &ConnShared) {
    let stats = &shared.stats;
    let mut decoder = FrameDecoder::new(shared.config.max_frame_len);
    let mut state = Conn {
        phase: Phase::AwaitHello,
        frame_counter: 0,
    };
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(4096);

    'conn: loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match conn.read(&mut rbuf) {
            Ok(0) => {
                if decoder.pending() > 0 {
                    stats.truncated.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => {
                // Reset mid-frame is the same loss as a clean EOF mid-frame.
                if decoder.pending() > 0 {
                    stats.truncated.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        };
        stats.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
        decoder.feed(&rbuf[..n]);
        loop {
            let timed = (state.frame_counter & DECODE_TIMING_MASK == 0).then(Instant::now);
            match decoder.next_frame_ref() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    if let Some(t0) = timed {
                        stats
                            .decode_ns
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .record(t0.elapsed().as_nanos() as f64);
                    }
                    state.frame_counter += 1;
                    stats.frames.fetch_add(1, Ordering::Relaxed);
                    match handle_frame(frame, &mut state, shared, &mut out) {
                        Step::Continue => {}
                        Step::Close => {
                            let _ = conn.write_all(&out);
                            let _ = conn.flush();
                            break 'conn;
                        }
                    }
                }
                Err(_) => {
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    encode_nack(&mut out, 0, NackReason::Malformed, 0);
                    let _ = conn.write_all(&out);
                    let _ = conn.flush();
                    break 'conn;
                }
            }
        }
        if !out.is_empty() {
            if conn.write_all(&out).is_err() {
                if decoder.pending() > 0 {
                    stats.truncated.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            let _ = conn.flush();
            out.clear();
        }
    }
    // The session outlives the connection: detach so a reconnecting
    // producer can claim it.
    if let Phase::AwaitResume(_, entry) | Phase::Ready(entry) = &state.phase {
        if let Some(mut e) = live(entry) {
            e.attached = false;
        }
    }
}

fn handle_frame(
    frame: FrameRef<'_>,
    state: &mut Conn,
    shared: &ConnShared,
    out: &mut Vec<u8>,
) -> Step {
    let stats = &shared.stats;
    match frame {
        FrameRef::Other(Frame::Hello { version, session }) => {
            if !matches!(state.phase, Phase::AwaitHello) || version != VERSION {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                encode_nack(out, 0, NackReason::Unsupported, 0);
                return Step::Close;
            }
            if session == 0 {
                let Some((token, entry)) = shared.sessions.create() else {
                    stats.rejected_connections.fetch_add(1, Ordering::Relaxed);
                    encode_nack(out, 0, NackReason::ConnectionLimit, RETRY_AFTER_US);
                    return Step::Close;
                };
                state.phase = Phase::Ready(entry);
                encode_ack(
                    out,
                    0,
                    &AckBody::Hello {
                        version: VERSION,
                        session: token,
                    },
                );
            } else {
                let Some(entry) = shared.sessions.attach(session) else {
                    stats.rejected_stale.fetch_add(1, Ordering::Relaxed);
                    encode_nack(out, 0, NackReason::UnknownSession, 0);
                    return Step::Close;
                };
                state.phase = Phase::AwaitResume(session, entry);
                encode_ack(
                    out,
                    0,
                    &AckBody::Hello {
                        version: VERSION,
                        session,
                    },
                );
            }
            Step::Continue
        }
        FrameRef::Other(Frame::Resume {
            session,
            last_acked,
        }) => {
            let entry = match &state.phase {
                Phase::AwaitResume(token, entry) if *token == session => Arc::clone(entry),
                _ => {
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    encode_nack(out, 0, NackReason::Malformed, 0);
                    return Step::Close;
                }
            };
            let _gate = shared.sessions.gate.read().expect("checkpoint gate");
            let e = entry.lock().expect("session lock");
            if last_acked + 1 < e.expected_seq {
                // Replay needs every response in (last_acked, expected);
                // the ring is contiguous, so only its oldest entry
                // matters.
                let oldest = e.acks.front().map(|(s, _)| *s);
                if oldest.is_none_or(|s| s > last_acked + 1) {
                    stats.rejected_stale.fetch_add(1, Ordering::Relaxed);
                    encode_nack(out, 0, NackReason::ResumeGap, 0);
                    return Step::Close;
                }
            }
            state.phase = Phase::Ready(Arc::clone(&entry));
            stats.resumes.fetch_add(1, Ordering::Relaxed);
            encode_ack(
                out,
                0,
                &AckBody::Resumed {
                    next_seq: e.expected_seq,
                },
            );
            for (seq, bytes) in &e.acks {
                if *seq > last_acked {
                    out.extend_from_slice(bytes);
                }
            }
            Step::Continue
        }
        // Server-to-client frames arriving at the server, and any frame
        // before the handshake is done, are a protocol violation.
        FrameRef::Other(Frame::Ack { .. } | Frame::Nack { .. }) => {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            encode_nack(out, 0, NackReason::Malformed, 0);
            Step::Close
        }
        windowed => {
            let Phase::Ready(entry) = &state.phase else {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                encode_nack(out, 0, NackReason::Malformed, 0);
                return Step::Close;
            };
            let _gate = shared.sessions.gate.read().expect("checkpoint gate");
            let mut e = entry.lock().expect("session lock");
            handle_windowed(windowed, &mut e, shared, out)
        }
    }
}

/// Handles one sequence-disciplined frame under the session lock (and
/// the checkpoint gate, held shared by the caller). A frame out of
/// sequence closes the connection. Every response that does not close it
/// advances the expected sequence and is stored in the session's ack
/// ring for resume replay.
///
/// Batches and closes name a stream by the handle its open returned
/// ([`StreamId::from_open_seq`]); the session's map turns it into the
/// fleet's id. A handle the session has not opened, or has closed, is
/// refused as a forged id is: `UnknownStream` for a batch, `UnknownSlot`
/// for a close.
fn handle_windowed(
    frame: FrameRef<'_>,
    e: &mut SessionEntry,
    shared: &ConnShared,
    out: &mut Vec<u8>,
) -> Step {
    let stats = &shared.stats;
    let seq = match &frame {
        FrameRef::SampleBatch(batch) => batch.seq,
        FrameRef::Other(
            Frame::OpenStream { seq, .. }
            | Frame::CloseStream { seq, .. }
            | Frame::GetMetrics { seq },
        ) => *seq,
        FrameRef::Other(
            Frame::Hello { .. }
            | Frame::Resume { .. }
            | Frame::Ack { .. }
            | Frame::Nack { .. }
            | Frame::SampleBatch { .. },
        ) => {
            unreachable!("routed by handle_frame; batches decode borrowed")
        }
    };
    if seq != e.expected_seq {
        stats.malformed.fetch_add(1, Ordering::Relaxed);
        encode_nack(out, seq, NackReason::Malformed, 0);
        return Step::Close;
    }
    let mark = out.len();
    match frame {
        FrameRef::Other(Frame::OpenStream { flags, .. }) => {
            if flags != 0 {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                encode_nack(out, seq, NackReason::Unsupported, 0);
                return Step::Close;
            }
            let stream = shared.fleet.lock().expect("fleet lock").open_stream();
            // A replayed open maps its handle again, to whichever stream
            // the fleet hands out now.
            e.streams.insert(seq, stream);
            stats.opens.fetch_add(1, Ordering::Relaxed);
            encode_ack(
                out,
                seq,
                &AckBody::StreamOpened {
                    stream: StreamId::from_open_seq(seq),
                },
            );
        }
        FrameRef::SampleBatch(mut batch) => {
            let samples = batch.len() as u64;
            // Applied here, straight from the decoder's buffer, under
            // gate → session → shard, before the ack.
            let applied = match batch.stream.open_seq().and_then(|h| e.streams.get(&h)) {
                Some(&stream) => {
                    batch.stream = stream;
                    shared.handle.submit_frame(&batch).is_ok()
                }
                None => false,
            };
            if applied {
                stats.batches.fetch_add(1, Ordering::Relaxed);
                stats.samples.fetch_add(samples, Ordering::Relaxed);
                encode_ack(
                    out,
                    seq,
                    &AckBody::BatchApplied {
                        durable_seq: e.durable_seq,
                    },
                );
            } else {
                stats
                    .rejected_unknown_stream
                    .fetch_add(1, Ordering::Relaxed);
                encode_nack(out, seq, NackReason::UnknownStream, 0);
            }
        }
        FrameRef::Other(Frame::CloseStream { stream, .. }) => {
            let mapped = stream.open_seq().and_then(|h| e.streams.remove(&h));
            let closed = match mapped {
                Some(stream) => shared
                    .fleet
                    .lock()
                    .expect("fleet lock")
                    .close_stream(stream),
                None => Err(StreamError::UnknownSlot),
            };
            match closed {
                Ok((report, _snapshot)) => {
                    let report_json = serde_json::to_vec(&report).expect("report serializes");
                    stats.closes.fetch_add(1, Ordering::Relaxed);
                    encode_ack(out, seq, &AckBody::StreamClosed { report_json });
                }
                Err(StreamError::StaleGeneration) => {
                    stats.rejected_stale.fetch_add(1, Ordering::Relaxed);
                    encode_nack(out, seq, NackReason::StaleGeneration, 0);
                }
                Err(StreamError::UnknownSlot) => {
                    stats.rejected_stale.fetch_add(1, Ordering::Relaxed);
                    encode_nack(out, seq, NackReason::UnknownSlot, 0);
                }
            }
        }
        FrameRef::Other(Frame::GetMetrics { .. }) => {
            let summary = shared.fleet.lock().expect("fleet lock").metrics().summary();
            let summary_json = serde_json::to_vec(&summary).expect("summary serializes");
            encode_ack(out, seq, &AckBody::Metrics { summary_json });
        }
        _ => unreachable!("sequence extracted above"),
    }
    e.expected_seq += 1;
    e.push_ack(seq, out[mark..].to_vec(), shared.config.session_ack_ring);
    Step::Continue
}

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

/// Producer-side failures.
#[derive(Debug)]
pub enum ProducerError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode, or a frame could not be
    /// encoded.
    Wire(WireError),
    /// The server refused a frame for a non-retryable reason.
    Rejected {
        /// The refused frame's sequence number.
        seq: u64,
        /// The server's typed reason.
        reason: NackReason,
    },
    /// The server violated the protocol (wrong ack kind, unexpected
    /// frame).
    Protocol(String),
    /// The connection closed while responses were still outstanding.
    Disconnected,
    /// A resume needs frames the producer has already released from its
    /// replay retention ([`ProducerConfig::retain_for_replay`]).
    ReplayExhausted {
        /// The sequence the server asked to continue from.
        needed: u64,
        /// The oldest sequence still retained.
        floor: u64,
    },
    /// Every attempt of one redial failed, or one call's redials made no
    /// progress ([`IngestProducer::dial`]). The producer keeps its window
    /// and retention and redials again at its next call, and repeating
    /// the call that gave up sends no frame twice (see
    /// [`IngestProducer::dial`]).
    GaveUp {
        /// Attempts made before giving up: the dials of one redial, or
        /// the call's redials that no applied response followed.
        attempts: u32,
        /// The last failure seen.
        last: Box<ProducerError>,
    },
}

impl std::fmt::Display for ProducerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProducerError::Io(e) => write!(f, "transport error: {e}"),
            ProducerError::Wire(e) => write!(f, "undecodable server bytes: {e}"),
            ProducerError::Rejected { seq, reason } => {
                write!(f, "frame {seq} rejected: {reason}")
            }
            ProducerError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ProducerError::Disconnected => write!(f, "server disconnected"),
            ProducerError::ReplayExhausted { needed, floor } => write!(
                f,
                "resume needs frame {needed} but replay retention starts at {floor}"
            ),
            ProducerError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} reconnect attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ProducerError {}

impl From<std::io::Error> for ProducerError {
    fn from(e: std::io::Error) -> Self {
        ProducerError::Io(e)
    }
}

impl From<WireError> for ProducerError {
    fn from(e: WireError) -> Self {
        ProducerError::Wire(e)
    }
}

/// Failures a dialing producer redials on; anything else surfaces.
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

/// Producer tuning.
#[derive(Debug, Clone, Copy)]
pub struct ProducerConfig {
    /// Maximum unacknowledged frames in flight before
    /// [`IngestProducer::submit`] blocks on acks. Also bounds resume
    /// memory: the producer retains every unacked frame for re-send
    /// after a reconnect.
    pub window: usize,
    /// Decoder cap for server responses.
    pub max_frame_len: usize,
    /// Acknowledged frames retained for crash-resume replay, beyond the
    /// unacked window. 0 disables retention (a resume can then only
    /// re-send from the first unacknowledged frame on). Frames at or
    /// below the server's durable sequence are trimmed eagerly regardless
    /// of the cap.
    pub retain_for_replay: usize,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            window: 64,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            retain_for_replay: 0,
        }
    }
}

/// Object-safe transport bound: anything `Read + Write + Send` — a
/// `TcpStream`, a `UnixStream`, or a fault-injecting wrapper like
/// [`crate::chaos::ChaosTransport`].
pub trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// Backoff policy for reconnection attempts.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectPolicy {
    /// Dial attempts per reconnection before giving up, and also the
    /// redials one call makes with no response applied in between.
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

/// Lifetime counters for one producer (carried across redials).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerStats {
    /// Batches acknowledged as applied.
    pub acked_batches: u64,
    /// Always 0: batches are applied on submit, so there is no queue to
    /// fill. Kept only because the benchmark compiles against it.
    pub saturated_nacks: u64,
    /// Always 0: an out-of-sequence frame closes the connection. Kept
    /// because the benchmark reports it.
    pub superseded_nacks: u64,
    /// Always 0: nothing is re-sent on a live connection (resume
    /// re-sends count in `replayed_frames`). Kept because the benchmark
    /// reports it.
    pub resent_frames: u64,
    /// Successful session resumptions onto a fresh transport.
    pub reconnects: u64,
    /// Frames re-sent during resumes (from the window and the replay
    /// retention).
    pub replayed_frames: u64,
}

/// One sent frame, retained for re-send after a reconnect.
#[derive(Debug)]
struct InFlight {
    seq: u64,
    bytes: Vec<u8>,
}

/// A call that waits for its frame's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Query {
    Close(StreamId),
    Metrics,
}

/// The producer's protocol state, with no I/O: the session token, the
/// sequence marks, the window of unacknowledged frames, the replay
/// retention, recycled frame buffers, responses captured for waiters and
/// the lifetime stats. A redial keeps all of it, so the operation that a
/// cut interrupted carries on against the resumed session.
#[derive(Debug)]
struct ProducerState {
    config: ProducerConfig,
    session: u64,
    next_seq: u64,
    /// Highest acknowledged sequence.
    acked_seq: u64,
    /// Highest server-durable (checkpoint-covered) sequence seen.
    durable_seq: u64,
    /// Encoded-but-unacknowledged frames, oldest first.
    window: VecDeque<InFlight>,
    /// Acknowledged frames retained for crash-resume replay
    /// ([`ProducerConfig::retain_for_replay`]-bounded), oldest first.
    settled: VecDeque<InFlight>,
    /// Recycled frame buffers ([`ProducerConfig::window`]-bounded).
    spare: Vec<Vec<u8>>,
    /// Response bodies captured for sequence numbers waiters ask for.
    captured: Vec<(u64, AckBody)>,
    /// The query whose wait a failed redial cut short, with its windowed
    /// frame's sequence number: repeating that query as the next call
    /// waits for this frame instead of sending another.
    unanswered: Option<(Query, u64)>,
    stats: ProducerStats,
}

impl ProducerState {
    fn new(config: ProducerConfig) -> Self {
        ProducerState {
            config,
            session: 0,
            next_seq: 1,
            acked_seq: 0,
            durable_seq: 0,
            window: VecDeque::new(),
            settled: VecDeque::new(),
            spare: Vec::new(),
            captured: Vec::new(),
            unanswered: None,
            stats: ProducerStats::default(),
        }
    }

    /// Encodes one frame (via `encode`) under the next sequence number,
    /// windows it and appends its bytes to `out`. The sequence number is
    /// consumed only on successful encode, so an encode failure leaves
    /// the producer/server sequences aligned.
    fn send(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> Result<(), ProducerError>,
        out: &mut Vec<u8>,
    ) -> Result<u64, ProducerError> {
        let seq = self.next_seq;
        let mut bytes = self.spare.pop().unwrap_or_default();
        bytes.clear();
        if let Err(e) = encode(&mut bytes, seq) {
            self.recycle(bytes);
            return Err(e);
        }
        self.next_seq += 1;
        out.extend_from_slice(&bytes);
        self.window.push_back(InFlight { seq, bytes });
        Ok(seq)
    }

    /// The response to `seq` if it has arrived, `None` while it is still
    /// outstanding.
    fn take_response(&mut self, seq: u64) -> Result<Option<AckBody>, ProducerError> {
        if let Some(i) = self.captured.iter().position(|(got, _)| *got == seq) {
            let (_, body) = self.captured.swap_remove(i);
            // One call waits at a time, so any other body answers a query
            // that was abandoned after it gave up.
            self.captured.clear();
            return Ok(Some(body));
        }
        if seq > 0
            && seq < self.next_seq
            && !self.window.iter().any(|f| f.seq == seq)
            && !self.settled.iter().any(|f| f.seq == seq)
        {
            // Already acknowledged without capture — protocol bug on our
            // side rather than the server's.
            return Err(ProducerError::Protocol(format!(
                "response for frame {seq} was consumed without a waiter"
            )));
        }
        Ok(None)
    }

    /// Applies one server response: settles the window up to its
    /// sequence and captures the bodies a waiter asks for.
    fn on_response(&mut self, frame: Frame) -> Result<(), ProducerError> {
        match frame {
            Frame::Ack { seq, body } => {
                match body {
                    AckBody::BatchApplied { durable_seq } => {
                        self.durable_seq = self.durable_seq.max(durable_seq);
                        self.stats.acked_batches += 1;
                    }
                    // Nobody waits for an open: its handle is known.
                    AckBody::StreamOpened { stream } if stream == StreamId::from_open_seq(seq) => {}
                    AckBody::StreamOpened { stream } => {
                        return Err(ProducerError::Protocol(format!(
                            "open {seq} acked with stream {stream:?}, not its handle"
                        )));
                    }
                    body => self.captured.push((seq, body)),
                }
                self.settle(seq);
                Ok(())
            }
            Frame::Nack { seq, reason, .. } => {
                self.settle(seq);
                Err(ProducerError::Rejected { seq, reason })
            }
            other => Err(ProducerError::Protocol(format!(
                "unexpected server frame {other:?}"
            ))),
        }
    }

    /// Continues the session after the server's `Resumed { next_seq:
    /// next }`: re-sends (appends to `out`) every retained frame from
    /// `next` on, keeps the acknowledged frames below it as retention,
    /// and leaves the unacknowledged frames below it windowed without
    /// re-send, because the server replays their responses right after
    /// the resume ack.
    fn resume(&mut self, next: u64, out: &mut Vec<u8>) -> Result<(), ProducerError> {
        if next > self.next_seq {
            return Err(ProducerError::Protocol(format!(
                "server expects frame {next} but only {} were ever sent",
                self.next_seq - 1
            )));
        }
        let oldest = self.settled.front().or(self.window.front());
        let floor = oldest.map_or(self.next_seq, |f| f.seq.min(self.next_seq));
        if next < floor {
            return Err(ProducerError::ReplayExhausted {
                needed: next,
                floor,
            });
        }
        let mut frames = std::mem::take(&mut self.settled);
        frames.append(&mut self.window);
        for frame in frames {
            if frame.seq >= next {
                out.extend_from_slice(&frame.bytes);
                self.stats.replayed_frames += 1;
                self.window.push_back(frame);
            } else if frame.seq <= self.acked_seq {
                self.settled.push_back(frame);
            } else {
                self.window.push_back(frame);
            }
        }
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Retires `seq` (and anything older) from the window into the
    /// replay retention (or straight to the recycle pile when retention
    /// is off), then trims retention by the durable sequence and the
    /// cap.
    fn settle(&mut self, seq: u64) {
        while let Some(retired) = self.window.pop_front_if(|f| f.seq <= seq) {
            self.acked_seq = self.acked_seq.max(retired.seq);
            if self.config.retain_for_replay > 0 {
                self.settled.push_back(retired);
            } else {
                self.recycle(retired.bytes);
            }
        }
        let (durable, cap) = (self.durable_seq, self.config.retain_for_replay);
        let mut retained = self.settled.len();
        while let Some(evicted) = self
            .settled
            .pop_front_if(|f| f.seq <= durable || retained > cap)
        {
            retained -= 1;
            self.recycle(evicted.bytes);
        }
    }

    fn recycle(&mut self, bytes: Vec<u8>) {
        if self.spare.len() < self.config.window {
            self.spare.push(bytes);
        }
    }
}

/// A dialing producer's way back to the server: the caller's dial
/// closure, its backoff policy and the jitter state.
struct Dialer<C> {
    connect: Box<dyn FnMut(u32) -> std::io::Result<C> + Send>,
    policy: ReconnectPolicy,
    rng: u64,
    /// Set while the last redial has failed: the transport left behind
    /// holds no resumed session, so the next I/O step redials first.
    down: bool,
}

impl<C> std::fmt::Debug for Dialer<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dialer")
            .field("policy", &self.policy)
            .field("down", &self.down)
            .finish_non_exhaustive()
    }
}

impl<C> Dialer<C> {
    /// Up to [`ReconnectPolicy::max_attempts`] dials, each transport
    /// handed to `open` (the handshake). A transient failure of either
    /// moves on to the next attempt after the policy's backoff; anything
    /// else surfaces. A first connection dials at once, a resume waits
    /// one backoff first.
    fn attempt<T>(
        &mut self,
        resuming: bool,
        mut open: impl FnMut(C) -> Result<T, ProducerError>,
    ) -> Result<T, ProducerError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last = ProducerError::Disconnected;
        for attempt in 0..attempts {
            if let Some(nth) = attempt.checked_sub(u32::from(!resuming)) {
                std::thread::sleep(self.backoff(nth));
            }
            match (self.connect)(attempt)
                .map_err(ProducerError::Io)
                .and_then(&mut open)
            {
                Ok(opened) => return Ok(opened),
                Err(e) if transient(&e) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(ProducerError::GaveUp {
            attempts,
            last: Box::new(last),
        })
    }

    /// Capped exponential delay with deterministic jitter in `[0.5, 1.0)`
    /// of nominal.
    fn backoff(&mut self, attempt: u32) -> Duration {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Top 31 bits of the LCG state, scaled into [0, 1).
        let frac = (self.rng >> 33) as f64 / (1u64 << 31) as f64;
        let nominal = self.policy.base_delay.as_secs_f64() * 2f64.powi(attempt.min(20) as i32);
        let capped = nominal.min(self.policy.max_delay.as_secs_f64());
        Duration::from_secs_f64(capped * frac.mul_add(0.5, 0.5))
    }
}

/// The client side of the ingest protocol: frame encoding with buffer
/// reuse and a bounded in-flight window. A saturated server simply
/// answers later, so the window fills and [`IngestProducer::submit`]
/// blocks.
///
/// Works over any `Read + Write` transport — `TcpStream`, `UnixStream`,
/// or an in-memory pipe in tests. The transport must be in blocking
/// mode. A producer from [`IngestProducer::connect`] owns one transport
/// and surfaces its failures; one from [`IngestProducer::dial`] redials
/// and resumes its session in place.
pub struct IngestProducer<C: Read + Write> {
    conn: C,
    decoder: FrameDecoder,
    /// Outbound coalescing buffer, flushed before every read.
    obuf: Vec<u8>,
    rbuf: Vec<u8>,
    state: ProducerState,
    /// `Some` for a producer from [`IngestProducer::dial`].
    dial: Option<Dialer<C>>,
}

impl<C: Read + Write> std::fmt::Debug for IngestProducer<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestProducer")
            .field("state", &self.state)
            .field("dial", &self.dial)
            .finish_non_exhaustive()
    }
}

impl<C: Read + Write> IngestProducer<C> {
    fn new(conn: C, config: ProducerConfig) -> Self {
        IngestProducer {
            conn,
            decoder: FrameDecoder::new(config.max_frame_len),
            obuf: Vec::with_capacity(256 * 1024),
            rbuf: vec![0u8; 64 * 1024],
            state: ProducerState::new(config),
            dial: None,
        }
    }

    /// Performs the handshake on `conn` and returns the ready producer.
    ///
    /// # Errors
    ///
    /// [`ProducerError`] when the transport fails or the server refuses
    /// the protocol version.
    pub fn connect(conn: C, config: ProducerConfig) -> Result<Self, ProducerError> {
        let mut producer = IngestProducer::new(conn, config);
        producer.handshake()?;
        Ok(producer)
    }

    /// Dials the first connection through `connect` and performs the
    /// handshake, with the same backoff as later redials. The producer
    /// keeps `connect`: when a send or a wait fails on a transient error
    /// (I/O, disconnect, undecodable bytes, a `ConnectionLimit` nack) it
    /// dials a fresh transport, resumes its session and carries on with
    /// the interrupted operation. A frame that entered the window before
    /// the cut is never re-issued: the resume re-sends it, or the server
    /// replays its response, so every frame is applied exactly once
    /// across connection cuts and server restarts (from a checkpoint, with
    /// [`ProducerConfig::retain_for_replay`] covering the frames sent
    /// since).
    ///
    /// `connect` receives the attempt index (0-based within each redial)
    /// and returns a fresh blocking transport.
    ///
    /// ```no_run
    /// use adassure_fleet::{IngestProducer, ProducerConfig, ReconnectPolicy, SampleBatch, Transport};
    /// use std::net::TcpStream;
    ///
    /// let connect = Box::new(|_attempt: u32| -> std::io::Result<Box<dyn Transport>> {
    ///     Ok(Box::new(TcpStream::connect("127.0.0.1:9465")?))
    /// });
    /// let mut producer = IngestProducer::dial(
    ///     connect,
    ///     ProducerConfig { retain_for_replay: 4096, ..ProducerConfig::default() },
    ///     ReconnectPolicy::default(),
    /// )?;
    /// let id = producer.open_stream()?;
    /// let mut batch = SampleBatch::new(id);
    /// batch.push(0.05, "xtrack", 0.3);
    /// producer.submit(&batch)?;
    /// // A cut or a server restart from here on is absorbed by redial,
    /// // session resume and replay.
    /// let report_json = producer.close_stream(id)?;
    /// # drop(report_json);
    /// # Ok::<(), adassure_fleet::ProducerError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ProducerError::GaveUp`] when no attempt produced a working
    /// connection, and the refusal itself when the server refuses for a
    /// reason a retry cannot fix. Later, a redial that fails returns the
    /// same errors from the interrupted call, and so does a call whose
    /// connection fails again after [`ReconnectPolicy::max_attempts`]
    /// redials with no response applied since the first of them: it
    /// returns [`ProducerError::GaveUp`] instead of redialing once more.
    /// The next call redials again: a session the server can no longer resume
    /// ([`NackReason::UnknownSession`], [`NackReason::ResumeGap`],
    /// [`ProducerError::ReplayExhausted`]) fails again on every call.
    ///
    /// A call that failed in a redial may be repeated without sending
    /// anything twice. [`IngestProducer::open_stream`] and
    /// [`IngestProducer::submit`] fail only before their frame takes a
    /// sequence number. [`IngestProducer::close_stream`] and
    /// [`IngestProducer::fetch_metrics`] fail while they wait for the
    /// response to a frame already in the window, which the next redial
    /// delivers; repeated as the producer's next call (the close for the
    /// same stream), they wait for that frame's response. Any other next
    /// call abandons the wait: the frame is still applied, so the stream
    /// is still closed, but its response is dropped.
    pub fn dial(
        connect: impl FnMut(u32) -> std::io::Result<C> + Send + 'static,
        config: ProducerConfig,
        policy: ReconnectPolicy,
    ) -> Result<Self, ProducerError> {
        let mut dial = Dialer {
            connect: Box::new(connect),
            policy,
            rng: policy.seed | 1,
            down: false,
        };
        let mut producer = dial.attempt(false, |conn| IngestProducer::connect(conn, config))?;
        producer.dial = Some(dial);
        Ok(producer)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ProducerStats {
        self.state.stats
    }

    /// The session token the server assigned at handshake (stable across
    /// redials).
    pub fn session(&self) -> u64 {
        self.state.session
    }

    /// The next sequence number this producer will assign.
    pub fn next_seq(&self) -> u64 {
        self.state.next_seq
    }

    /// Queues an `OpenStream` frame and returns the stream's wire handle,
    /// [`StreamId::from_open_seq`] of the frame's sequence number. Like
    /// [`IngestProducer::submit`] it blocks only when the window is full:
    /// batches and the close may name the handle at once, because the
    /// server applies the open before any later frame. A replayed open
    /// maps the same handle again, so it stays valid across server
    /// restarts.
    ///
    /// # Errors
    ///
    /// [`ProducerError`] on transport failure or a non-retryable
    /// rejection.
    pub fn open_stream(&mut self) -> Result<StreamId, ProducerError> {
        let seq = self.send_frame(|out, seq| {
            encode_open_stream(out, seq);
            Ok(())
        })?;
        Ok(StreamId::from_open_seq(seq))
    }

    /// Queues `batch` for transmission. Blocks only when the in-flight
    /// window is full, reading acks until space frees up; a saturated
    /// server makes that wait longer, never makes it re-send.
    ///
    /// # Errors
    ///
    /// [`ProducerError`] on transport failure or a non-retryable
    /// rejection, and [`ProducerError::Wire`] for a batch that cannot be
    /// encoded.
    pub fn submit(&mut self, batch: &SampleBatch) -> Result<(), ProducerError> {
        self.send_frame(|out, seq| encode_sample_batch(out, seq, batch).map_err(Into::into))?;
        Ok(())
    }

    /// Closes `stream` and returns its final
    /// [`adassure_core::CheckReport`] as JSON bytes.
    ///
    /// # Errors
    ///
    /// [`ProducerError::Rejected`] with [`NackReason::UnknownSlot`] for a
    /// handle this session never opened or has already closed.
    pub fn close_stream(&mut self, stream: StreamId) -> Result<Vec<u8>, ProducerError> {
        match self.query(Query::Close(stream))? {
            AckBody::StreamClosed { report_json } => Ok(report_json),
            other => Err(ProducerError::Protocol(format!(
                "expected stream-closed ack, got {other:?}"
            ))),
        }
    }

    /// Fetches the fleet-wide deterministic metrics summary as JSON
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`ProducerError`] on transport failure or rejection.
    pub fn fetch_metrics(&mut self) -> Result<Vec<u8>, ProducerError> {
        match self.query(Query::Metrics)? {
            AckBody::Metrics { summary_json } => Ok(summary_json),
            other => Err(ProducerError::Protocol(format!(
                "expected metrics ack, got {other:?}"
            ))),
        }
    }

    /// Blocks until every in-flight frame is acknowledged.
    ///
    /// # Errors
    ///
    /// [`ProducerError`] on transport failure or rejection.
    pub fn flush(&mut self) -> Result<(), ProducerError> {
        self.state.unanswered = None;
        self.wait(|state| Ok(state.window.is_empty().then_some(())))?;
        self.flush_obuf()
    }

    /// Returns the transport and final stats, consuming the producer.
    pub fn into_parts(self) -> (C, ProducerStats) {
        (self.conn, self.state.stats)
    }

    /// Waits for window space and a short enough outbound buffer, then
    /// windows one frame and queues its bytes. Every I/O comes before the
    /// frame takes its sequence number, so a failed call sent nothing.
    fn send_frame(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> Result<(), ProducerError>,
    ) -> Result<u64, ProducerError> {
        self.state.unanswered = None;
        self.wait(|state| Ok((state.window.len() < state.config.window).then_some(())))?;
        if self.obuf.len() >= 128 * 1024 {
            self.flush_obuf()?;
        }
        self.state.send(encode, &mut self.obuf)
    }

    /// Sends `query`'s frame and waits for its response, or, repeating
    /// the query whose wait a failed redial cut short, waits for the
    /// frame that one sent.
    fn query(&mut self, query: Query) -> Result<AckBody, ProducerError> {
        let seq = match self.state.unanswered.take() {
            Some((cut_short, seq)) if cut_short == query => seq,
            _ => self.send_frame(|out, seq| {
                match query {
                    Query::Close(stream) => encode_close_stream(out, seq, stream),
                    Query::Metrics => encode_get_metrics(out, seq),
                }
                Ok(())
            })?,
        };
        let response = self.wait(|state| state.take_response(seq));
        if response.is_err() && self.dial.as_ref().is_some_and(|dial| dial.down) {
            self.state.unanswered = Some((query, seq));
        }
        response
    }

    /// Pumps until `ready` yields a value. `stalled` counts the call's
    /// redials that no applied response has followed yet; once it
    /// reaches [`ReconnectPolicy::max_attempts`], the next failure gives
    /// up instead of redialing (see [`IngestProducer::redial`]).
    fn wait<T>(
        &mut self,
        mut ready: impl FnMut(&mut ProducerState) -> Result<Option<T>, ProducerError>,
    ) -> Result<T, ProducerError> {
        let mut stalled = 0;
        loop {
            if let Some(value) = ready(&mut self.state)? {
                return Ok(value);
            }
            let (acked, reconnects) = (self.state.acked_seq, self.state.stats.reconnects);
            self.pump(stalled)?;
            if self.state.acked_seq > acked {
                stalled = 0;
            } else if self.state.stats.reconnects > reconnects {
                stalled += 1;
            }
        }
    }

    /// Writes the queued outbound bytes.
    fn flush_obuf(&mut self) -> Result<(), ProducerError> {
        self.on_conn(0, Self::write_obuf)
    }

    /// Flushes outbound bytes and applies responses to the window: the
    /// ones already decoded (a resume leaves the server's replayed
    /// responses there), or else one freshly read chunk.
    fn pump(&mut self, stalled: u32) -> Result<(), ProducerError> {
        self.on_conn(stalled, |p| {
            p.write_obuf()?;
            if !p.apply_decoded()? {
                p.read_chunk()?;
                p.apply_decoded()?;
            }
            Ok(())
        })
    }

    /// Runs one I/O step on the transport. A dialing producer redials in
    /// place when the step fails transiently (or, after a failed redial,
    /// instead of the step), and the step then counts as done: the
    /// caller's loop (a window wait, an ack wait) carries on against the
    /// resumed session.
    fn on_conn(
        &mut self,
        stalled: u32,
        step: impl FnOnce(&mut Self) -> Result<(), ProducerError>,
    ) -> Result<(), ProducerError> {
        let result = match &self.dial {
            Some(dial) if dial.down => Err(ProducerError::Disconnected),
            _ => step(self),
        };
        match result {
            Err(e) if transient(&e) => self.redial(e, stalled),
            done => done,
        }
    }

    /// Dials fresh transports until one resumes the session. The
    /// handshake's own I/O never redials: the dialer is out of the
    /// producer while it runs, so a failed handshake is one attempt.
    /// After `stalled` redials of the current call with no response
    /// applied since, [`ReconnectPolicy::max_attempts`] of them, it gives
    /// up without dialing: a connection that keeps dying before any
    /// response arrives would otherwise hold the call forever.
    fn redial(&mut self, cause: ProducerError, stalled: u32) -> Result<(), ProducerError> {
        let Some(mut dial) = self.dial.take() else {
            return Err(cause);
        };
        let resumed = if stalled >= dial.policy.max_attempts.max(1) {
            Err(ProducerError::GaveUp {
                attempts: stalled,
                last: Box::new(cause),
            })
        } else {
            dial.attempt(true, |conn| {
                self.conn = conn;
                self.decoder = FrameDecoder::new(self.state.config.max_frame_len);
                self.obuf.clear();
                self.handshake()
            })
        };
        dial.down = resumed.is_err();
        self.dial = Some(dial);
        resumed
    }

    /// Opens the session on the current transport: `Hello` for a new
    /// producer; `Hello { session }` + `Resume { last_acked }` and the
    /// re-send of the retained frames ([`ProducerState::resume`]) for one
    /// that has a session already.
    fn handshake(&mut self) -> Result<(), ProducerError> {
        let session = self.state.session;
        if session == 0 {
            encode_hello(&mut self.obuf);
            return match self.handshake_ack()? {
                AckBody::Hello { session, .. } => {
                    self.state.session = session;
                    Ok(())
                }
                other => Err(ProducerError::Protocol(format!(
                    "expected hello ack, got {other:?}"
                ))),
            };
        }
        encode_hello_session(&mut self.obuf, session);
        match self.handshake_ack()? {
            AckBody::Hello { session: got, .. } if got == session => {}
            other => {
                return Err(ProducerError::Protocol(format!(
                    "expected hello ack for session {session}, got {other:?}"
                )))
            }
        }
        encode_resume(&mut self.obuf, session, self.state.acked_seq);
        match self.handshake_ack()? {
            AckBody::Resumed { next_seq } => self.state.resume(next_seq, &mut self.obuf),
            other => Err(ProducerError::Protocol(format!(
                "expected resumed ack, got {other:?}"
            ))),
        }
    }

    /// Sends the queued handshake frame and reads up to its response (the
    /// next sequence-0 ack). Reading stops there, so the responses the
    /// server replays after `Resumed` wait in the decoder until the
    /// retained frames are back in the window.
    fn handshake_ack(&mut self) -> Result<AckBody, ProducerError> {
        self.write_obuf()?;
        loop {
            while let Some(frame) = self.decoder.next_frame()? {
                match frame {
                    Frame::Ack { seq: 0, body } => return Ok(body),
                    frame => self.state.on_response(frame)?,
                }
            }
            self.read_chunk()?;
        }
    }

    fn write_obuf(&mut self) -> Result<(), ProducerError> {
        if !self.obuf.is_empty() {
            self.conn.write_all(&self.obuf)?;
            self.conn.flush()?;
            self.obuf.clear();
        }
        Ok(())
    }

    fn read_chunk(&mut self) -> Result<(), ProducerError> {
        let n = self.conn.read(&mut self.rbuf)?;
        if n == 0 {
            return Err(ProducerError::Disconnected);
        }
        self.decoder.feed(&self.rbuf[..n]);
        Ok(())
    }

    /// Applies every complete response in the decoder; `true` if there
    /// was one.
    fn apply_decoded(&mut self) -> Result<bool, ProducerError> {
        let mut applied = false;
        while let Some(frame) = self.decoder.next_frame()? {
            applied = true;
            self.state.on_response(frame)?;
        }
        Ok(applied)
    }
}

/// Convenience: connects a TCP producer with [`ProducerConfig`] defaults
/// and `TCP_NODELAY` set.
///
/// # Errors
///
/// [`ProducerError`] on connect or handshake failure.
pub fn connect_tcp(
    addr: SocketAddr,
    config: ProducerConfig,
) -> Result<IngestProducer<TcpStream>, ProducerError> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    IngestProducer::connect(conn, config)
}

/// Convenience: connects a Unix-domain producer.
///
/// # Errors
///
/// [`ProducerError`] on connect or handshake failure.
#[cfg(unix)]
pub fn connect_unix(
    path: &std::path::Path,
    config: ProducerConfig,
) -> Result<IngestProducer<UnixStream>, ProducerError> {
    let conn = UnixStream::connect(path)?;
    IngestProducer::connect(conn, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;

    #[test]
    fn a_poisoned_decode_histogram_still_snapshots() {
        let stats = Arc::new(IngestStats::default());
        stats.decode_ns.lock().expect("unpoisoned").record(700.0);
        let held = Arc::clone(&stats);
        let holder = std::thread::spawn(move || {
            let _hist = held.decode_ns.lock().expect("unpoisoned");
            panic!("a thread dies holding the decode histogram");
        });
        assert!(holder.join().is_err());
        assert!(stats.decode_ns.is_poisoned());
        let snapshot = stats.snapshot();
        assert_eq!(snapshot.decode_ns.mean(), Some(700.0));
    }

    /// A transport that counts its reads.
    struct CountingReads {
        inner: TcpStream,
        reads: usize,
    }

    impl Read for CountingReads {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    impl Write for CountingReads {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn open_and_submit_wait_for_no_response() {
        let catalog = [adassure_core::Assertion::new(
            "A1",
            "bounded x",
            adassure_core::Severity::Critical,
            adassure_core::Condition::AtMost {
                expr: adassure_core::SignalExpr::signal("x").abs(),
                limit: 1.0,
            },
        )];
        let fleet = Arc::new(Mutex::new(Fleet::new(catalog, FleetConfig::default())));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server = IngestServer::spawn(
            fleet,
            IngestListener::Tcp(listener),
            IngestConfig::default(),
        )
        .expect("spawn server");
        let conn = TcpStream::connect(server.local_addr().expect("tcp")).expect("connect");
        let transport = CountingReads {
            inner: conn,
            reads: 0,
        };
        let mut producer =
            IngestProducer::connect(transport, ProducerConfig::default()).expect("handshake");
        let handshake_reads = producer.conn.reads;

        let ids: Vec<StreamId> = (0..3)
            .map(|_| producer.open_stream().expect("open"))
            .collect();
        assert_eq!(
            ids,
            (1..=3).map(StreamId::from_open_seq).collect::<Vec<_>>()
        );
        for (k, &id) in ids.iter().enumerate() {
            let mut batch = SampleBatch::new(id);
            batch.push(0.1, "x", 0.5 * k as f64);
            batch.push(0.2, "x", 2.0);
            producer.submit(&batch).expect("submit");
        }
        assert_eq!(
            producer.conn.reads, handshake_reads,
            "opens and submits read nothing"
        );

        for &id in &ids {
            let report = producer.close_stream(id).expect("close");
            assert!(report.starts_with(b"{"), "close returns report JSON");
        }
        assert!(producer.conn.reads > handshake_reads);
        assert!(producer.state.captured.is_empty(), "no open ack is kept");
        let stats = server.shutdown();
        assert_eq!((stats.opens, stats.batches, stats.closes), (3, 3, 3));
    }

    /// A transport that answers the handshake and then reads EOF: a
    /// `Hello` ack for session 7, followed on a resuming connection by a
    /// `Resumed` ack that asks for every frame from 1 on. Writes go
    /// nowhere.
    struct HandshakeThenEof {
        replies: Vec<u8>,
    }

    impl HandshakeThenEof {
        fn new(resuming: bool) -> Self {
            let mut replies = Vec::new();
            let hello = AckBody::Hello {
                version: VERSION,
                session: 7,
            };
            encode_ack(&mut replies, 0, &hello);
            if resuming {
                encode_ack(&mut replies, 0, &AckBody::Resumed { next_seq: 1 });
            }
            HandshakeThenEof { replies }
        }
    }

    impl Read for HandshakeThenEof {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.replies.len());
            buf[..n].copy_from_slice(&self.replies[..n]);
            self.replies.drain(..n);
            Ok(n)
        }
    }

    impl Write for HandshakeThenEof {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_call_whose_redials_make_no_progress_gives_up() {
        // Every redial resumes the session and every resumed connection
        // dies before a response: without a budget `close_stream` would
        // redial forever, so the call runs under a watchdog.
        let (done, outcome) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut dials = 0u32;
            let connect = move |_attempt: u32| {
                dials += 1;
                Ok(HandshakeThenEof::new(dials > 1))
            };
            let policy = ReconnectPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(1),
                seed: 1,
            };
            let mut producer = IngestProducer::dial(connect, ProducerConfig::default(), policy)
                .expect("the first connection says hello");
            let id = producer.open_stream().expect("an open only queues");
            let first = producer.close_stream(id);
            let after_first = (producer.stats().reconnects, producer.next_seq());
            let repeat = producer.close_stream(id);
            let after_repeat = (producer.stats().reconnects, producer.next_seq());
            let gave_up = |r: Result<Vec<u8>, ProducerError>| match r {
                Err(ProducerError::GaveUp { attempts, last }) => {
                    Some((attempts, matches!(*last, ProducerError::Disconnected)))
                }
                _ => None,
            };
            let _ = done.send((gave_up(first), after_first, gave_up(repeat), after_repeat));
        });
        let (first, after_first, repeat, after_repeat) =
            match outcome.recv_timeout(Duration::from_secs(30)) {
                Ok(outcome) => outcome,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                    worker
                        .join()
                        .expect_err("a worker that sent nothing panicked"),
                ),
                // A hung call cannot be joined; failing here ends the test.
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("close_stream kept redialing past the 30-s watchdog")
                }
            };
        worker.join().expect("the worker returned after sending");
        assert_eq!(
            first,
            Some((3, true)),
            "three fruitless redials, then GaveUp"
        );
        assert_eq!(after_first, (3, 3), "one open and one close were sent");
        assert_eq!(repeat, Some((3, true)), "the repeated close gives up too");
        assert_eq!(after_repeat, (6, 3), "and waits for the same close frame");
    }

    #[test]
    fn a_dead_session_neither_blocks_new_sessions_nor_checkpoints() {
        let sessions = Arc::new(SessionTable::new(1));
        let (dead, entry) = sessions.create().expect("an empty table opens a session");
        let holder = std::thread::spawn(move || {
            let _held = entry.lock().expect("unpoisoned");
            panic!("connection thread dies holding its session");
        });
        assert!(holder.join().is_err());

        assert!(
            sessions.attach(dead).is_none(),
            "a dead session is not resumed"
        );
        let (token, _entry) = sessions
            .create()
            .expect("the dead session makes room at the cap");
        assert_ne!(token, dead);

        let checkpointer = Checkpointer {
            fleet: Arc::new(Mutex::new(Fleet::new(Vec::new(), FleetConfig::default()))),
            sessions: Arc::clone(&sessions),
            stats: Arc::new(IngestStats::default()),
            image: Arc::new(Mutex::new(Vec::new())),
        };
        let dir =
            std::env::temp_dir().join(format!("adassure-dead-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fleet.adckpt");
        checkpointer
            .checkpoint_to(&path)
            .expect("a checkpoint still writes");
        let bytes = std::fs::read(&path).expect("checkpoint on disk");
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
        let (_, seed) = checkpoint::restore_server(Vec::new(), FleetConfig::default(), &bytes)
            .expect("decodes");
        let tokens: Vec<u64> = seed.sessions.iter().map(|e| e.token).collect();
        assert_eq!(tokens, [token], "only the live session is checkpointed");
    }
}
