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

/// Connection handshake progression: bare/new-session hello goes
/// straight to `Ready`; a session-bearing hello must `Resume` first.
#[derive(Debug, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    AwaitResume,
    Ready,
}

/// Per-connection protocol state.
struct Conn {
    phase: Phase,
    token: u64,
    entry: Option<Arc<Mutex<SessionEntry>>>,
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
        token: 0,
        entry: None,
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
    if let Some(entry) = &state.entry {
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
            if state.phase != Phase::AwaitHello || version != VERSION {
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
                state.token = token;
                state.entry = Some(entry);
                state.phase = Phase::Ready;
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
                state.token = session;
                state.entry = Some(entry);
                state.phase = Phase::AwaitResume;
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
            if state.phase != Phase::AwaitResume || session != state.token {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                encode_nack(out, 0, NackReason::Malformed, 0);
                return Step::Close;
            }
            let entry = state.entry.clone().expect("attached in AwaitResume");
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
            state.phase = Phase::Ready;
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
        _ if state.phase != Phase::Ready => {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            encode_nack(out, 0, NackReason::Malformed, 0);
            Step::Close
        }
        FrameRef::Other(Frame::Ack { .. } | Frame::Nack { .. }) => {
            // Server-to-client frames arriving at the server are a
            // protocol violation.
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            encode_nack(out, 0, NackReason::Malformed, 0);
            Step::Close
        }
        windowed => {
            let entry = state.entry.clone().expect("attached when Ready");
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
    /// The server sent bytes that do not decode.
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

/// Lifetime counters for one producer connection (carried across
/// resumes).
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

/// Everything a dead producer needs to resume its session on a fresh
/// transport: token, sequence marks, retained frames and lifetime stats.
/// Obtained from [`IngestProducer::into_recovery`], consumed by
/// [`IngestProducer::resume`]. Opaque plain data — no I/O handles.
#[derive(Debug)]
pub struct RecoveryState {
    session: u64,
    next_seq: u64,
    acked_seq: u64,
    durable_seq: u64,
    /// Retained frames in ascending sequence order: replay retention
    /// (acknowledged) followed by the unacknowledged window.
    frames: VecDeque<InFlight>,
    stats: ProducerStats,
}

impl RecoveryState {
    /// The session token to resume.
    pub fn session(&self) -> u64 {
        self.session
    }
}

/// The client side of the ingest protocol: frame encoding with buffer
/// reuse and a bounded in-flight window. A saturated server simply
/// answers later, so the window fills and [`IngestProducer::submit`]
/// blocks.
///
/// Works over any `Read + Write` transport — `TcpStream`, `UnixStream`,
/// or an in-memory pipe in tests. The transport must be in blocking
/// mode.
#[derive(Debug)]
pub struct IngestProducer<C: Read + Write> {
    conn: C,
    decoder: FrameDecoder,
    config: ProducerConfig,
    /// Encoded-but-unacknowledged frames, oldest first.
    window: VecDeque<InFlight>,
    /// Acknowledged frames retained for crash-resume replay
    /// ([`ProducerConfig::retain_for_replay`]-bounded), oldest first.
    settled: VecDeque<InFlight>,
    /// Recycled frame buffers ([`ProducerConfig::window`]-bounded).
    spare: Vec<Vec<u8>>,
    /// Outbound coalescing buffer, flushed before every read.
    obuf: Vec<u8>,
    rbuf: Vec<u8>,
    session: u64,
    next_seq: u64,
    /// Highest acknowledged sequence.
    acked_seq: u64,
    /// Highest server-durable (checkpoint-covered) sequence seen.
    durable_seq: u64,
    stats: ProducerStats,
    /// Response bodies captured for sequence numbers waiters ask for.
    /// More than one can be pending while a resume replays responses.
    captured: Vec<(u64, AckBody)>,
    /// Highest sequence ever answered by the server. Responses arrive in
    /// sequence order, so everything at or below it is settled — the
    /// resume path re-applies this after re-installing retained frames,
    /// because replayed responses can land in the same read chunk as the
    /// `Resumed` ack, before the frames are back in the window.
    settle_mark: u64,
}

impl<C: Read + Write> IngestProducer<C> {
    fn empty(conn: C, config: ProducerConfig) -> Self {
        IngestProducer {
            conn,
            decoder: FrameDecoder::new(config.max_frame_len),
            config,
            window: VecDeque::new(),
            settled: VecDeque::new(),
            spare: Vec::new(),
            obuf: Vec::with_capacity(256 * 1024),
            rbuf: vec![0u8; 64 * 1024],
            session: 0,
            next_seq: 1,
            acked_seq: 0,
            durable_seq: 0,
            stats: ProducerStats::default(),
            captured: Vec::new(),
            settle_mark: 0,
        }
    }

    /// Performs the handshake on `conn` and returns the ready producer.
    ///
    /// # Errors
    ///
    /// [`ProducerError`] when the transport fails or the server refuses
    /// the protocol version.
    pub fn connect(conn: C, config: ProducerConfig) -> Result<Self, ProducerError> {
        let mut producer = IngestProducer::empty(conn, config);
        encode_hello(&mut producer.obuf);
        match producer.wait_ack(0)? {
            AckBody::Hello { session, .. } => {
                producer.session = session;
                Ok(producer)
            }
            other => Err(ProducerError::Protocol(format!(
                "expected hello ack, got {other:?}"
            ))),
        }
    }

    /// Resumes a session on a fresh transport: handshakes with the
    /// retained session token, asks the server for its next expected
    /// sequence, re-sends the retained frames the server lost and awaits
    /// replayed responses for frames it already applied. On failure the
    /// recovery state comes back for another attempt.
    ///
    /// # Errors
    ///
    /// The pair of the intact [`RecoveryState`] and the typed failure:
    /// transport errors are retryable; [`ProducerError::Rejected`] with
    /// [`NackReason::UnknownSession`] / [`NackReason::ResumeGap`] and
    /// [`ProducerError::ReplayExhausted`] are terminal for the session.
    #[allow(clippy::result_large_err)]
    pub fn resume(
        conn: C,
        config: ProducerConfig,
        recovery: RecoveryState,
    ) -> Result<Self, (RecoveryState, Box<ProducerError>)> {
        let mut p = IngestProducer::empty(conn, config);
        p.session = recovery.session;
        p.next_seq = recovery.next_seq;
        p.acked_seq = recovery.acked_seq;
        p.durable_seq = recovery.durable_seq;
        p.stats = recovery.stats;
        p.settle_mark = recovery.acked_seq;

        let handshake = (|p: &mut Self| -> Result<u64, ProducerError> {
            encode_hello_session(&mut p.obuf, p.session);
            match p.wait_ack(0)? {
                AckBody::Hello { session, .. } if session == p.session => {}
                other => {
                    return Err(ProducerError::Protocol(format!(
                        "expected hello ack for session {}, got {other:?}",
                        p.session
                    )))
                }
            }
            encode_resume(&mut p.obuf, p.session, p.acked_seq);
            match p.wait_ack(0)? {
                AckBody::Resumed { next_seq } => Ok(next_seq),
                other => Err(ProducerError::Protocol(format!(
                    "expected resumed ack, got {other:?}"
                ))),
            }
        })(&mut p);
        let next = match handshake {
            Ok(next) => next,
            Err(e) => {
                let mut recovery = recovery;
                recovery.stats = p.stats;
                return Err((recovery, Box::new(e)));
            }
        };
        if next > p.next_seq {
            return Err((
                recovery,
                Box::new(ProducerError::Protocol(format!(
                    "server expects frame {next} but only {} were ever sent",
                    p.next_seq - 1
                ))),
            ));
        }
        let floor = recovery
            .frames
            .front()
            .map_or(p.next_seq, |f| f.seq.min(p.next_seq));
        if next < floor {
            return Err((
                recovery,
                Box::new(ProducerError::ReplayExhausted {
                    needed: next,
                    floor,
                }),
            ));
        }
        // Partition the retained frames. Frames the server still has
        // applied (below `next` and acknowledged) stay settled; frames
        // from `next` on are re-sent; acknowledged-here-but-unapplied
        // frames cannot exist (`next` never exceeds durable+window
        // bounds checked above). Unacknowledged frames below `next` stay
        // windowed without re-send — the server replays their responses
        // right after the resume ack.
        let mut recovery = recovery;
        for frame in recovery.frames.drain(..) {
            if frame.seq >= next {
                p.obuf.extend_from_slice(&frame.bytes);
                p.stats.replayed_frames += 1;
                p.window.push_back(frame);
            } else if frame.seq <= p.acked_seq {
                p.settled.push_back(frame);
            } else {
                p.window.push_back(frame);
            }
        }
        // Replayed responses may already have been read alongside the
        // Resumed ack, before the frames above were re-installed; settle
        // up to the highest answered sequence so those frames don't wait
        // for acks that already arrived.
        let mark = p.settle_mark;
        p.settle(mark);
        p.stats.reconnects += 1;
        Ok(p)
    }

    /// Tears the producer down into plain-data [`RecoveryState`] for a
    /// later [`IngestProducer::resume`] on a fresh transport. The dead
    /// transport is dropped.
    pub fn into_recovery(self) -> RecoveryState {
        let mut frames = self.settled;
        frames.extend(self.window);
        RecoveryState {
            session: self.session,
            next_seq: self.next_seq,
            acked_seq: self.acked_seq,
            durable_seq: self.durable_seq,
            frames,
            stats: self.stats,
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ProducerStats {
        self.stats
    }

    /// The session token the server assigned at handshake.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The next sequence number this producer will assign. Exposed so a
    /// reconnect wrapper can tell whether a failed send was windowed
    /// (sequence consumed — the resume replays it) or not (safe to
    /// re-issue).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Queues an `OpenStream` frame and returns the stream's wire handle,
    /// [`StreamId::from_open_seq`] of the frame's sequence number. Like
    /// [`IngestProducer::submit`] it blocks only when the window is full:
    /// batches and the close may name the handle at once, because the
    /// server applies the open before any later frame.
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
    /// rejection.
    pub fn submit(&mut self, batch: &SampleBatch) -> Result<(), ProducerError> {
        self.send_frame(|out, seq| encode_sample_batch(out, seq, batch).map_err(Into::into))?;
        Ok(())
    }

    /// Closes `stream` and returns its final
    /// [`adassure_core::CheckReport`] as JSON bytes.
    ///
    /// # Errors
    ///
    /// [`ProducerError::Rejected`] with [`NackReason::StaleGeneration`] /
    /// [`NackReason::UnknownSlot`] for an already-closed or foreign id.
    pub fn close_stream(&mut self, stream: StreamId) -> Result<Vec<u8>, ProducerError> {
        let seq = self.send_frame(|out, seq| {
            encode_close_stream(out, seq, stream);
            Ok(())
        })?;
        match self.wait_ack(seq)? {
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
        let seq = self.send_frame(|out, seq| {
            encode_get_metrics(out, seq);
            Ok(())
        })?;
        match self.wait_ack(seq)? {
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
        while !self.window.is_empty() {
            self.pump()?;
        }
        self.flush_obuf()?;
        Ok(())
    }

    /// Waits for and returns the response to `seq`. Exposed for resume
    /// wrappers that need to re-await a windowed frame's replayed
    /// response after reconnecting.
    ///
    /// # Errors
    ///
    /// [`ProducerError`] on transport failure or rejection.
    pub fn wait_response(&mut self, seq: u64) -> Result<AckBody, ProducerError> {
        self.wait_ack(seq)
    }

    /// Returns the transport and final stats, consuming the producer.
    pub fn into_parts(self) -> (C, ProducerStats) {
        (self.conn, self.stats)
    }

    /// Encodes one frame (via `encode`), windows it and queues its bytes.
    /// The sequence number is consumed only on successful encode, so an
    /// encode failure leaves the producer/server sequences aligned.
    fn send_frame(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>, u64) -> Result<(), ProducerError>,
    ) -> Result<u64, ProducerError> {
        while self.window.len() >= self.config.window {
            self.pump()?;
        }
        let seq = self.next_seq;
        let mut bytes = self.spare.pop().unwrap_or_default();
        bytes.clear();
        if let Err(e) = encode(&mut bytes, seq) {
            self.recycle(bytes);
            return Err(e);
        }
        self.next_seq += 1;
        self.obuf.extend_from_slice(&bytes);
        self.window.push_back(InFlight { seq, bytes });
        if self.obuf.len() >= 128 * 1024 {
            self.flush_obuf()?;
        }
        Ok(seq)
    }

    /// Blocks until the response for `seq` arrives and returns its body.
    fn wait_ack(&mut self, seq: u64) -> Result<AckBody, ProducerError> {
        loop {
            if let Some(i) = self.captured.iter().position(|(got, _)| *got == seq) {
                return Ok(self.captured.swap_remove(i).1);
            }
            if seq > 0
                && seq < self.next_seq
                && !self.window.iter().any(|f| f.seq == seq)
                && !self.settled.iter().any(|f| f.seq == seq)
            {
                // Already acknowledged without capture — protocol bug on
                // our side rather than the server's.
                return Err(ProducerError::Protocol(format!(
                    "response for frame {seq} was consumed without a waiter"
                )));
            }
            self.pump()?;
        }
    }

    fn flush_obuf(&mut self) -> Result<(), ProducerError> {
        if !self.obuf.is_empty() {
            self.conn.write_all(&self.obuf)?;
            self.conn.flush()?;
            self.obuf.clear();
        }
        Ok(())
    }

    /// Flushes outbound bytes, reads one chunk of responses and applies
    /// them to the window.
    fn pump(&mut self) -> Result<(), ProducerError> {
        self.flush_obuf()?;
        while let Some(frame) = self.decoder.next_frame()? {
            self.apply_response(frame)?;
        }
        let n = self.conn.read(&mut self.rbuf)?;
        if n == 0 {
            return Err(ProducerError::Disconnected);
        }
        self.decoder.feed(&self.rbuf[..n]);
        while let Some(frame) = self.decoder.next_frame()? {
            self.apply_response(frame)?;
        }
        Ok(())
    }

    fn apply_response(&mut self, frame: Frame) -> Result<(), ProducerError> {
        match frame {
            Frame::Ack { seq, body } => {
                if seq > 0 {
                    self.settle_mark = self.settle_mark.max(seq);
                }
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
                if seq > 0 {
                    self.settle_mark = self.settle_mark.max(seq);
                }
                self.settle(seq);
                Err(ProducerError::Rejected { seq, reason })
            }
            other => Err(ProducerError::Protocol(format!(
                "unexpected server frame {other:?}"
            ))),
        }
    }

    /// Retires `seq` (and anything older) from the window into the
    /// replay retention (or straight to the recycle pile when retention
    /// is off), then trims retention by the durable sequence and the
    /// cap.
    fn settle(&mut self, seq: u64) {
        while let Some(front) = self.window.front() {
            if front.seq > seq {
                break;
            }
            let retired = self.window.pop_front().expect("front checked");
            self.acked_seq = self.acked_seq.max(retired.seq);
            if self.config.retain_for_replay > 0 {
                self.settled.push_back(retired);
            } else {
                self.recycle(retired.bytes);
            }
        }
        while let Some(front) = self.settled.front() {
            if front.seq > self.durable_seq && self.settled.len() <= self.config.retain_for_replay {
                break;
            }
            let evicted = self.settled.pop_front().expect("front checked");
            self.recycle(evicted.bytes);
        }
    }

    fn recycle(&mut self, bytes: Vec<u8>) {
        if self.spare.len() < self.config.window {
            self.spare.push(bytes);
        }
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
        assert!(producer.captured.is_empty(), "no open ack is kept");
        let stats = server.shutdown();
        assert_eq!((stats.opens, stats.batches, stats.closes), (3, 3, 3));
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
