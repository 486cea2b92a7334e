//! Versioned binary checkpoints of fleet state.
//!
//! A checkpoint is the complete serialized state of a [`Fleet`] — every
//! live stream's checker (sample-and-hold signals, health machines,
//! verdict caches, violations, counters), slab layout including
//! generation counters and free-list order, the merged retired metrics,
//! and the stream-sequence counter — plus, when written
//! by an ingest server, every producer session's applied-sequence
//! high-water mark, its ring of recent encoded responses and its handle
//! map (which fleet stream each of its open handles names). Restoring a
//! checkpoint and replaying the post-checkpoint batches yields verdicts
//! **bit-identical** to an uninterrupted run; the proptest in
//! `tests/checkpoint_props.rs` and the chaos soak pin that property.
//!
//! # Format
//!
//! The image is a binary container in the workspace's shared conventions
//! (DESIGN.md, "Binary container conventions"): the common header, every
//! integer and float little-endian, and decoding through the one
//! bounds-checked reader ([`adassure_trace::binary::Cur`]) that returns
//! typed [`CheckpointError`]s instead of panicking on corrupt input.
//!
//! ```text
//! checkpoint := magic b"ADCKPT", version u8 (=4), endianness u8 (=1),
//!               fleet-section, session-section
//! session    := token u64, expected_seq u64,
//!               count u32, (seq u64, len u32, response bytes) x count,
//!               count u32, (handle u64, shard u32, slot u32, gen u32) x count
//! ```
//!
//! The fleet section stores the catalog's assertion ids (validated on
//! restore — a checkpoint is only meaningful against the same compiled
//! plan), the health config, the deterministic part of the retired
//! metrics, the shard layout, and per shard the slab slots with their
//! checker states. The session section is a count and one `session` per
//! producer session, so a restarted server can resume producers exactly
//! where the checkpoint cut them, and a handle keeps naming its stream
//! (see DESIGN.md §13). A handle is the seq of the `OpenStream` frame
//! that opened the stream; restore refuses a map that names a vacant
//! slot, a stale generation or one stream twice, repeats a handle or
//! lists it out of order, or holds a handle the session has not reached.
//!
//! No wall-clock data is stored, so two fleets fed the same batches
//! encode to the same bytes, and a restored fleet re-encodes to the image
//! it came from. A restored fleet's latency histograms start empty.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use adassure_core::codec;
use adassure_core::{Assertion, CheckerPlan, HealthConfig};
use adassure_trace::binary::{put_count, put_header, put_u16_str, Cur};

use crate::fleet::{Fleet, FleetConfig, FleetState};
use crate::shard::{ShardState, ShardTotals, SlotState, StreamState};
use crate::stream::StreamId;
use crate::wire;

/// Magic bytes opening every checkpoint.
pub const CKPT_MAGIC: &[u8; 6] = b"ADCKPT";
/// Current checkpoint format version. Version 2 added the violation
/// cycle index to the shared checker encoding; version 3 dropped every
/// wall-clock histogram and two retired fields (a per-shard
/// rejected-batch count and a per-stream guard-present byte); version 4
/// added each session's handle map.
pub const CKPT_VERSION: u8 = 4;

/// Typed checkpoint encode/decode/restore failures.
///
/// The fleet checkpoint shares its error surface (and the checker-state
/// codec) with the sim debug checkpoints; see
/// [`adassure_core::codec`].
pub type CheckpointError = codec::CodecError;

/// One producer session as stored in a checkpoint: its token, the next
/// sequence the server expects, the ring of recently sent encoded
/// responses for resume replay, and its handle map: per open stream,
/// the seq of the `OpenStream` frame that opened it and the fleet's id
/// for it, in handle order.
#[derive(Debug, Clone)]
pub(crate) struct SessionSeedEntry {
    pub(crate) token: u64,
    pub(crate) expected_seq: u64,
    pub(crate) acks: Vec<(u64, Vec<u8>)>,
    pub(crate) streams: Vec<(u64, StreamId)>,
}

/// The producer sessions recovered from a checkpoint, to be handed to
/// [`crate::IngestServer::spawn_restored`]. Opaque plain data.
#[derive(Debug, Default)]
pub struct SessionSeed {
    pub(crate) sessions: Vec<SessionSeedEntry>,
}

impl SessionSeed {
    /// Number of sessions in the seed.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the seed holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_totals(out: &mut Vec<u8>, s: &ShardTotals) {
    for v in [
        s.batches,
        s.samples,
        s.cycles,
        s.violations,
        s.bad_cycles,
        s.stale_batches,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a captured fleet state plus producer sessions into checkpoint
/// bytes.
pub(crate) fn encode(state: &FleetState, sessions: &[SessionSeedEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    encode_into(&mut out, state, sessions);
    out
}

/// [`encode`] into `out`, replacing its contents and keeping its
/// capacity.
pub(crate) fn encode_into(out: &mut Vec<u8>, state: &FleetState, sessions: &[SessionSeedEntry]) {
    out.clear();
    put_header(out, CKPT_MAGIC, CKPT_VERSION);
    put_count(out, state.assertion_ids.len());
    for id in &state.assertion_ids {
        put_u16_str(out, id);
    }
    out.extend_from_slice(&state.health.stale_after.to_le_bytes());
    out.extend_from_slice(&state.health.quarantine_after.to_le_bytes());
    out.extend_from_slice(&state.health.recover_after.to_le_bytes());
    out.extend_from_slice(&state.next_seq.to_le_bytes());
    out.extend_from_slice(&state.closed_streams.to_le_bytes());
    #[allow(
        clippy::expect_used,
        reason = "ObsSummary's derived Serialize has no map with non-string keys, so serde_json cannot fail"
    )]
    let retired = serde_json::to_vec(&state.retired).expect("metrics summary serializes");
    put_count(out, retired.len());
    out.extend_from_slice(&retired);
    put_count(out, state.shards.len());
    for shard in &state.shards {
        put_totals(out, &shard.totals);
        put_count(out, shard.slots.len());
        for slot in &shard.slots {
            out.extend_from_slice(&slot.gen.to_le_bytes());
            match &slot.stream {
                None => out.push(0),
                Some(stream) => {
                    out.push(1);
                    out.extend_from_slice(&stream.seq.to_le_bytes());
                    out.extend_from_slice(&stream.last_t.to_le_bytes());
                    codec::put_checker(out, &stream.checker);
                }
            }
        }
        put_count(out, shard.free.len());
        for &f in &shard.free {
            out.extend_from_slice(&f.to_le_bytes());
        }
    }
    put_count(out, sessions.len());
    for session in sessions {
        out.extend_from_slice(&session.token.to_le_bytes());
        out.extend_from_slice(&session.expected_seq.to_le_bytes());
        put_count(out, session.acks.len());
        for (seq, bytes) in &session.acks {
            out.extend_from_slice(&seq.to_le_bytes());
            put_count(out, bytes.len());
            out.extend_from_slice(bytes);
        }
        put_count(out, session.streams.len());
        for &(handle, stream) in &session.streams {
            out.extend_from_slice(&handle.to_le_bytes());
            wire::put_stream(out, stream);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn read_totals(c: &mut Cur<'_>) -> Result<ShardTotals, CheckpointError> {
    Ok(ShardTotals {
        batches: c.u64("totals")?,
        samples: c.u64("totals")?,
        cycles: c.u64("totals")?,
        violations: c.u64("totals")?,
        bad_cycles: c.u64("totals")?,
        stale_batches: c.u64("totals")?,
    })
}

/// Decodes checkpoint bytes into the plain-data fleet state plus the
/// producer sessions.
pub(crate) fn decode(bytes: &[u8]) -> Result<(FleetState, Vec<SessionSeedEntry>), CheckpointError> {
    let mut c = Cur::new(bytes);
    let version = c.header(CKPT_MAGIC)?;
    if version != CKPT_VERSION {
        return Err(CheckpointError::incompatible(format!(
            "checkpoint version {version}, this build speaks {CKPT_VERSION}"
        )));
    }
    let id_count = c.count("assertion count")?;
    let mut assertion_ids = Vec::with_capacity(id_count);
    for _ in 0..id_count {
        assertion_ids.push(c.str16("assertion id")?);
    }
    let health = HealthConfig {
        stale_after: c.f64("health stale-after")?,
        quarantine_after: c.u32("health quarantine-after")?,
        recover_after: c.u32("health recover-after")?,
    };
    let next_seq = c.u64("next stream seq")?;
    let closed_streams = c.u64("closed streams")?;
    let retired_len = c.count("retired metrics length")?;
    let retired_bytes = c.take(retired_len, "retired metrics")?;
    let retired = serde_json::from_slice(retired_bytes)
        .map_err(|e| c.bad(format!("retired metrics JSON: {e}")))?;
    let shard_count = c.count("shard count")?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let totals = read_totals(&mut c)?;
        let slot_count = c.count("slot count")?;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            let gen = c.u32("slot generation")?;
            let stream = if c.bool("slot live flag")? {
                let seq = c.u64("stream seq")?;
                let last_t = c.f64("stream last-t")?;
                let checker = codec::read_checker(&mut c)?;
                Some(StreamState {
                    seq,
                    last_t,
                    checker,
                })
            } else {
                None
            };
            slots.push(SlotState { gen, stream });
        }
        let free_count = c.count("free-list count")?;
        let mut free = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            free.push(c.u32("free-list entry")?);
        }
        shards.push(ShardState {
            slots,
            free,
            totals,
        });
    }
    let session_count = c.count("session count")?;
    let mut sessions = Vec::with_capacity(session_count);
    for _ in 0..session_count {
        let token = c.u64("session token")?;
        let expected_seq = c.u64("session expected seq")?;
        let ack_count = c.count("session ack count")?;
        let mut acks = Vec::with_capacity(ack_count);
        for _ in 0..ack_count {
            let seq = c.u64("ack seq")?;
            let len = c.count("ack length")?;
            acks.push((seq, c.take(len, "ack bytes")?.to_vec()));
        }
        let stream_count = c.count("session stream count")?;
        let mut streams = Vec::with_capacity(stream_count);
        for _ in 0..stream_count {
            let handle = c.u64("stream handle")?;
            streams.push((handle, wire::read_stream(&mut c)?));
        }
        sessions.push(SessionSeedEntry {
            token,
            expected_seq,
            acks,
            streams,
        });
    }
    c.expect_end("checkpoint")?;
    Ok((
        FleetState {
            assertion_ids,
            health,
            next_seq,
            closed_streams,
            retired,
            shards,
        },
        sessions,
    ))
}

// ---------------------------------------------------------------------------
// Public fleet-level API
// ---------------------------------------------------------------------------

impl Fleet {
    /// Serializes the fleet's complete state into versioned checkpoint
    /// bytes. Restoring them with
    /// [`Fleet::restore`] (same catalog, same config) and replaying the
    /// post-checkpoint batches yields bit-identical verdicts to an
    /// uninterrupted run.
    pub fn checkpoint(&self) -> Vec<u8> {
        encode(&self.capture_state(), &[])
    }

    /// Rebuilds a fleet from checkpoint bytes, compiling `catalog` and
    /// validating it against the checkpoint's stored assertion ids.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] for corrupt bytes,
    /// [`CheckpointError::Incompatible`] for another format version, when
    /// the catalog, health config or shard count does not match the
    /// checkpoint, when the retired latency histogram has a foreign
    /// layout, when a shard's free list names a live or a repeated slot,
    /// or when live streams share a sequence number, hold one at or above
    /// the next, or sit in a shard other than the one
    /// [`Fleet::open_stream`] would have picked.
    pub fn restore(
        catalog: impl IntoIterator<Item = Assertion>,
        config: FleetConfig,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        Fleet::restore_with_plan(Arc::new(CheckerPlan::compile(catalog)), config, bytes)
    }

    /// [`Fleet::restore`] over an already-compiled plan.
    pub fn restore_with_plan(
        plan: Arc<CheckerPlan>,
        config: FleetConfig,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let (state, _sessions) = decode(bytes)?;
        Fleet::restore_with_state(plan, config, state)
            .map_err(|message| CheckpointError::Incompatible { message })
    }
}

/// Decodes a server checkpoint into a restored [`Fleet`] plus the
/// [`SessionSeed`] to hand to [`crate::IngestServer::spawn_restored`], so
/// reconnecting producers resume exactly at the checkpointed sequence.
///
/// # Errors
///
/// Every error of [`Fleet::restore`], and
/// [`CheckpointError::Incompatible`] when a session's handle map names a
/// vacant slot or a stale generation, names one fleet stream twice
/// (within a session or across sessions), lists a handle twice or out of
/// order, or holds a handle at or above its session's next expected
/// sequence.
pub fn restore_server(
    catalog: impl IntoIterator<Item = Assertion>,
    config: FleetConfig,
    bytes: &[u8],
) -> Result<(Fleet, SessionSeed), CheckpointError> {
    let (state, sessions) = decode(bytes)?;
    check_handle_maps(&state, &sessions)
        .map_err(|message| CheckpointError::Incompatible { message })?;
    let fleet = Fleet::restore_with_state(Arc::new(CheckerPlan::compile(catalog)), config, state)
        .map_err(|message| CheckpointError::Incompatible { message })?;
    Ok((fleet, SessionSeed { sessions }))
}

/// Every mapped handle must name a live stream of `state`, no fleet
/// stream may sit behind two handles, and a handle is the seq of an
/// `OpenStream` frame its session has already applied, listed once, in
/// order.
fn check_handle_maps(state: &FleetState, sessions: &[SessionSeedEntry]) -> Result<(), String> {
    let mut mapped = Vec::new();
    for session in sessions {
        let token = session.token;
        if let Some(pair) = session.streams.windows(2).find(|p| p[0].0 >= p[1].0) {
            return Err(format!(
                "session {token} lists handle {} after handle {}",
                pair[1].0, pair[0].0
            ));
        }
        for &(handle, stream) in &session.streams {
            if handle >= session.expected_seq {
                return Err(format!(
                    "session {token} maps handle {handle}, at or above its next seq {}",
                    session.expected_seq
                ));
            }
            let (shard, slot, gen) = stream.into_raw();
            let slab = state
                .shards
                .get(shard as usize)
                .and_then(|s| s.slots.get(slot as usize))
                .filter(|slab| slab.stream.is_some());
            match slab {
                None => {
                    return Err(format!(
                    "session {token} maps handle {handle} to vacant slot {slot} of shard {shard}"
                ))
                }
                Some(slab) if slab.gen != gen => {
                    return Err(format!(
                        "session {token} maps handle {handle} to generation {gen} of \
                         shard {shard} slot {slot}, which is at generation {}",
                        slab.gen
                    ))
                }
                Some(_) => mapped.push((stream.into_raw(), token, handle)),
            }
        }
    }
    mapped.sort_unstable();
    match mapped.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        Some([(stream, t0, h0), (_, t1, h1)]) => Err(format!(
            "stream {stream:?} sits behind handle {h0} of session {t0} and handle {h1} of \
             session {t1}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::stream::SampleBatch;
    use adassure_core::{Condition, Severity, SignalExpr};

    fn catalog() -> Vec<Assertion> {
        vec![
            Assertion::new(
                "C1",
                "bounded x",
                Severity::Critical,
                Condition::AtMost {
                    expr: SignalExpr::signal("x").abs(),
                    limit: 1.0,
                },
            ),
            Assertion::new(
                "C2",
                "fresh gnss",
                Severity::Warning,
                Condition::Fresh {
                    signal: "gnss".into(),
                    max_age: 0.3,
                },
            ),
        ]
    }

    fn config() -> FleetConfig {
        FleetConfig {
            shards: 2,
            ..FleetConfig::default()
        }
    }

    fn one_shard() -> FleetConfig {
        FleetConfig {
            shards: 1,
            ..config()
        }
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        let mut fleet = Fleet::new(catalog(), config());
        let mut oracle = Fleet::new(catalog(), config());
        let ids: Vec<_> = (0..3).map(|_| fleet.open_stream()).collect();
        let oracle_ids: Vec<_> = (0..3).map(|_| oracle.open_stream()).collect();
        let feed = |fleet: &Fleet, ids: &[crate::StreamId], k: u64| {
            for (s, &id) in ids.iter().enumerate() {
                let mut batch = SampleBatch::new(id);
                let t = 0.1 * k as f64;
                let x = if (k + s as u64).is_multiple_of(5) {
                    2.0
                } else {
                    0.3
                };
                batch.push(t, "x", x);
                if !k.is_multiple_of(3) {
                    batch.push(t, "gnss", 1.0);
                }
                fleet.submit(batch).unwrap();
            }
        };
        for k in 1..=10 {
            feed(&fleet, &ids, k);
            feed(&oracle, &oracle_ids, k);
        }
        let bytes = fleet.checkpoint();
        drop(fleet);
        let mut fleet = Fleet::restore(catalog(), config(), &bytes).expect("restore");
        for k in 11..=20 {
            feed(&fleet, &ids, k);
            feed(&oracle, &oracle_ids, k);
        }
        for (&id, &oid) in ids.iter().zip(&oracle_ids) {
            let (report, _) = fleet.close_stream(id).unwrap();
            let (oreport, _) = oracle.close_stream(oid).unwrap();
            assert_eq!(
                serde_json::to_vec(&report).unwrap(),
                serde_json::to_vec(&oreport).unwrap()
            );
        }
        assert_eq!(
            serde_json::to_vec(&fleet.metrics().summary()).unwrap(),
            serde_json::to_vec(&oracle.metrics().summary()).unwrap()
        );
    }

    /// A 16-stream fleet after 200 cycles of identical input, with four
    /// streams closed so the retired metrics are non-empty.
    fn fed_fleet() -> Fleet {
        let mut fleet = Fleet::new(catalog(), config());
        let ids: Vec<_> = (0..16).map(|_| fleet.open_stream()).collect();
        for k in 1..=200u64 {
            for (s, &id) in ids.iter().enumerate() {
                let mut batch = SampleBatch::new(id);
                let t = 0.1 * k as f64;
                let x = if (k + s as u64).is_multiple_of(7) {
                    2.0
                } else {
                    0.3
                };
                batch.push(t, "x", x);
                if !k.is_multiple_of(4) {
                    batch.push(t, "gnss", 1.0);
                }
                fleet.submit(batch).unwrap();
            }
        }
        for &id in &ids[..4] {
            fleet.close_stream(id).unwrap();
        }
        fleet
    }

    #[test]
    fn images_are_a_function_of_fleet_state() {
        let image = fed_fleet().checkpoint();
        assert_eq!(
            fed_fleet().checkpoint(),
            image,
            "two fleets fed the same batches must encode identically"
        );
        let restored = Fleet::restore(catalog(), config(), &image).expect("restore");
        assert_eq!(restored.checkpoint(), image, "restore then re-encode");
    }

    #[test]
    fn restore_rejects_a_retired_histogram_of_another_layout() {
        let fleet = fed_fleet();
        let mut state = fleet.capture_state();
        state.retired.detection_latency_s = adassure_obs::Histogram::new(1e-3, 27);
        let bytes = encode(&state, &[]);
        assert!(decode(&bytes).is_ok(), "the image itself is decodable");
        // Restoring it would make every later `Fleet::metrics` panic on
        // merging histograms of different layouts.
        assert!(matches!(
            Fleet::restore(catalog(), config(), &bytes),
            Err(CheckpointError::Incompatible { .. })
        ));
        assert!(Fleet::restore(catalog(), config(), &fleet.checkpoint()).is_ok());
    }

    #[test]
    fn restore_rejects_stream_seqs_that_open_stream_never_hands_out() {
        // Seqs 0..16 opened over two shards and 0..4 closed, so the next
        // seq is 16 and shard 0 holds the live even seqs.
        let fleet = fed_fleet();
        let state = fleet.capture_state();
        let live: Vec<u64> = state.shards[0]
            .slots
            .iter()
            .filter_map(|slot| slot.stream.as_ref().map(|s| s.seq))
            .collect();
        assert_eq!(state.next_seq, 16);
        assert_eq!(live, [4, 6, 8, 10, 12, 14]);
        // The image with shard 0's second live stream (seq 6) renumbered.
        let image_with = |seq: u64| {
            let mut state = state.clone();
            let mut live = state.shards[0]
                .slots
                .iter_mut()
                .filter_map(|slot| slot.stream.as_mut());
            live.nth(1).expect("live stream").seq = seq;
            encode(&state, &[])
        };
        for (what, bytes) in [
            ("shared seq", image_with(4)),
            ("seq at next_seq", image_with(16)),
            ("seq in the wrong shard", image_with(1)),
        ] {
            assert!(decode(&bytes).is_ok(), "{what}: the image is decodable");
            assert!(
                matches!(
                    Fleet::restore(catalog(), config(), &bytes),
                    Err(CheckpointError::Incompatible { .. })
                ),
                "{what}"
            );
        }
        assert!(Fleet::restore(catalog(), config(), &fleet.checkpoint()).is_ok());
    }

    #[test]
    fn restore_rejects_wrong_catalog_and_layout() {
        let mut fleet = Fleet::new(catalog(), config());
        let _ = fleet.open_stream();
        let bytes = fleet.checkpoint();
        let other = vec![Assertion::new(
            "Z9",
            "different",
            Severity::Info,
            Condition::AtMost {
                expr: SignalExpr::signal("z"),
                limit: 0.0,
            },
        )];
        assert!(matches!(
            Fleet::restore(other, config(), &bytes),
            Err(CheckpointError::Incompatible { .. })
        ));
        assert!(matches!(
            Fleet::restore(catalog(), one_shard(), &bytes),
            Err(CheckpointError::Incompatible { .. })
        ));
    }

    #[test]
    fn corrupt_bytes_are_typed_not_panics() {
        let mut fleet = Fleet::new(catalog(), config());
        let id = fleet.open_stream();
        for k in 0..8u32 {
            let mut batch = SampleBatch::new(id);
            batch.push(0.1 * f64::from(k), "x", f64::from(k % 3));
            fleet.submit(batch).unwrap();
        }
        let bytes = fleet.checkpoint();
        assert!(matches!(
            decode(b"NOTACKPT"),
            Err(CheckpointError::Malformed { .. })
        ));
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode(&bytes[..cut]),
                    Err(CheckpointError::Malformed { .. })
                ),
                "truncation at {cut} must be malformed"
            );
        }
        // A flipped byte anywhere either still decodes or fails typed.
        let stride = if bytes.len() > 64 << 10 { 7 } else { 1 };
        for pos in (0..bytes.len()).step_by(stride) {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0xFF;
            assert!(
                matches!(
                    decode(&flipped),
                    Ok(_)
                        | Err(CheckpointError::Malformed { .. }
                            | CheckpointError::Incompatible { .. })
                ),
                "byte flip at {pos}"
            );
        }
        // Version 2 carried wall-clock histograms and retired fields.
        for version in [2, 99] {
            let mut flipped = bytes.clone();
            flipped[6] = version;
            assert!(matches!(
                decode(&flipped),
                Err(CheckpointError::Incompatible { .. })
            ));
        }
    }

    /// A one-shard image whose free list is `free` (patched in place),
    /// with streams opened at slots `0..opened` and the first `closed`
    /// of them closed again.
    fn image_with_free_list(opened: usize, closed: usize, free: &[u32]) -> Vec<u8> {
        let mut fleet = Fleet::new(catalog(), one_shard());
        let ids: Vec<_> = (0..opened).map(|_| fleet.open_stream()).collect();
        for &id in &ids[..closed] {
            fleet.close_stream(id).unwrap();
        }
        let mut bytes = fleet.checkpoint();
        // Tail: free count u32, the entries, then the session count u32.
        assert_eq!(free.len(), closed, "patch keeps the layout");
        let at = bytes.len() - 4 - 4 * free.len();
        for (k, &slot) in free.iter().enumerate() {
            bytes[at + 4 * k..at + 4 * k + 4].copy_from_slice(&slot.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn restore_rejects_a_free_list_that_hands_out_a_slot_twice() {
        // Unpatched, the images restore: the free lists are consistent.
        for (opened, closed, free) in [(2, 1, &[0][..]), (3, 2, &[0, 1][..])] {
            let bytes = image_with_free_list(opened, closed, free);
            assert!(Fleet::restore(catalog(), one_shard(), &bytes).is_ok());
        }
        // Slot 1 is live: listing it as free would let the next open
        // replace its checker under the live stream's own id.
        let live = image_with_free_list(2, 1, &[1]);
        // Slot 0 listed twice would be handed to two streams.
        let repeated = image_with_free_list(3, 2, &[0, 0]);
        for bytes in [live, repeated] {
            assert!(decode(&bytes).is_ok(), "the image itself is decodable");
            assert!(matches!(
                Fleet::restore(catalog(), one_shard(), &bytes),
                Err(CheckpointError::Incompatible { .. })
            ));
        }
    }

    /// The live streams of `state`, as the fleet names them.
    fn live_ids(state: &FleetState) -> Vec<StreamId> {
        let mut ids = Vec::new();
        for (shard, s) in state.shards.iter().enumerate() {
            for (slot, slab) in s.slots.iter().enumerate() {
                if slab.stream.is_some() {
                    ids.push(StreamId::from_raw(shard as u32, slot as u32, slab.gen));
                }
            }
        }
        ids
    }

    fn session(token: u64, expected_seq: u64, streams: Vec<(u64, StreamId)>) -> SessionSeedEntry {
        SessionSeedEntry {
            token,
            expected_seq,
            acks: Vec::new(),
            streams,
        }
    }

    /// A server image of [`fed_fleet`] with two sessions whose handle
    /// maps hold three of its live streams; `edit` changes them first.
    fn server_image(edit: impl FnOnce(&[StreamId], &mut [SessionSeedEntry])) -> Vec<u8> {
        let state = fed_fleet().capture_state();
        let ids = live_ids(&state);
        let mut sessions = vec![
            session(1, 9, vec![(2, ids[0]), (5, ids[1])]),
            session(2, 4, vec![(3, ids[2])]),
        ];
        edit(&ids, &mut sessions);
        encode(&state, &sessions)
    }

    #[test]
    fn a_valid_handle_map_restores_and_re_encodes_to_its_image() {
        let image = server_image(|_, _| {});
        let (fleet, seed) = restore_server(catalog(), config(), &image).expect("restores");
        assert_eq!(seed.len(), 2);
        assert_eq!(seed.sessions[0].streams.len(), 2);
        assert_eq!(encode(&fleet.capture_state(), &seed.sessions), image);
    }

    #[test]
    fn restore_refuses_a_repeated_or_unordered_handle() {
        refused(
            "lists handle 2 after handle 2",
            &server_image(|_, s| s[0].streams[1].0 = 2),
        );
        refused(
            "lists handle 2 after handle 5",
            &server_image(|_, s| s[0].streams.swap(0, 1)),
        );
    }

    /// Fails unless `image` decodes but restore refuses it with an
    /// `Incompatible` error whose message holds `why`.
    fn refused(why: &str, image: &[u8]) {
        assert!(
            decode(image).is_ok(),
            "{why}: the image itself is decodable"
        );
        match restore_server(catalog(), config(), image) {
            Err(CheckpointError::Incompatible { message }) if message.contains(why) => {}
            other => panic!("{why}: got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn restore_refuses_a_handle_on_a_vacant_slot() {
        // `fed_fleet` closed the streams at slot 0 and 1 of both shards.
        let state = fed_fleet().capture_state();
        let vacant = &state.shards[1].slots[0];
        assert!(vacant.stream.is_none());
        let gen = vacant.gen;
        refused(
            "vacant slot",
            &server_image(|_, s| s[1].streams[0].1 = StreamId::from_raw(1, 0, gen)),
        );
        refused(
            "vacant slot",
            &server_image(|_, s| s[1].streams[0].1 = StreamId::from_raw(1, 999, 0)),
        );
        refused(
            "vacant slot",
            &server_image(|_, s| s[1].streams[0].1 = StreamId::from_raw(7, 2, 0)),
        );
    }

    #[test]
    fn restore_refuses_a_handle_on_a_stale_generation() {
        refused(
            "which is at generation",
            &server_image(|ids, s| {
                let (shard, slot, gen) = ids[2].into_raw();
                s[1].streams[0].1 = StreamId::from_raw(shard, slot, gen.wrapping_sub(1));
            }),
        );
    }

    #[test]
    fn restore_refuses_one_stream_behind_two_handles_in_one_session() {
        refused(
            "sits behind",
            &server_image(|ids, s| s[0].streams[1].1 = ids[0]),
        );
    }

    #[test]
    fn restore_refuses_one_stream_behind_two_handles_across_sessions() {
        refused(
            "sits behind",
            &server_image(|ids, s| s[1].streams[0].1 = ids[0]),
        );
    }

    #[test]
    fn restore_refuses_a_handle_the_session_has_not_reached() {
        refused("at or above", &server_image(|_, s| s[1].streams[0].0 = 4));
        refused("at or above", &server_image(|_, s| s[0].streams[1].0 = 40));
    }
}
