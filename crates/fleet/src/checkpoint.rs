//! Versioned binary checkpoints of fleet state.
//!
//! A checkpoint is the complete serialized state of a [`Fleet`] — every
//! live stream's checker (sample-and-hold signals, health machines,
//! verdict caches, violations, counters), guardian state machines, slab
//! layout including generation counters and free-list order, the merged
//! retired metrics, and the stream-sequence counter — plus, when written
//! by an ingest server, every producer session's applied-sequence
//! high-water mark and its ring of recent encoded responses. Restoring a
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
//! checkpoint := magic b"ADCKPT", version u8 (=2), endianness u8 (=1),
//!               fleet-section, session-section
//! ```
//!
//! The fleet section stores the catalog's assertion ids (validated on
//! restore — a checkpoint is only meaningful against the same compiled
//! plan), the health config, the shard layout, and per shard the slab
//! slots with their checker/guardian states. The session section stores
//! `(token, expected_seq, durable_seq, recent responses)` per producer
//! session, so a restarted server can resume producers exactly where the
//! checkpoint cut them (see DESIGN.md §13).
//!
//! Each shard record still opens with a `u64` rejected-batch count, from
//! when a full shard queue refused batches. Nothing is refused any more:
//! the word is written as 0 and ignored on restore, which keeps the
//! layout and version byte unchanged.
//!
//! Streams carrying a fault injector are rejected with
//! [`CheckpointError::Unsupported`]: injector RNG state is not
//! serializable, and the wire path never attaches injectors.

use std::sync::Arc;

use adassure_core::codec::{self, read_grid, read_histogram};
use adassure_core::{Assertion, CheckerPlan, HealthConfig};
use adassure_obs::Guard;
use adassure_trace::binary::{put_header, Cur};

use crate::fleet::{Fleet, FleetConfig, FleetState};
use crate::guard::{GuardConfig, GuardState};
use crate::shard::{ShardState, ShardTotals, SlotState, StreamState};

/// Magic bytes opening every checkpoint.
pub const CKPT_MAGIC: &[u8; 6] = b"ADCKPT";
/// Current checkpoint format version. Version 2 added the violation
/// cycle index to the shared checker encoding.
pub const CKPT_VERSION: u8 = 2;

/// Typed checkpoint encode/decode/restore failures.
///
/// The fleet checkpoint shares its error surface (and the checker-state
/// codec) with the sim debug checkpoints; see
/// [`adassure_core::codec`].
pub type CheckpointError = codec::CodecError;

/// One producer session as stored in a checkpoint: its token, the next
/// sequence the server expects, the durable (checkpoint-covered)
/// sequence, and the ring of recently sent encoded responses for resume
/// replay.
#[derive(Debug, Clone)]
pub(crate) struct SessionSeedEntry {
    pub(crate) token: u64,
    pub(crate) expected_seq: u64,
    pub(crate) acks: Vec<(u64, Vec<u8>)>,
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

use codec::{put_count, put_grid, put_histogram, put_u16_str};

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

fn put_guard(out: &mut Vec<u8>, g: &GuardState) {
    out.extend_from_slice(&g.config.confirm_cycles.to_le_bytes());
    out.extend_from_slice(&g.config.recover_cycles.to_le_bytes());
    out.push(g.state.index() as u8);
    out.extend_from_slice(&g.alarm_streak.to_le_bytes());
    out.extend_from_slice(&g.clean_streak.to_le_bytes());
    put_grid(out, &g.grid);
}

/// Encodes a captured fleet state plus producer sessions into checkpoint
/// bytes.
pub(crate) fn encode(state: &FleetState, sessions: &[SessionSeedEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    put_header(&mut out, CKPT_MAGIC, CKPT_VERSION);
    put_count(&mut out, state.assertion_ids.len());
    for id in &state.assertion_ids {
        put_u16_str(&mut out, id);
    }
    out.extend_from_slice(&state.health.stale_after.to_le_bytes());
    out.extend_from_slice(&state.health.quarantine_after.to_le_bytes());
    out.extend_from_slice(&state.health.recover_after.to_le_bytes());
    out.extend_from_slice(&state.next_seq.to_le_bytes());
    out.extend_from_slice(&state.closed_streams.to_le_bytes());
    let retired = serde_json::to_vec(&state.retired).expect("metrics snapshot serializes");
    put_count(&mut out, retired.len());
    out.extend_from_slice(&retired);
    put_count(&mut out, state.shards.len());
    for shard in &state.shards {
        // The retired per-shard rejected-batch count: always 0.
        out.extend_from_slice(&0u64.to_le_bytes());
        put_totals(&mut out, &shard.totals);
        out.extend_from_slice(&shard.cycle_counter.to_le_bytes());
        put_histogram(&mut out, &shard.cycle_ns);
        put_count(&mut out, shard.slots.len());
        for slot in &shard.slots {
            out.extend_from_slice(&slot.gen.to_le_bytes());
            match &slot.stream {
                None => out.push(0),
                Some(stream) => {
                    out.push(1);
                    out.extend_from_slice(&stream.seq.to_le_bytes());
                    out.extend_from_slice(&stream.last_t.to_le_bytes());
                    match &stream.guard {
                        Some(g) => {
                            out.push(1);
                            put_guard(&mut out, g);
                        }
                        None => out.push(0),
                    }
                    codec::put_checker(&mut out, &stream.checker);
                }
            }
        }
        put_count(&mut out, shard.free.len());
        for &f in &shard.free {
            out.extend_from_slice(&f.to_le_bytes());
        }
    }
    put_count(&mut out, sessions.len());
    for session in sessions {
        out.extend_from_slice(&session.token.to_le_bytes());
        out.extend_from_slice(&session.expected_seq.to_le_bytes());
        put_count(&mut out, session.acks.len());
        for (seq, bytes) in &session.acks {
            out.extend_from_slice(&seq.to_le_bytes());
            put_count(&mut out, bytes.len());
            out.extend_from_slice(bytes);
        }
    }
    out
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

fn read_guard(c: &mut Cur<'_>) -> Result<GuardState, CheckpointError> {
    let config = GuardConfig {
        confirm_cycles: c.u32("guard confirm cycles")?,
        recover_cycles: c.u32("guard recover cycles")?,
    };
    let state_idx = c.u8("guard state")? as usize;
    let state = *Guard::ALL
        .get(state_idx)
        .ok_or_else(|| c.bad(format!("invalid guard state index {state_idx}")))?;
    let alarm_streak = c.u32("guard alarm streak")?;
    let clean_streak = c.u32("guard clean streak")?;
    let grid = read_grid(c, "guard grid")?;
    Ok(GuardState {
        config,
        state,
        alarm_streak,
        clean_streak,
        grid,
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
        // The retired rejected-batch count, ignored (see the module docs).
        c.u64("rejected batches")?;
        let totals = read_totals(&mut c)?;
        let cycle_counter = c.u64("cycle counter")?;
        let cycle_ns = read_histogram(&mut c, "cycle histogram")?;
        let slot_count = c.count("slot count")?;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            let gen = c.u32("slot generation")?;
            let stream = if c.bool("slot live flag")? {
                let seq = c.u64("stream seq")?;
                let last_t = c.f64("stream last-t")?;
                let guard = if c.bool("guard flag")? {
                    Some(read_guard(&mut c)?)
                } else {
                    None
                };
                let checker = codec::read_checker(&mut c)?;
                Some(StreamState {
                    seq,
                    last_t,
                    checker,
                    guard,
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
            cycle_ns,
            cycle_counter,
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
        sessions.push(SessionSeedEntry {
            token,
            expected_seq,
            acks,
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
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Unsupported`] when a live stream carries a
    /// fault injector (its RNG state is not serializable).
    pub fn checkpoint(&self) -> Result<Vec<u8>, CheckpointError> {
        let state = self
            .capture_state()
            .map_err(|message| CheckpointError::Unsupported { message })?;
        Ok(encode(&state, &[]))
    }

    /// Rebuilds a fleet from checkpoint bytes, compiling `catalog` and
    /// validating it against the checkpoint's stored assertion ids.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] for corrupt bytes,
    /// [`CheckpointError::Incompatible`] when the catalog, health config
    /// or shard count does not match the checkpoint.
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
pub fn restore_server(
    catalog: impl IntoIterator<Item = Assertion>,
    config: FleetConfig,
    bytes: &[u8],
) -> Result<(Fleet, SessionSeed), CheckpointError> {
    let (state, sessions) = decode(bytes)?;
    let fleet = Fleet::restore_with_state(Arc::new(CheckerPlan::compile(catalog)), config, state)
        .map_err(|message| CheckpointError::Incompatible { message })?;
    Ok((fleet, SessionSeed { sessions }))
}

#[cfg(test)]
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
        let bytes = fleet.checkpoint().expect("checkpoint");
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

    #[test]
    fn restore_rejects_wrong_catalog_and_layout() {
        let mut fleet = Fleet::new(catalog(), config());
        let _ = fleet.open_stream();
        let bytes = fleet.checkpoint().unwrap();
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
        let narrow = FleetConfig {
            shards: 1,
            ..config()
        };
        assert!(matches!(
            Fleet::restore(catalog(), narrow, &bytes),
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
        let bytes = fleet.checkpoint().unwrap();
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
        let mut flipped = bytes.clone();
        flipped[6] = 99; // version byte
        assert!(matches!(
            decode(&flipped),
            Err(CheckpointError::Incompatible { .. })
        ));
    }

    #[test]
    fn injector_streams_are_refused_with_a_typed_error() {
        use crate::shard::StreamConfig;
        use adassure_attacks::{ChannelFaultInjector, FaultKind, FaultSpec, Window};
        let mut fleet = Fleet::new(catalog(), config());
        let spec = FaultSpec::new(FaultKind::Dropout, 0.5, Window::always());
        let _ = fleet.open_stream_with(StreamConfig {
            injector: Some(ChannelFaultInjector::new(spec, 7)),
            guard: None,
        });
        assert!(matches!(
            fleet.checkpoint(),
            Err(CheckpointError::Unsupported { .. })
        ));
    }
}
