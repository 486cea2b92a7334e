//! One shard: a generational slab of stream states, and the apply step
//! that turns one sample batch into checker cycles.
//!
//! The apply step reads a batch in columns (`Columns`): a channel table,
//! and per sample a table index, a time and a value. A wire batch
//! ([`crate::wire::BatchFrame`]) is read in place from the frame bytes;
//! an owned [`crate::SampleBatch`] is indexed first (`IndexedBatch`).
//! Either way each table entry is resolved to a checker slot once per
//! batch, and the samples are fed by slot.
//!
//! A shard owns its streams exclusively. The fleet wraps each shard in a
//! `Mutex`, and every submitter applies its batch under that lock, so two
//! threads never touch the same stream at once. Everything an apply
//! computes is a pure function of the per-stream batch sequence, which is
//! what makes sharded output bit-identical to serial checking (see
//! DESIGN.md §11).

use std::sync::Arc;

use adassure_core::{CheckReport, CheckerPlan, CheckerState, HealthConfig, OnlineChecker};
use adassure_obs::MetricsSnapshot;

use crate::stream::{IndexedBatch, StreamId};

/// A sample batch as the shard's apply loop reads it: the target stream,
/// a table of channel names, and per sample the index of its channel in
/// that table, its time and its value. Every index is below the table's
/// length.
pub(crate) trait Columns {
    /// Target stream.
    fn stream(&self) -> StreamId;
    /// The channel table, in index order.
    fn channels(&self) -> impl Iterator<Item = &str>;
    /// Number of samples.
    fn len(&self) -> usize;
    /// Table index of sample `i`'s channel.
    fn channel(&self, i: usize) -> usize;
    /// Timestamp of sample `i`.
    fn time(&self, i: usize) -> f64;
    /// Value of sample `i`.
    fn value(&self, i: usize) -> f64;
}

impl Columns for IndexedBatch<'_> {
    fn stream(&self) -> StreamId {
        self.batch.stream
    }

    fn channels(&self) -> impl Iterator<Item = &str> {
        self.channels.iter().map(|c| c.as_str())
    }

    fn len(&self) -> usize {
        self.indices.len()
    }

    fn channel(&self, i: usize) -> usize {
        self.indices[i] as usize
    }

    fn time(&self, i: usize) -> f64 {
        self.batch.samples[i].t
    }

    fn value(&self, i: usize) -> f64 {
        self.batch.samples[i].value
    }
}

/// What one stream carries at runtime.
#[derive(Debug)]
struct StreamSlot {
    /// Global open-order sequence number; fleet metrics merge in `seq`
    /// order so the merged snapshot is independent of shard count.
    seq: u64,
    checker: OnlineChecker,
    /// Timestamp of the last closed cycle, the stream's end time at close.
    last_t: f64,
}

#[derive(Debug)]
struct SlabSlot {
    /// Bumped on close; a mismatching [`StreamId::gen`] marks a stale
    /// batch.
    gen: u32,
    state: Option<StreamSlot>,
}

/// A shard's cumulative apply counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardTotals {
    /// Batches applied, stale ones included.
    pub batches: u64,
    /// Samples offered to checkers.
    pub samples: u64,
    /// Cycles closed.
    pub cycles: u64,
    /// New violations raised.
    pub violations: u64,
    /// Cycle groups rejected by `begin_cycle` (non-monotone or non-finite
    /// timestamps); their samples are skipped, and counted here.
    pub bad_cycles: u64,
    /// Batches addressed to a closed generation, dropped.
    pub stale_batches: u64,
}

/// Errors from operations addressed to a specific stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The id's generation does not match the slot (stream already
    /// closed).
    StaleGeneration,
    /// The id's slot does not exist on this shard.
    UnknownSlot,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::StaleGeneration => write!(f, "stream already closed (stale generation)"),
            StreamError::UnknownSlot => write!(f, "no such stream slot on this shard"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Plain-data snapshot of one live stream inside a shard checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct StreamState {
    pub(crate) seq: u64,
    pub(crate) last_t: f64,
    pub(crate) checker: CheckerState,
}

/// Plain-data snapshot of one slab slot (generation plus optional live
/// stream).
#[derive(Debug, Clone)]
pub(crate) struct SlotState {
    pub(crate) gen: u32,
    pub(crate) stream: Option<StreamState>,
}

/// Plain-data snapshot of a whole shard: slab layout (including the free
/// list, whose order determines future slot reuse) and cumulative
/// counters.
#[derive(Debug, Clone)]
pub(crate) struct ShardState {
    pub(crate) slots: Vec<SlotState>,
    pub(crate) free: Vec<u32>,
    pub(crate) totals: ShardTotals,
}

#[derive(Debug)]
pub(crate) struct Shard {
    index: u32,
    slots: Vec<SlabSlot>,
    free: Vec<u32>,
    live: usize,
    /// Cumulative apply counters since construction.
    totals: ShardTotals,
    /// The checker slot of each channel-table entry of the batch being
    /// applied; reused across batches.
    resolved: Vec<Option<u32>>,
}

impl Shard {
    pub(crate) fn new(index: u32) -> Self {
        Shard {
            index,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            totals: ShardTotals::default(),
            resolved: Vec::new(),
        }
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn totals(&self) -> ShardTotals {
        self.totals
    }

    /// Allocates a slot for a new stream and returns its id.
    pub(crate) fn open(
        &mut self,
        seq: u64,
        plan: &Arc<CheckerPlan>,
        health: HealthConfig,
    ) -> StreamId {
        let state = StreamSlot {
            seq,
            checker: OnlineChecker::from_plan(Arc::clone(plan), health),
            last_t: 0.0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].state = Some(state);
                slot
            }
            None => {
                self.slots.push(SlabSlot {
                    gen: 0,
                    state: Some(state),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        StreamId {
            shard: self.index,
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Closes a stream: finalises its checker at the last closed cycle's
    /// timestamp and frees the slot (generation bumped).
    pub(crate) fn close(
        &mut self,
        id: StreamId,
    ) -> Result<(CheckReport, MetricsSnapshot), StreamError> {
        let slab = self
            .slots
            .get_mut(id.slot as usize)
            .ok_or(StreamError::UnknownSlot)?;
        if slab.gen != id.gen || slab.state.is_none() {
            return Err(StreamError::StaleGeneration);
        }
        let state = slab.state.take().expect("checked above");
        slab.gen = slab.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        let (report, snapshot, _) = state.checker.finish_observed(state.last_t);
        Ok((report, snapshot))
    }

    /// Applies one batch to its stream's checker, one cycle per run of
    /// equal timestamps, and adds the counts to the shard totals. A batch
    /// for a closed generation is counted stale and dropped.
    ///
    /// Each channel-table entry is resolved to its checker slot once, so
    /// no per-sample work touches a channel name. A NaN timestamp equals
    /// nothing, so each NaN-stamped sample is a cycle of its own, and
    /// `begin_cycle` rejects it.
    pub(crate) fn apply(&mut self, batch: &impl Columns) {
        let Shard {
            slots,
            totals,
            resolved,
            ..
        } = self;
        totals.batches += 1;
        let id = batch.stream();
        let Some(stream) = slots
            .get_mut(id.slot as usize)
            .filter(|slab| slab.gen == id.gen)
            .and_then(|slab| slab.state.as_mut())
        else {
            totals.stale_batches += 1;
            return;
        };
        let len = batch.len();
        totals.samples += len as u64;
        resolved.clear();
        resolved.extend(batch.channels().map(|name| stream.checker.slot(name)));
        let mut i = 0;
        while i < len {
            let t = batch.time(i);
            // One cycle = the run of equal timestamps starting here.
            let mut end = i + 1;
            while end < len && batch.time(end) == t {
                end += 1;
            }
            if stream.checker.begin_cycle(t).is_err() {
                totals.bad_cycles += 1;
                i = end;
                continue;
            }
            for k in i..end {
                if let Some(slot) = resolved.get(batch.channel(k)).copied().flatten() {
                    stream.checker.update_slot(slot, batch.value(k));
                }
            }
            let new_violations = stream.checker.end_cycle();
            totals.cycles += 1;
            totals.violations += new_violations as u64;
            stream.last_t = t;
            i = end;
        }
    }

    /// Captures the shard's complete state (slab layout, checkers,
    /// counters) as plain data.
    pub(crate) fn save_state(&self) -> ShardState {
        let slots = self
            .slots
            .iter()
            .map(|slab| SlotState {
                gen: slab.gen,
                stream: slab.state.as_ref().map(|stream| StreamState {
                    seq: stream.seq,
                    last_t: stream.last_t,
                    checker: stream.checker.save_state(),
                }),
            })
            .collect();
        ShardState {
            slots,
            free: self.free.clone(),
            totals: self.totals,
        }
    }

    /// Replaces this (freshly constructed, empty) shard's state with a
    /// previously captured [`ShardState`]. Slot indices, generations and
    /// free-list order are restored exactly, so post-restore opens reuse
    /// slots identically to an uninterrupted run.
    pub(crate) fn restore_state(
        &mut self,
        state: ShardState,
        plan: &Arc<CheckerPlan>,
        health: HealthConfig,
    ) -> Result<(), String> {
        debug_assert!(self.slots.is_empty(), "restore into a used shard");
        let mut live = 0;
        let mut slots = Vec::with_capacity(state.slots.len());
        for (index, slot) in state.slots.into_iter().enumerate() {
            let stream = match slot.stream {
                None => None,
                Some(s) => {
                    let checker = OnlineChecker::restore(Arc::clone(plan), health, s.checker)
                        .map_err(|e| format!("shard {} slot {index}: {e}", self.index))?;
                    live += 1;
                    Some(StreamSlot {
                        seq: s.seq,
                        checker,
                        last_t: s.last_t,
                    })
                }
            };
            slots.push(SlabSlot {
                gen: slot.gen,
                state: stream,
            });
        }
        // Each free-list entry must name a distinct vacant slot: an entry
        // naming a live slot, or a repeated one, would hand that slot to
        // two streams.
        let mut listed = vec![false; slots.len()];
        for &slot in &state.free {
            let index = slot as usize;
            let problem = match slots.get(index) {
                None => "is out of range",
                Some(slab) if slab.state.is_some() => "names a live stream",
                Some(_) if listed[index] => "is repeated",
                Some(_) => {
                    listed[index] = true;
                    continue;
                }
            };
            return Err(format!(
                "shard {}: free-list entry {slot} {problem} ({} slots)",
                self.index,
                slots.len()
            ));
        }
        self.slots = slots;
        self.free = state.free;
        self.live = live;
        self.totals = state.totals;
        Ok(())
    }

    /// Appends `(seq, snapshot)` for every live stream. The fleet sorts by
    /// `seq` before merging.
    pub(crate) fn snapshots(&self, out: &mut Vec<(u64, MetricsSnapshot)>) {
        for slab in &self.slots {
            if let Some(stream) = &slab.state {
                out.push((stream.seq, stream.checker.metrics()));
            }
        }
    }
}
