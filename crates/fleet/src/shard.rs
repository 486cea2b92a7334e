//! One shard: a generational slab of stream states, and the apply step
//! that turns one sample batch into checker cycles.
//!
//! A shard owns its streams exclusively. The fleet wraps each shard in a
//! `Mutex`, and every submitter applies its batch under that lock, so two
//! threads never touch the same stream at once. Everything an apply
//! computes is a pure function of the per-stream batch sequence, which is
//! what makes sharded output bit-identical to serial checking (see
//! DESIGN.md §11).

use std::sync::Arc;
use std::time::Instant;

use adassure_attacks::ChannelFaultInjector;
use adassure_core::{
    CheckReport, CheckerPlan, CheckerState, HealthConfig, OnlineChecker, Severity,
};
use adassure_obs::{Histogram, MetricsSnapshot};

use crate::guard::{GuardState, StreamGuard};
use crate::stream::{SampleBatch, StreamId};

/// Sample the per-cycle wall-clock latency every `TIMING_MASK + 1` cycles
/// — dense enough for soak p50/p99, cheap enough for the hot path.
const TIMING_MASK: u64 = 7;

/// Per-stream ingestion options (fault injection, guardian).
#[derive(Debug, Default)]
pub struct StreamConfig {
    /// A deterministic telemetry-fault injector applied to every sample
    /// before it reaches the checker (`None` = clean link).
    pub injector: Option<ChannelFaultInjector>,
    /// A per-stream guardian fed each cycle's critical-alarm status
    /// (`None` = no guardian, no guard transitions in the metrics).
    pub guard: Option<StreamGuard>,
}

/// What one stream carries at runtime.
#[derive(Debug)]
struct StreamSlot {
    /// Global open-order sequence number; fleet metrics merge in `seq`
    /// order so the merged snapshot is independent of shard count.
    seq: u64,
    checker: OnlineChecker,
    injector: Option<ChannelFaultInjector>,
    guard: Option<StreamGuard>,
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
    /// Samples offered to checkers (before fault injection).
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
    pub(crate) guard: Option<GuardState>,
}

/// Plain-data snapshot of one slab slot (generation plus optional live
/// stream).
#[derive(Debug, Clone)]
pub(crate) struct SlotState {
    pub(crate) gen: u32,
    pub(crate) stream: Option<StreamState>,
}

/// Plain-data snapshot of a whole shard: slab layout (including the free
/// list, whose order determines future slot reuse), cumulative counters,
/// and the timing histogram.
#[derive(Debug, Clone)]
pub(crate) struct ShardState {
    pub(crate) slots: Vec<SlotState>,
    pub(crate) free: Vec<u32>,
    pub(crate) totals: ShardTotals,
    pub(crate) cycle_ns: Histogram,
    pub(crate) cycle_counter: u64,
}

#[derive(Debug)]
pub(crate) struct Shard {
    index: u32,
    slots: Vec<SlabSlot>,
    free: Vec<u32>,
    live: usize,
    /// Cumulative apply counters since construction.
    totals: ShardTotals,
    /// Sampled wall-clock per-cycle latency (see [`TIMING_MASK`]).
    cycle_ns: Histogram,
    /// Cycles closed on this shard, for the timing stride.
    cycle_counter: u64,
}

impl Shard {
    pub(crate) fn new(index: u32) -> Self {
        Shard {
            index,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            totals: ShardTotals::default(),
            cycle_ns: Histogram::nanos(),
            cycle_counter: 0,
        }
    }

    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn totals(&self) -> ShardTotals {
        self.totals
    }

    pub(crate) fn cycle_ns(&self) -> &Histogram {
        &self.cycle_ns
    }

    /// Allocates a slot for a new stream and returns its id.
    pub(crate) fn open(
        &mut self,
        seq: u64,
        plan: &Arc<CheckerPlan>,
        health: HealthConfig,
        config: StreamConfig,
    ) -> StreamId {
        let state = StreamSlot {
            seq,
            checker: OnlineChecker::from_plan(Arc::clone(plan), health),
            injector: config.injector,
            guard: config.guard,
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
        let end = state.last_t;
        let (report, mut snapshot, _) = state.checker.finish_observed(end);
        if let Some(guard) = &state.guard {
            snapshot.guard_transitions = guard.transitions();
        }
        Ok((report, snapshot))
    }

    /// Applies one batch to its stream's checker, one cycle per run of
    /// equal timestamps, and adds the counts to the shard totals. A batch
    /// for a closed generation is counted stale and dropped.
    pub(crate) fn apply(&mut self, batch: &SampleBatch) {
        let Shard {
            slots,
            totals,
            cycle_ns,
            cycle_counter,
            ..
        } = self;
        totals.batches += 1;
        let Some(stream) = slots
            .get_mut(batch.stream.slot as usize)
            .filter(|slab| slab.gen == batch.stream.gen)
            .and_then(|slab| slab.state.as_mut())
        else {
            totals.stale_batches += 1;
            return;
        };
        let samples = &batch.samples;
        totals.samples += samples.len() as u64;
        let mut i = 0;
        while i < samples.len() {
            let t = samples[i].t;
            // One cycle = the run of equal timestamps starting here.
            let mut end = i;
            while end < samples.len() && samples[end].t == t {
                end += 1;
            }
            if stream.checker.begin_cycle(t).is_err() {
                totals.bad_cycles += 1;
                i = end;
                continue;
            }
            let timed = (*cycle_counter & TIMING_MASK == 0).then(Instant::now);
            for sample in &samples[i..end] {
                match &mut stream.injector {
                    Some(injector) => {
                        let delivery = injector.apply(sample.channel.as_str(), t, sample.value);
                        for &value in delivery.as_slice() {
                            stream.checker.update(sample.channel.clone(), value);
                        }
                    }
                    None => stream.checker.update(sample.channel.clone(), sample.value),
                }
            }
            let new_violations = stream.checker.end_cycle();
            totals.cycles += 1;
            totals.violations += new_violations as u64;
            stream.last_t = t;
            if let Some(guard) = &mut stream.guard {
                let alarmed = stream
                    .checker
                    .open_episode_onset(Severity::Critical)
                    .is_some();
                guard.observe(alarmed);
            }
            if let Some(t0) = timed {
                cycle_ns.record(t0.elapsed().as_nanos() as f64);
            }
            *cycle_counter += 1;
            i = end;
        }
    }

    /// Captures the shard's complete state (slab layout, checkers,
    /// guardians, counters) as plain data.
    ///
    /// # Errors
    ///
    /// Streams carrying a [`ChannelFaultInjector`] are rejected with a
    /// description: injector RNG state is not serializable, so
    /// checkpointing is only supported for clean-link streams (the wire
    /// path never attaches injectors).
    pub(crate) fn save_state(&self) -> Result<ShardState, String> {
        let mut slots = Vec::with_capacity(self.slots.len());
        for (index, slab) in self.slots.iter().enumerate() {
            let stream = match &slab.state {
                None => None,
                Some(stream) => {
                    if stream.injector.is_some() {
                        return Err(format!(
                            "stream in shard {} slot {index} carries a fault injector; \
                             injector-bearing streams cannot be checkpointed",
                            self.index
                        ));
                    }
                    Some(StreamState {
                        seq: stream.seq,
                        last_t: stream.last_t,
                        checker: stream.checker.save_state(),
                        guard: stream.guard.as_ref().map(StreamGuard::save_state),
                    })
                }
            };
            slots.push(SlotState {
                gen: slab.gen,
                stream,
            });
        }
        Ok(ShardState {
            slots,
            free: self.free.clone(),
            totals: self.totals,
            cycle_ns: self.cycle_ns.clone(),
            cycle_counter: self.cycle_counter,
        })
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
                        injector: None,
                        guard: s.guard.map(StreamGuard::from_state),
                        last_t: s.last_t,
                    })
                }
            };
            slots.push(SlabSlot {
                gen: slot.gen,
                state: stream,
            });
        }
        for &slot in &state.free {
            if slot as usize >= slots.len() {
                return Err(format!(
                    "shard {}: free-list entry {slot} out of range ({} slots)",
                    self.index,
                    slots.len()
                ));
            }
        }
        self.slots = slots;
        self.free = state.free;
        self.live = live;
        self.totals = state.totals;
        self.cycle_ns = state.cycle_ns;
        self.cycle_counter = state.cycle_counter;
        Ok(())
    }

    /// Appends `(seq, snapshot)` for every live stream, guard transitions
    /// stitched in. The fleet sorts by `seq` before merging.
    pub(crate) fn snapshots(&self, out: &mut Vec<(u64, MetricsSnapshot)>) {
        for slab in &self.slots {
            if let Some(stream) = &slab.state {
                let mut snap = stream.checker.metrics();
                if let Some(guard) = &stream.guard {
                    snap.guard_transitions = guard.transitions();
                }
                out.push((stream.seq, snap));
            }
        }
    }
}
