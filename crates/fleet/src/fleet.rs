//! The fleet multiplexer: sharded stream slabs behind bounded ingestion
//! queues, drained on the shared worker pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

use adassure_core::{Assertion, CheckReport, CheckerPlan, HealthConfig};
use adassure_exp::Runtime;
use adassure_obs::{Histogram, MetricsSnapshot};

use crate::shard::{DrainStats, Shard, ShardState, StreamConfig, StreamError};
use crate::stream::{SampleBatch, StreamId};

/// Plain-data snapshot of a whole fleet, captured between polls. The
/// binary encoding lives in [`crate::checkpoint`].
#[derive(Debug, Clone)]
pub(crate) struct FleetState {
    /// Assertion ids of the plan the state was captured under, in catalog
    /// order — the restore side validates its plan against them.
    pub(crate) assertion_ids: Vec<String>,
    pub(crate) health: HealthConfig,
    pub(crate) next_seq: u64,
    pub(crate) closed_streams: u64,
    pub(crate) retired: MetricsSnapshot,
    pub(crate) rejected: Vec<u64>,
    pub(crate) shards: Vec<ShardState>,
}

/// Fleet construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of shards. More shards = more drain parallelism and smaller
    /// lock scopes; stream → shard assignment is round-robin by open
    /// order, so any count yields the same per-stream results.
    pub shards: usize,
    /// Per-shard ingestion queue capacity, in batches. A full queue
    /// rejects [`Fleet::submit`] with [`SubmitError::Saturated`] — explicit
    /// backpressure instead of unbounded buffering.
    pub queue_capacity: usize,
    /// Telemetry-health configuration for every stream's checker.
    pub health: HealthConfig,
    /// Worker pool draining the shards ([`Runtime::global`] by default).
    pub runtime: Runtime,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 8,
            queue_capacity: 1024,
            health: HealthConfig::default(),
            runtime: Runtime::global(),
        }
    }
}

/// Typed rejection from [`Fleet::submit`] / [`FleetHandle::submit`]. The
/// batch rides along so the producer can retry without cloning up front.
#[derive(Debug)]
pub enum SubmitError {
    /// The target shard's queue is full. The shard's rejected-batch
    /// counter has been bumped (observable via [`Fleet::stats`]); nothing
    /// was buffered or dropped silently.
    Saturated {
        /// The saturated shard.
        shard: usize,
        /// The rejected batch, returned for retry.
        batch: SampleBatch,
    },
    /// The batch's stream id names a shard this fleet does not have.
    UnknownShard {
        /// The rejected batch.
        batch: SampleBatch,
    },
    /// The shard's receiver is gone (the fleet was dropped).
    Disconnected {
        /// The rejected batch.
        batch: SampleBatch,
    },
}

impl SubmitError {
    /// Recovers the rejected batch for retry.
    pub fn into_batch(self) -> SampleBatch {
        match self {
            SubmitError::Saturated { batch, .. }
            | SubmitError::UnknownShard { batch }
            | SubmitError::Disconnected { batch } => batch,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated { shard, .. } => {
                write!(f, "shard {shard} ingestion queue is full")
            }
            SubmitError::UnknownShard { batch } => {
                write!(f, "stream addresses unknown shard {}", batch.stream.shard())
            }
            SubmitError::Disconnected { .. } => write!(f, "fleet is gone"),
        }
    }
}

/// A clonable producer-side handle: submit batches without touching the
/// fleet (and without its lock). One handle per producer thread.
#[derive(Debug, Clone)]
pub struct FleetHandle {
    txs: Vec<SyncSender<SampleBatch>>,
    rejected: Vec<Arc<AtomicU64>>,
}

impl FleetHandle {
    /// Queues `batch` on its stream's shard.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when the shard queue is full (the batch
    /// is returned; the rejection is counted), [`SubmitError::UnknownShard`]
    /// for a foreign [`StreamId`].
    pub fn submit(&self, batch: SampleBatch) -> Result<(), SubmitError> {
        submit(&self.txs, &self.rejected, batch)
    }
}

/// The one submit path behind [`Fleet::submit`] and
/// [`FleetHandle::submit`].
fn submit(
    txs: &[SyncSender<SampleBatch>],
    rejected: &[Arc<AtomicU64>],
    batch: SampleBatch,
) -> Result<(), SubmitError> {
    let shard = batch.stream.shard();
    let Some(tx) = txs.get(shard) else {
        return Err(SubmitError::UnknownShard { batch });
    };
    match tx.try_send(batch) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(batch)) => {
            rejected[shard].fetch_add(1, Ordering::Relaxed);
            Err(SubmitError::Saturated { shard, batch })
        }
        Err(TrySendError::Disconnected(batch)) => Err(SubmitError::Disconnected { batch }),
    }
}

/// Aggregate counters over the fleet's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Streams currently open.
    pub open_streams: u64,
    /// Streams closed so far.
    pub closed_streams: u64,
    /// Batches rejected with [`SubmitError::Saturated`].
    pub rejected_batches: u64,
    /// Batches consumed from the queues.
    pub batches: u64,
    /// Samples offered to checkers.
    pub samples: u64,
    /// Cycles closed.
    pub cycles: u64,
    /// Violations raised.
    pub violations: u64,
    /// Cycle groups rejected for bad timestamps.
    pub bad_cycles: u64,
    /// Batches addressed to a closed stream generation, dropped (counted,
    /// never silent).
    pub stale_batches: u64,
}

/// Per-[`Fleet::poll`] progress counters.
pub type PollStats = DrainStats;

/// A sharded multi-stream monitor over one compiled assertion catalog.
///
/// ```
/// use adassure_core::{Assertion, Condition, Severity, SignalExpr};
/// use adassure_fleet::{Fleet, FleetConfig, SampleBatch};
///
/// let catalog = [Assertion::new(
///     "A1",
///     "bounded x",
///     Severity::Critical,
///     Condition::AtMost { expr: SignalExpr::signal("x").abs(), limit: 1.0 },
/// )];
/// let mut fleet = Fleet::new(catalog, FleetConfig::default());
/// let id = fleet.open_stream();
/// let mut batch = SampleBatch::new(id);
/// batch.push(0.1, "x", 0.5);
/// batch.push(0.2, "x", 2.0);
/// fleet.submit(batch).unwrap();
/// let polled = fleet.poll();
/// assert_eq!(polled.cycles, 2);
/// assert_eq!(polled.violations, 1);
/// let (report, _metrics) = fleet.close_stream(id).unwrap();
/// assert_eq!(report.violations.len(), 1);
/// ```
#[derive(Debug)]
pub struct Fleet {
    plan: Arc<CheckerPlan>,
    health: HealthConfig,
    runtime: Runtime,
    shards: Vec<Mutex<Shard>>,
    txs: Vec<SyncSender<SampleBatch>>,
    rejected: Vec<Arc<AtomicU64>>,
    /// Snapshots of closed streams, merged eagerly in close order (an
    /// order the caller controls, hence shard-count independent).
    retired: MetricsSnapshot,
    closed_streams: u64,
    next_seq: u64,
}

impl Fleet {
    /// Compiles `catalog` once and builds a fleet over it.
    pub fn new(catalog: impl IntoIterator<Item = Assertion>, config: FleetConfig) -> Self {
        Fleet::with_plan(Arc::new(CheckerPlan::compile(catalog)), config)
    }

    /// Builds a fleet over an already-compiled plan (shareable with other
    /// fleets or serial checkers).
    pub fn with_plan(plan: Arc<CheckerPlan>, config: FleetConfig) -> Self {
        let shard_count = config.shards.max(1);
        let capacity = config.queue_capacity.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut txs = Vec::with_capacity(shard_count);
        let mut rejected = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let (tx, rx) = sync_channel(capacity);
            shards.push(Mutex::new(Shard::new(index as u32, rx)));
            txs.push(tx);
            rejected.push(Arc::new(AtomicU64::new(0)));
        }
        Fleet {
            plan,
            health: config.health,
            runtime: config.runtime,
            shards,
            txs,
            rejected,
            retired: MetricsSnapshot::empty(),
            closed_streams: 0,
            next_seq: 0,
        }
    }

    /// The shared compiled plan.
    pub fn plan(&self) -> &Arc<CheckerPlan> {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Opens a stream with a clean telemetry link and no guardian.
    pub fn open_stream(&mut self) -> StreamId {
        self.open_stream_with(StreamConfig::default())
    }

    /// Opens a stream with explicit per-stream options (fault injector,
    /// guardian). Streams are assigned to shards round-robin by open
    /// order.
    pub fn open_stream_with(&mut self, config: StreamConfig) -> StreamId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = (seq % self.shards.len() as u64) as usize;
        self.shards[shard]
            .lock()
            .expect("shard lock poisoned")
            .open(seq, &self.plan, self.health, config)
    }

    /// A clonable producer handle (see [`FleetHandle`]).
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            txs: self.txs.clone(),
            rejected: self.rejected.clone(),
        }
    }

    /// Queues `batch` on its stream's shard — see [`FleetHandle::submit`].
    pub fn submit(&self, batch: SampleBatch) -> Result<(), SubmitError> {
        submit(&self.txs, &self.rejected, batch)
    }

    /// Drains every shard's queue on the worker pool and returns this
    /// poll's aggregate progress. Deterministic: each stream's cycles
    /// depend only on its own batch order, never on which worker drained
    /// the shard.
    pub fn poll(&self) -> PollStats {
        let indices: Vec<usize> = (0..self.shards.len()).collect();
        let deltas = self.runtime.map(&indices, |&i| {
            self.shards[i].lock().expect("shard lock poisoned").drain()
        });
        let mut total = DrainStats::default();
        for delta in &deltas {
            total.merge(delta);
        }
        total
    }

    /// Closes a stream: drains its shard (so queued batches are applied,
    /// not lost), finalises the checker at the last cycle's timestamp, and
    /// retires the stream's metrics into the fleet accumulator.
    ///
    /// # Errors
    ///
    /// [`StreamError`] when the id is stale or unknown.
    pub fn close_stream(
        &mut self,
        id: StreamId,
    ) -> Result<(CheckReport, MetricsSnapshot), StreamError> {
        let shard = self
            .shards
            .get(id.shard())
            .ok_or(StreamError::UnknownSlot)?;
        let mut shard = shard.lock().expect("shard lock poisoned");
        shard.drain();
        let (report, snapshot) = shard.close(id)?;
        drop(shard);
        self.retired.merge(&snapshot);
        self.closed_streams += 1;
        Ok((report, snapshot))
    }

    /// The fleet-wide metrics snapshot: every closed stream (in close
    /// order) merged with every live stream (in open order). Both orders
    /// are independent of shard and worker count, so the result is
    /// bit-identical across fleet layouts — the property pinned by the
    /// sharded-vs-serial differential test.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut live: Vec<(u64, MetricsSnapshot)> = Vec::new();
        for shard in &self.shards {
            shard
                .lock()
                .expect("shard lock poisoned")
                .snapshots(&mut live);
        }
        live.sort_by_key(|(seq, _)| *seq);
        let mut out = MetricsSnapshot::empty();
        out.merge(&self.retired);
        for (_, snap) in &live {
            out.merge(snap);
        }
        out
    }

    /// Aggregate lifetime counters (streams, batches, rejections, drops).
    pub fn stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            closed_streams: self.closed_streams,
            ..FleetStats::default()
        };
        for (shard, rejected) in self.shards.iter().zip(&self.rejected) {
            let shard = shard.lock().expect("shard lock poisoned");
            let totals = shard.totals();
            stats.open_streams += shard.live() as u64;
            stats.batches += totals.batches;
            stats.samples += totals.samples;
            stats.cycles += totals.cycles;
            stats.violations += totals.violations;
            stats.bad_cycles += totals.bad_cycles;
            stats.stale_batches += totals.stale_batches;
            stats.rejected_batches += rejected.load(Ordering::Relaxed);
        }
        stats
    }

    /// Drains every queue, then captures the fleet's complete state as
    /// plain data: slab layouts, checker and guardian states, merged
    /// retired metrics, and the stream-sequence counter. Together with the
    /// plan this determines every future verdict, which is what makes
    /// checkpoint/restore bit-identical (see [`crate::checkpoint`]).
    pub(crate) fn capture_state(&mut self) -> Result<FleetState, String> {
        self.poll();
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            shards.push(shard.lock().expect("shard lock poisoned").save_state()?);
        }
        Ok(FleetState {
            assertion_ids: self
                .plan
                .monitors()
                .iter()
                .map(|m| m.assertion().id.as_str().to_owned())
                .collect(),
            health: self.health,
            next_seq: self.next_seq,
            closed_streams: self.closed_streams,
            retired: self.retired.clone(),
            rejected: self
                .rejected
                .iter()
                .map(|r| r.load(Ordering::Relaxed))
                .collect(),
            shards,
        })
    }

    /// Rebuilds a fleet from a captured [`FleetState`] over `plan`. The
    /// plan must carry the same catalog (validated by assertion ids) and
    /// `config` must match the state's shard count and health config —
    /// stream ids encode their shard, so the layout is part of the state.
    pub(crate) fn restore_with_state(
        plan: Arc<CheckerPlan>,
        config: FleetConfig,
        state: FleetState,
    ) -> Result<Self, String> {
        let plan_ids: Vec<&str> = plan
            .monitors()
            .iter()
            .map(|m| m.assertion().id.as_str())
            .collect();
        if plan_ids.len() != state.assertion_ids.len()
            || plan_ids
                .iter()
                .zip(&state.assertion_ids)
                .any(|(p, s)| p != s)
        {
            return Err(format!(
                "checkpoint catalog {:?} does not match the supplied catalog {plan_ids:?}",
                state.assertion_ids
            ));
        }
        if config.health != state.health {
            return Err("checkpoint health config does not match the supplied config".into());
        }
        if config.shards.max(1) != state.shards.len() {
            return Err(format!(
                "checkpoint has {} shards, config requests {}",
                state.shards.len(),
                config.shards.max(1)
            ));
        }
        let mut fleet = Fleet::with_plan(plan, config);
        for (shard, shard_state) in fleet.shards.iter().zip(state.shards) {
            shard.lock().expect("shard lock poisoned").restore_state(
                shard_state,
                &fleet.plan,
                fleet.health,
            )?;
        }
        for (counter, value) in fleet.rejected.iter().zip(&state.rejected) {
            counter.store(*value, Ordering::Relaxed);
        }
        fleet.next_seq = state.next_seq;
        fleet.closed_streams = state.closed_streams;
        fleet.retired = state.retired;
        Ok(fleet)
    }

    /// Sampled wall-clock per-cycle latency, merged across shards. For
    /// benchmarks and dashboards; never part of the deterministic
    /// snapshot comparison.
    pub fn cycle_latency(&self) -> Histogram {
        let mut out = Histogram::nanos();
        for shard in &self.shards {
            out.merge(shard.lock().expect("shard lock poisoned").cycle_ns());
        }
        out
    }
}
