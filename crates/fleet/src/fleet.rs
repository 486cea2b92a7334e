//! The fleet multiplexer: sharded stream slabs, each behind its own lock.
//! A submitted batch is applied to its stream's checker on the
//! submitting thread before `submit` returns.

use std::sync::{Arc, Mutex};

use adassure_core::{Assertion, CheckReport, CheckerPlan, HealthConfig};
use adassure_exp::Runtime;
use adassure_obs::{Histogram, MetricsSnapshot, ObsSummary};

use crate::shard::{Shard, ShardState, StreamError};
use crate::stream::{SampleBatch, StreamId};

/// Plain-data snapshot of a whole fleet. The binary encoding lives in
/// [`crate::checkpoint`].
#[derive(Debug, Clone)]
pub(crate) struct FleetState {
    /// Assertion ids of the plan the state was captured under, in catalog
    /// order — the restore side validates its plan against them.
    pub(crate) assertion_ids: Vec<String>,
    pub(crate) health: HealthConfig,
    pub(crate) next_seq: u64,
    pub(crate) closed_streams: u64,
    /// The retired metrics' deterministic part: wall-clock timings are
    /// never captured.
    pub(crate) retired: ObsSummary,
    pub(crate) shards: Vec<ShardState>,
}

/// Fleet construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of shards. More shards = more submitters that can apply at
    /// once and smaller lock scopes; stream → shard assignment is
    /// round-robin by open order, so any count yields the same per-stream
    /// results.
    pub shards: usize,
    /// Unused: batches are applied on submit, so there is no queue. Kept
    /// only because the benchmark compiles against it.
    pub queue_capacity: usize,
    /// Telemetry-health configuration for every stream's checker.
    pub health: HealthConfig,
    /// Unused: the fleet has no worker pool; parallelism comes from
    /// concurrent submitters. Kept only because the benchmark compiles
    /// against it.
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
/// batch rides along so the caller gets it back.
#[derive(Debug)]
pub enum SubmitError {
    /// Never returned: submit applies the batch instead of queueing it.
    /// Kept only because the benchmark compiles against it.
    Saturated {
        /// The shard the batch addressed.
        shard: usize,
        /// The batch.
        batch: SampleBatch,
    },
    /// The batch's stream id names a shard this fleet does not have.
    UnknownShard {
        /// The rejected batch.
        batch: SampleBatch,
    },
}

impl SubmitError {
    /// Recovers the rejected batch.
    pub fn into_batch(self) -> SampleBatch {
        match self {
            SubmitError::Saturated { batch, .. } | SubmitError::UnknownShard { batch } => batch,
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
        }
    }
}

/// A clonable producer-side handle: submit batches without touching the
/// fleet (and without its lock). One handle per producer thread.
#[derive(Debug, Clone)]
pub struct FleetHandle {
    shards: Arc<[Mutex<Shard>]>,
}

impl FleetHandle {
    /// Applies `batch` to its stream's checker under that shard's lock,
    /// and returns once it is applied. A batch for a closed stream is
    /// counted stale and dropped.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownShard`] for a foreign [`StreamId`].
    pub fn submit(&self, batch: SampleBatch) -> Result<(), SubmitError> {
        submit(&self.shards, batch)
    }
}

/// The one submit path behind [`Fleet::submit`] and
/// [`FleetHandle::submit`].
fn submit(shards: &[Mutex<Shard>], batch: SampleBatch) -> Result<(), SubmitError> {
    let Some(shard) = shards.get(batch.stream.shard()) else {
        return Err(SubmitError::UnknownShard { batch });
    };
    shard.lock().expect("shard lock poisoned").apply(&batch);
    Ok(())
}

/// Aggregate counters over the fleet's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Streams currently open.
    pub open_streams: u64,
    /// Streams closed so far.
    pub closed_streams: u64,
    /// Always 0: nothing is ever refused for load. Kept only because the
    /// benchmark reports it.
    pub rejected_batches: u64,
    /// Batches applied.
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
/// assert_eq!(fleet.stats().cycles, 2);
/// assert_eq!(fleet.stats().violations, 1);
/// let (report, _metrics) = fleet.close_stream(id).unwrap();
/// assert_eq!(report.violations.len(), 1);
/// ```
#[derive(Debug)]
pub struct Fleet {
    plan: Arc<CheckerPlan>,
    health: HealthConfig,
    shards: Arc<[Mutex<Shard>]>,
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
        let shards = (0..config.shards.max(1) as u32)
            .map(|index| Mutex::new(Shard::new(index)))
            .collect();
        Fleet {
            plan,
            health: config.health,
            shards,
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

    /// Opens a stream. Streams are assigned to shards round-robin by open
    /// order.
    pub fn open_stream(&mut self) -> StreamId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = (seq % self.shards.len() as u64) as usize;
        self.shards[shard]
            .lock()
            .expect("shard lock poisoned")
            .open(seq, &self.plan, self.health)
    }

    /// A clonable producer handle (see [`FleetHandle`]).
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            shards: Arc::clone(&self.shards),
        }
    }

    /// Applies `batch` to its stream's checker — see
    /// [`FleetHandle::submit`].
    pub fn submit(&self, batch: SampleBatch) -> Result<(), SubmitError> {
        submit(&self.shards, batch)
    }

    /// Does nothing: [`Fleet::submit`] has already applied every batch.
    /// Kept only because the benchmark compiles against it.
    pub fn poll(&self) {}

    /// Closes a stream: finalises the checker at the last cycle's
    /// timestamp and retires the stream's metrics into the fleet
    /// accumulator.
    ///
    /// # Errors
    ///
    /// [`StreamError`] when the id is stale or unknown.
    pub fn close_stream(
        &mut self,
        id: StreamId,
    ) -> Result<(CheckReport, MetricsSnapshot), StreamError> {
        let (report, snapshot) = self
            .shards
            .get(id.shard())
            .ok_or(StreamError::UnknownSlot)?
            .lock()
            .expect("shard lock poisoned")
            .close(id)?;
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
        for shard in self.shards.iter() {
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

    /// Aggregate lifetime counters (streams, batches, cycles, drops).
    pub fn stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            closed_streams: self.closed_streams,
            ..FleetStats::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("shard lock poisoned");
            let totals = shard.totals();
            stats.open_streams += shard.live() as u64;
            stats.batches += totals.batches;
            stats.samples += totals.samples;
            stats.cycles += totals.cycles;
            stats.violations += totals.violations;
            stats.bad_cycles += totals.bad_cycles;
            stats.stale_batches += totals.stale_batches;
        }
        stats
    }

    /// Captures the fleet's complete state as plain data: slab layouts,
    /// checker states, merged retired metrics (less their wall-clock
    /// timings), and the stream-sequence counter. Together with the plan
    /// this determines every future verdict, which is what makes
    /// checkpoint/restore bit-identical (see [`crate::checkpoint`]). Every
    /// batch whose `submit` has returned is in it.
    pub(crate) fn capture_state(&self) -> FleetState {
        let shards = self
            .shards
            .iter()
            .map(|shard| shard.lock().expect("shard lock poisoned").save_state())
            .collect();
        FleetState {
            assertion_ids: self
                .plan
                .monitors()
                .iter()
                .map(|m| m.assertion().id.as_str().to_owned())
                .collect(),
            health: self.health,
            next_seq: self.next_seq,
            closed_streams: self.closed_streams,
            retired: self.retired.summary(),
            shards,
        }
    }

    /// Rebuilds a fleet from a captured [`FleetState`] over `plan`. The
    /// plan must carry the same catalog (validated by assertion ids) and
    /// `config` must match the state's shard count and health config —
    /// stream ids encode their shard, so the layout is part of the state.
    /// The retired latency histogram must have the layout
    /// [`Fleet::metrics`] merges it into, and every live stream's seq must
    /// be one [`Fleet::open_stream`] could have given it.
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
        if !state
            .retired
            .detection_latency_s
            .same_layout(&Histogram::seconds())
        {
            return Err("retired detection-latency histogram has a foreign layout".into());
        }
        // `open_stream` hands out each seq once, below `next_seq`, in shard
        // `seq % shards`; `Fleet::metrics` merges live streams in seq order.
        let mut seqs = Vec::new();
        for (index, shard) in state.shards.iter().enumerate() {
            for stream in shard.slots.iter().filter_map(|slot| slot.stream.as_ref()) {
                let seq = stream.seq;
                if seq >= state.next_seq {
                    return Err(format!(
                        "stream seq {seq} is not below the next seq {}",
                        state.next_seq
                    ));
                }
                let home = seq % state.shards.len() as u64;
                if home != index as u64 {
                    return Err(format!(
                        "stream seq {seq} sits in shard {index}, not shard {home}"
                    ));
                }
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        if let Some(pair) = seqs.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("two live streams share seq {}", pair[0]));
        }
        let mut fleet = Fleet::with_plan(plan, config);
        for (shard, shard_state) in fleet.shards.iter().zip(state.shards) {
            shard.lock().expect("shard lock poisoned").restore_state(
                shard_state,
                &fleet.plan,
                fleet.health,
            )?;
        }
        fleet.next_seq = state.next_seq;
        fleet.closed_streams = state.closed_streams;
        fleet.retired = state.retired.into_snapshot();
        Ok(fleet)
    }

    /// Sampled wall-clock `end_cycle` latency of every stream, the
    /// `eval_cycle_ns` of [`Fleet::metrics`]. For benchmarks and
    /// dashboards; never part of the deterministic snapshot comparison.
    pub fn cycle_latency(&self) -> Histogram {
        self.metrics().eval_cycle_ns
    }
}
