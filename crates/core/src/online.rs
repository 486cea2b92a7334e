//! The incremental (online) assertion checker.
//!
//! [`OnlineChecker`] is designed to run *inside* a control loop: per cycle
//! it takes the new signal samples, evaluates every assertion against the
//! sample-and-hold environment, and advances each assertion's temporal
//! state machine. Memory is bounded (one [`crate::expr::Env`] slot per
//! signal, O(1) state per assertion) and no allocation happens on the
//! steady-state path — the property benchmarked by experiment F3 and
//! enforced by the counting-allocator test in `tests/alloc_steady_state.rs`.
//!
//! On construction the catalog is lowered through [`crate::compile`]: each
//! condition becomes a [`CompiledCondition`], a shape kernel over interned
//! signal slots (a postfix program only for shapes no kernel matches), with
//! an input [`SlotMask`]. Per cycle the checker tracks which slots were
//! updated; `end_cycle` re-evaluates an assertion only when one of its
//! inputs changed (or its verdict depends on the clock, as
//! [`crate::Condition::Fresh`] does), replaying the cached verdict
//! otherwise. All other conditions are pure functions of stored signal
//! state, so the cache preserves verdicts bit-for-bit.
//!
//! Samples of signals no assertion reads are ignored on arrival: the
//! signal table is fixed when the plan is compiled, so an unknown channel
//! name costs one lookup and leaves no trace in the checker's state.
//!
//! The offline checker ([`crate::checker`]) replays recorded traces through
//! this same type, so online and offline verdicts agree by construction.
//!
//! # Telemetry health
//!
//! Real telemetry links drop samples, freeze, and deliver NaN bursts. Each
//! monitor therefore carries a [`HealthState`]: while any input slot is
//! *poisoned* (last sample was non-finite) or *stale* (no update within
//! [`HealthConfig::stale_after`]), the monitor reports
//! [`Eval::Inconclusive`] instead of a stale or garbage verdict, and its
//! temporal episode resets. Sustained degradation quarantines the monitor
//! ([`HealthState::Suspended`]); recovery back to [`HealthState::Active`]
//! is hysteretic — it takes [`HealthConfig::recover_after`] consecutive
//! clean cycles. [`crate::Condition::Fresh`] monitors are exempt from the
//! staleness rule (staleness *is* their subject) but still degrade on
//! poisoned inputs. The default [`HealthConfig`] disables the staleness
//! horizon, so plain [`OnlineChecker::new`] behaviour is unchanged for
//! finite-valued streams.
//!
//! The policy is one small machine, `HealthMachine`, that the lane engine
//! ([`crate::lane`]) steps per cycle as well, so both checking engines share
//! one definition of when a monitor degrades, suspends and recovers.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use adassure_obs::{
    AssertionStats, Event as ObsEvent, EventFilter, EventSink, Health as ObsHealth, Histogram,
    Label, MetricsSnapshot, ObsConfig, TransitionGrid, Verdict as ObsVerdict,
};
use adassure_trace::SignalId;

use crate::assertion::{Assertion, Eval, Severity, Temporal};
use crate::compile::{CompiledCondition, SlotMask};
use crate::expr::Env;
use crate::report::CheckReport;
use crate::violation::Violation;

/// `end_cycle` takes a wall-clock timing sample when `cycles & TIMING_MASK
/// == 0`, one cycle in 64: two `Instant` reads on every ~100 ns cycle
/// would cost 30-50 %.
const TIMING_MASK: u64 = 63;

/// Error returned by [`OnlineChecker::begin_cycle`] for an invalid cycle
/// timestamp. The cycle is not opened and the checker state is unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CycleError {
    /// The timestamp was not strictly greater than the previous cycle's.
    NonMonotonic {
        /// Timestamp of the last successfully opened cycle.
        last: f64,
        /// The rejected timestamp.
        attempted: f64,
    },
    /// The timestamp was NaN or infinite.
    NonFinite {
        /// The rejected timestamp.
        attempted: f64,
    },
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleError::NonMonotonic { last, attempted } => write!(
                f,
                "non-monotone cycle timestamp: {attempted} does not advance past {last}"
            ),
            CycleError::NonFinite { attempted } => {
                write!(f, "non-finite cycle timestamp: {attempted}")
            }
        }
    }
}

impl std::error::Error for CycleError {}

/// Telemetry health of one monitor (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// All inputs live and finite; verdicts are trusted.
    Active,
    /// Some inputs dark; carries how many. Verdicts are
    /// [`Eval::Inconclusive`].
    Degraded(u32),
    /// Degraded for at least [`HealthConfig::quarantine_after`] consecutive
    /// cycles; stays suspended until the hysteretic recovery completes.
    Suspended,
}

/// Parameters of the telemetry-health layer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthConfig {
    /// An input is considered dark once no update arrived for this long
    /// (s). The default is infinite: staleness degradation off, matching
    /// the pre-health checker on sparse but well-formed streams.
    pub stale_after: f64,
    /// Consecutive degraded cycles before a monitor is quarantined.
    pub quarantine_after: u32,
    /// Consecutive clean cycles before a degraded or suspended monitor
    /// returns to [`HealthState::Active`].
    pub recover_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stale_after: f64::INFINITY,
            quarantine_after: 100,
            recover_after: 25,
        }
    }
}

/// One monitor's health policy: the [`HealthState`] and the two streaks
/// that move it. Both engines step it once per processed cycle — the
/// online checker and the lane engine alike, per monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HealthMachine {
    pub(crate) state: HealthState,
    /// Consecutive degraded cycles (drives quarantine).
    pub(crate) degraded_streak: u32,
    /// Consecutive clean cycles (drives hysteretic recovery).
    pub(crate) clean_streak: u32,
}

impl Default for HealthMachine {
    fn default() -> Self {
        HealthMachine {
            state: HealthState::Active,
            degraded_streak: 0,
            clean_streak: 0,
        }
    }
}

impl HealthMachine {
    /// Advances one cycle in which `missing` inputs are dark or poisoned,
    /// and returns whether the cycle's verdict is inconclusive: some input
    /// is missing, or the inputs are clean again but the hysteresis window
    /// has not elapsed.
    #[inline]
    pub(crate) fn step(&mut self, missing: u32, config: &HealthConfig) -> bool {
        if missing > 0 {
            self.clean_streak = 0;
            self.degraded_streak = self.degraded_streak.saturating_add(1);
            self.state = if self.degraded_streak >= config.quarantine_after {
                HealthState::Suspended
            } else {
                HealthState::Degraded(missing)
            };
            return true;
        }
        self.degraded_streak = 0;
        if self.state != HealthState::Active {
            self.clean_streak = self.clean_streak.saturating_add(1);
            if self.clean_streak >= config.recover_after {
                self.state = HealthState::Active;
                self.clean_streak = 0;
            }
        }
        self.state != HealthState::Active
    }

    /// The state projected onto the 3-state observability enum (degraded
    /// levels collapse, so `Degraded(1) → Degraded(2)` is not a
    /// transition).
    #[inline]
    pub(crate) fn obs(&self) -> ObsHealth {
        match self.state {
            HealthState::Active => ObsHealth::Active,
            HealthState::Degraded(_) => ObsHealth::Degraded,
            HealthState::Suspended => ObsHealth::Suspended,
        }
    }
}

/// One assertion's compiled, immutable evaluation plan: the condition
/// lowered to a kernel over interned slots, its input mask, and the
/// derived flags the monitor loop consults every cycle. Owned by a
/// [`CheckerPlan`] and shared read-only by every checker built from it.
#[derive(Debug)]
pub struct MonitorPlan {
    assertion: Assertion,
    /// The condition lowered to a kernel over interned slots.
    pub(crate) condition: CompiledCondition,
    /// Slots the condition reads; intersected with the cycle's dirty mask.
    inputs: SlotMask,
    /// The same input slots as a dense list, for the health scan.
    pub(crate) input_slots: Box<[u32]>,
    /// `Fresh` conditions monitor staleness themselves; the health layer's
    /// staleness rule would shadow them, so they are exempt from it.
    pub(crate) staleness_exempt: bool,
    /// Assertion id as an inline label, so events carry no heap strings.
    label: Label,
}

impl MonitorPlan {
    /// The assertion this plan was compiled from.
    pub fn assertion(&self) -> &Assertion {
        &self.assertion
    }
}

/// The compiled, shareable half of an [`OnlineChecker`]: the interned
/// signal table (as a prototype [`Env`]) plus every assertion's
/// [`MonitorPlan`].
///
/// Compiling a catalog is the expensive part of checker construction —
/// lowering conditions to kernels and interning signal names.
/// A fleet monitoring thousands of streams against one catalog compiles
/// the plan **once**, wraps it in an [`Arc`], and stamps out per-stream
/// checkers with [`OnlineChecker::from_plan`]; each checker then carries
/// only its own mutable state (sample-and-hold `Env`, health machines,
/// verdict caches). The plan is `Send + Sync` and never mutated after
/// compilation, so sharing is free of synchronisation.
///
/// It is the catalog's one lowering: the lane engine ([`crate::lane`])
/// evaluates the same plan's kernels over whole trace columns.
#[derive(Debug)]
pub struct CheckerPlan {
    /// Prototype environment: the interned table with empty signal state.
    /// Each checker clones it, so slot indices agree across all streams.
    pub(crate) env_proto: Env,
    monitors: Vec<MonitorPlan>,
    /// Deepest evaluation stack in the catalog, so checkers pre-size their
    /// scratch stack and never allocate on the steady-state path.
    pub(crate) max_stack: usize,
    /// Width of the interned table, for dirty masks and poison tables.
    pub(crate) width: usize,
}

impl CheckerPlan {
    /// Compiles an assertion catalog into a shareable plan.
    pub fn compile(catalog: impl IntoIterator<Item = Assertion>) -> Self {
        let mut env = Env::new();
        let mut monitors: Vec<MonitorPlan> = catalog
            .into_iter()
            .map(|assertion| {
                let condition = CompiledCondition::compile(&assertion.condition, &mut env);
                // `time_dependent` is true exactly for `Fresh` conditions —
                // the ones whose subject is staleness itself.
                let staleness_exempt = condition.time_dependent();
                let label = Label::new(assertion.id.as_str());
                MonitorPlan {
                    assertion,
                    condition,
                    inputs: SlotMask::with_capacity(0),
                    input_slots: Box::new([]),
                    staleness_exempt,
                    label,
                }
            })
            .collect();
        // Input masks need the final table width (compiling a later
        // assertion can intern more slots), so size them in a second pass.
        let width = env.table().len();
        let mut max_stack = 0;
        for monitor in &mut monitors {
            let mut mask = SlotMask::with_capacity(width);
            monitor.condition.mark_inputs(&mut mask);
            monitor.input_slots = mask.iter().collect();
            monitor.inputs = mask;
            max_stack = max_stack.max(monitor.condition.max_stack());
        }
        CheckerPlan {
            env_proto: env,
            monitors,
            max_stack,
            width,
        }
    }

    /// Number of assertions in the plan.
    pub fn assertion_count(&self) -> usize {
        self.monitors.len()
    }

    /// The per-assertion plans, in catalog order.
    pub fn monitors(&self) -> &[MonitorPlan] {
        &self.monitors
    }
}

/// Per-stream mutable state of one monitor — everything that changes as
/// cycles close, parallel to the plan's [`MonitorPlan`] list.
#[derive(Debug, Clone)]
struct MonitorRt {
    health: HealthMachine,
    /// Verdict of the last evaluation, replayed while no input changes.
    cached: Option<Eval>,
    episode_start: Option<f64>,
    alarmed_this_episode: bool,
    ever_healthy: bool,
    saw_first_sample: bool,
    /// Index into the violation list of this episode's alarm, so recovery
    /// can be stamped when the condition heals.
    open_violation: Option<usize>,
    /// Verdict of the previous cycle, for flip counting/events.
    last_verdict: ObsVerdict,
}

impl MonitorRt {
    fn new() -> Self {
        MonitorRt {
            health: HealthMachine::default(),
            cached: None,
            episode_start: None,
            alarmed_this_episode: false,
            ever_healthy: false,
            saw_first_sample: false,
            open_violation: None,
            last_verdict: ObsVerdict::Unknown,
        }
    }
}

/// Plain-data snapshot of one signal slot's sample-and-hold state, as
/// stored inside a [`CheckerState`]. Slot order follows the plan's
/// interned table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalSnapshot {
    /// Whether the slot has received at least one finite sample.
    pub seen: bool,
    /// Timestamp of the newest sample.
    pub time: f64,
    /// Newest (finite) value.
    pub value: f64,
    /// `(delta, dt)` of the last two distinct-time updates.
    pub last_step: Option<(f64, f64)>,
}

/// Plain-data snapshot of one monitor's mutable state (health machine,
/// verdict cache, episode bookkeeping), parallel to the plan's monitor
/// list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorSnapshot {
    /// Telemetry health of the monitor.
    pub health: HealthState,
    /// Consecutive degraded cycles (drives quarantine).
    pub degraded_streak: u32,
    /// Consecutive clean cycles (drives hysteretic recovery).
    pub clean_streak: u32,
    /// Verdict of the last evaluation, replayed while no input changes.
    pub cached: Option<Eval>,
    /// Onset time of the current violation episode, if one is open.
    pub episode_start: Option<f64>,
    /// Whether the current episode has already alarmed.
    pub alarmed_this_episode: bool,
    /// Whether the condition has ever evaluated healthy.
    pub ever_healthy: bool,
    /// Whether any evaluation (healthy or violated) has happened.
    pub saw_first_sample: bool,
    /// Index into the violation list of this episode's alarm.
    pub open_violation: Option<u64>,
    /// Verdict of the previous cycle, for flip counting.
    pub last_verdict: ObsVerdict,
}

/// The complete serializable mutable state of an [`OnlineChecker`],
/// captured between cycles by [`OnlineChecker::save_state`] and replayed
/// into a fresh checker by [`OnlineChecker::restore`]. All fields are
/// plain data; the compiled plan itself is *not* part of the state — the
/// restore side must supply an identical plan (same catalog, same interned
/// table), which callers validate via assertion ids.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckerState {
    /// The environment clock at capture time.
    pub now: f64,
    /// Per-slot sample-and-hold state for every plan slot, in slot order.
    pub signals: Vec<SignalSnapshot>,
    /// Per-monitor mutable state, in catalog order.
    pub monitors: Vec<MonitorSnapshot>,
    /// Per-slot poison flags, in slot order.
    pub poisoned: Vec<bool>,
    /// Monitor-cycles that produced [`Eval::Inconclusive`].
    pub inconclusive_cycles: u64,
    /// Timestamp of the last opened cycle (monotonicity fence).
    pub last_cycle: Option<f64>,
    /// Violations raised so far, in detection order.
    pub violations: Vec<Violation>,
    /// Per-assertion observability counters, in catalog order.
    pub stats: Vec<AssertionStats>,
    /// Health-transition counts across all monitors.
    pub health_grid: [[u64; 3]; 3],
    /// Cycles closed so far.
    pub cycles: u64,
    /// Events that passed the filter so far.
    pub events_emitted: u64,
    /// Run id stamped on emitted events.
    pub run_id: u64,
    /// Whether the RunStart event has been emitted.
    pub started: bool,
}

/// Error returned by [`OnlineChecker::restore`] when a [`CheckerState`]
/// does not fit the supplied plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// What did not line up between the state and the plan.
    pub message: String,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checker state does not fit the plan: {}", self.message)
    }
}

impl std::error::Error for RestoreError {}

/// The incremental checker.
///
/// # Example
///
/// ```
/// use adassure_core::{Assertion, Condition, OnlineChecker, Severity, SignalExpr, Temporal};
///
/// let a = Assertion::new(
///     "A1",
///     "bounded cross-track error",
///     Severity::Critical,
///     Condition::AtMost { expr: SignalExpr::signal("xtrack_err").abs(), limit: 1.0 },
/// );
/// let mut checker = OnlineChecker::new([a]);
/// checker.begin_cycle(0.0).unwrap();
/// checker.update("xtrack_err", 0.2);
/// assert_eq!(checker.end_cycle(), 0);
/// checker.begin_cycle(0.01).unwrap();
/// checker.update("xtrack_err", 2.0);
/// assert_eq!(checker.end_cycle(), 1);
/// ```
#[derive(Debug)]
pub struct OnlineChecker {
    /// The shared compiled plan (catalog, conditions, interned table).
    plan: Arc<CheckerPlan>,
    env: Env,
    /// Per-monitor mutable state, parallel to `plan.monitors`.
    monitors: Vec<MonitorRt>,
    /// Slots updated since the last `end_cycle`.
    dirty: SlotMask,
    /// Per-slot poison flag: true while the slot's latest sample was
    /// non-finite (the sample-and-hold value in `env` stays the last good
    /// one).
    poisoned: Box<[bool]>,
    /// Number of `true` entries in `poisoned`.
    poisoned_count: usize,
    /// A lower bound on the update time of every seen slot. While
    /// `now - stale_bound <= stale_after` no input can be stale, so
    /// `end_cycle` skips the health scan (see [`OnlineChecker::end_cycle`]).
    stale_bound: f64,
    health_config: HealthConfig,
    /// Monitor-cycles that produced [`Eval::Inconclusive`].
    inconclusive_cycles: u64,
    /// Timestamp of the last successfully opened cycle, enforcing
    /// monotonicity.
    last_cycle: Option<f64>,
    /// Shared scratch stack for compiled-expression evaluation, sized to
    /// the deepest expression in the catalog so evaluation never allocates.
    stack: Vec<f64>,
    violations: Vec<Violation>,
    cycle_open: bool,
    /// Per-assertion observability counters, parallel to `monitors`.
    /// Allocated once at construction; bumped in place afterwards.
    stats: Box<[AssertionStats]>,
    /// Health-state transitions across all monitors.
    health_grid: TransitionGrid,
    /// Wall-clock `end_cycle` latency, sampled every `TIMING_MASK + 1`
    /// cycles. Excluded from deterministic summaries and checkpoints.
    eval_ns: Histogram,
    /// Cycles closed so far.
    cycles: u64,
    /// Event destination; `None` keeps observability down to counters.
    sink: Option<Box<dyn EventSink>>,
    /// Severity/sampling filter applied before the sink.
    filter: EventFilter,
    /// Events that passed the filter.
    events_emitted: u64,
    /// Run id stamped on emitted events.
    run_id: u64,
    /// Whether the RunStart event has been emitted.
    started: bool,
}

impl OnlineChecker {
    /// Creates a checker over an assertion catalog, compiling it into the
    /// interned evaluation plan. Uses the default [`HealthConfig`] (no
    /// staleness horizon).
    pub fn new(catalog: impl IntoIterator<Item = Assertion>) -> Self {
        OnlineChecker::with_health(catalog, HealthConfig::default())
    }

    /// Creates a checker with an explicit telemetry-health configuration.
    pub fn with_health(
        catalog: impl IntoIterator<Item = Assertion>,
        health_config: HealthConfig,
    ) -> Self {
        OnlineChecker::from_plan(Arc::new(CheckerPlan::compile(catalog)), health_config)
    }

    /// Creates a checker over an already-compiled shared plan.
    ///
    /// This is the fleet path: compile the catalog once with
    /// [`CheckerPlan::compile`], then stamp out one checker per stream.
    /// Construction clones the plan's prototype environment (empty signal
    /// state, shared interned table) and allocates only the per-stream
    /// state; no compilation or interning happens here.
    pub fn from_plan(plan: Arc<CheckerPlan>, health_config: HealthConfig) -> Self {
        let env = plan.env_proto.clone();
        let monitors = vec![MonitorRt::new(); plan.monitors.len()];
        let stats = plan
            .monitors
            .iter()
            .map(|m| AssertionStats::new(m.assertion.id.as_str()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let width = plan.width;
        let max_stack = plan.max_stack;
        OnlineChecker {
            plan,
            env,
            monitors,
            dirty: SlotMask::with_capacity(width),
            poisoned: vec![false; width].into_boxed_slice(),
            poisoned_count: 0,
            // Unknown until the first tightening pass; every later update
            // time is above it.
            stale_bound: f64::NEG_INFINITY,
            health_config,
            inconclusive_cycles: 0,
            last_cycle: None,
            stack: Vec::with_capacity(max_stack),
            violations: Vec::new(),
            cycle_open: false,
            stats,
            health_grid: TransitionGrid::new(),
            eval_ns: Histogram::nanos(),
            cycles: 0,
            sink: None,
            filter: EventFilter::none(),
            events_emitted: 0,
            run_id: 0,
            started: false,
        }
    }

    /// Creates a checker with health *and* observability configuration:
    /// events that pass `obs.filter` go to `sink` (dropped entirely when
    /// `obs.events` is off).
    pub fn with_observability(
        catalog: impl IntoIterator<Item = Assertion>,
        health_config: HealthConfig,
        obs: &ObsConfig,
        sink: Box<dyn EventSink>,
    ) -> Self {
        let mut checker = OnlineChecker::with_health(catalog, health_config);
        checker.filter = obs.filter.clone();
        checker.sink = obs.events.then_some(sink);
        checker
    }

    /// Stamps `run` on every subsequently emitted event (campaign cells
    /// use their cell index).
    pub fn set_run_id(&mut self, run: u64) {
        self.run_id = run;
    }

    /// Number of monitored assertions.
    pub fn assertion_count(&self) -> usize {
        self.monitors.len()
    }

    /// The shared compiled plan this checker runs on. Clone the `Arc` to
    /// stamp out further checkers over the same catalog.
    pub fn plan(&self) -> &Arc<CheckerPlan> {
        &self.plan
    }

    /// Opens a new control cycle at time `t`. Call before the cycle's
    /// [`OnlineChecker::update`]s.
    ///
    /// # Errors
    ///
    /// Rejects a timestamp that is NaN/infinite or does not strictly
    /// advance past the previous cycle's; the cycle is not opened.
    pub fn begin_cycle(&mut self, t: f64) -> Result<(), CycleError> {
        if !t.is_finite() {
            return Err(CycleError::NonFinite { attempted: t });
        }
        if let Some(last) = self.last_cycle {
            if t <= last {
                return Err(CycleError::NonMonotonic { last, attempted: t });
            }
        }
        self.last_cycle = Some(t);
        self.env.set_time(t);
        self.cycle_open = true;
        if !self.started {
            self.started = true;
            let ev = ObsEvent::RunStart {
                run: self.run_id,
                t,
            };
            emit_to(
                &mut self.sink,
                &mut self.filter,
                &mut self.events_emitted,
                ev,
            );
        }
        Ok(())
    }

    /// Ingests one new signal sample for the open cycle.
    ///
    /// A non-finite value never enters the sample-and-hold state: the slot
    /// keeps its last good value and is *poisoned* — every monitor reading
    /// it reports [`Eval::Inconclusive`] — until a finite sample arrives.
    ///
    /// A sample of a signal that no assertion reads is ignored: it is not
    /// stored, so unknown channel names cannot grow the checker.
    // Forced: the fleet's shard loop calls this once per sample, and an
    // out-of-line call there measurably slowed fleet ingest.
    #[inline(always)]
    pub fn update(&mut self, signal: impl Into<SignalId>, value: f64) {
        if let Some(slot) = self.slot(&signal.into()) {
            self.update_slot(slot, value);
        }
    }

    /// The slot of `signal` if some assertion reads it: the plan's table
    /// holds exactly the catalog's signals and is never written after
    /// compilation. It is shared by every checker built from the plan, so
    /// the lookup stays in cache across a fleet's streams. Resolving once
    /// and updating by slot skips the per-sample name lookup.
    #[inline]
    pub(crate) fn slot(&self, signal: &SignalId) -> Option<u32> {
        self.plan.env_proto.slot(signal)
    }

    /// [`OnlineChecker::update`] for a slot returned by
    /// [`OnlineChecker::slot`].
    #[inline]
    pub(crate) fn update_slot(&mut self, slot: u32, value: f64) {
        debug_assert!(self.cycle_open, "update outside begin_cycle/end_cycle");
        let poisoned = &mut self.poisoned[slot as usize];
        if value.is_finite() {
            self.env.update_slot(slot, value);
            if *poisoned {
                *poisoned = false;
                self.poisoned_count -= 1;
            }
        } else if !*poisoned {
            *poisoned = true;
            self.poisoned_count += 1;
        }
        self.dirty.set(slot);
    }

    /// Closes the cycle: evaluates every assertion and advances temporal
    /// state. Returns the number of *new* violations raised this cycle.
    ///
    /// The per-slot health scan runs only when some slot is poisoned or
    /// the cached stale bound is past the horizon; otherwise every monitor
    /// is known to have no dark input.
    pub fn end_cycle(&mut self) -> usize {
        let t0 = (self.cycles & TIMING_MASK == 0).then(Instant::now);
        // Destructure for disjoint field borrows: the monitor loop mutates
        // `monitors`/`stats` while emitting through `sink`.
        let OnlineChecker {
            plan,
            env,
            monitors,
            dirty,
            poisoned,
            poisoned_count,
            stale_bound,
            health_config,
            inconclusive_cycles,
            stack,
            violations,
            stats,
            health_grid,
            sink,
            filter,
            events_emitted,
            run_id,
            cycles,
            ..
        } = self;
        let plan = &**plan;
        let t = env.now();
        let before = violations.len();
        // Float subtraction rounds monotonically, so every seen slot (time
        // >= bound) has age <= t - bound: while that is within the horizon
        // no input is stale. Re-tighten the bound before deciding.
        let mut scan = *poisoned_count > 0;
        if !scan && t - *stale_bound > health_config.stale_after {
            *stale_bound = oldest_update(env, plan.width);
            scan = t - *stale_bound > health_config.stale_after;
        }
        for ((mp, monitor), stat) in plan
            .monitors
            .iter()
            .zip(monitors.iter_mut())
            .zip(stats.iter_mut())
        {
            if t < mp.assertion.grace {
                continue;
            }
            let prev_health = monitor.health.obs();
            // Health pass: count inputs that are poisoned or (unless the
            // condition monitors staleness itself) dark past the horizon.
            // Slots never seen stay neutral — that is the existing Unknown
            // start-up semantics, not a telemetry fault.
            let mut missing = 0u32;
            if scan {
                for &slot in mp.input_slots.iter() {
                    let stale = !mp.staleness_exempt
                        && env
                            .age_at(slot)
                            .is_some_and(|age| age > health_config.stale_after);
                    if poisoned[slot as usize] || stale {
                        missing += 1;
                    }
                }
            }
            let eval = if monitor.health.step(missing, health_config) {
                if missing > 0 {
                    // The held verdict was computed from data now known bad.
                    monitor.cached = None;
                }
                Eval::Inconclusive
            } else if mp.condition.time_dependent()
                || monitor.cached.is_none()
                || mp.inputs.intersects(dirty)
            {
                let eval = mp.condition.eval(env, stack);
                monitor.cached = Some(eval);
                eval
            } else {
                // No input changed and the condition ignores the clock: the
                // verdict is unchanged by construction.
                monitor.cached.unwrap_or(Eval::Unknown)
            };
            let new_health = monitor.health.obs();
            if new_health != prev_health {
                health_grid.record(prev_health.index(), new_health.index());
                let ev = ObsEvent::HealthTransition {
                    run: *run_id,
                    t,
                    assertion: mp.label,
                    from: prev_health,
                    to: new_health,
                };
                emit_to(sink, filter, events_emitted, ev);
            }
            let verdict = obs_verdict(eval);
            stat.verdicts.record(verdict);
            if verdict != monitor.last_verdict {
                stat.flips += 1;
                let ev = ObsEvent::VerdictFlip {
                    run: *run_id,
                    t,
                    assertion: mp.label,
                    from: monitor.last_verdict,
                    to: verdict,
                };
                emit_to(sink, filter, events_emitted, ev);
                monitor.last_verdict = verdict;
            }
            match eval {
                Eval::Unknown => {
                    // Not enough data yet: treat as neutral, reset episodes.
                    monitor.episode_start = None;
                    monitor.alarmed_this_episode = false;
                    monitor.open_violation = None;
                }
                Eval::Inconclusive => {
                    // Telemetry went dark: the verdict cannot be trusted
                    // either way. Neutral like Unknown — reset the episode,
                    // never stamp a recovery on data we cannot see.
                    *inconclusive_cycles += 1;
                    monitor.episode_start = None;
                    monitor.alarmed_this_episode = false;
                    monitor.open_violation = None;
                }
                Eval::Healthy => {
                    if let Some(idx) = monitor.open_violation.take() {
                        violations[idx].recovered = Some(t);
                    }
                    monitor.episode_start = None;
                    monitor.alarmed_this_episode = false;
                    monitor.ever_healthy = true;
                    monitor.saw_first_sample = true;
                }
                Eval::Violated(value) => {
                    monitor.saw_first_sample = true;
                    let onset = *monitor.episode_start.get_or_insert(t);
                    let should_alarm = match mp.assertion.temporal {
                        Temporal::Immediate => !monitor.alarmed_this_episode,
                        Temporal::Sustained(d) => !monitor.alarmed_this_episode && t - onset >= d,
                        Temporal::Eventually => false, // judged at finish()
                    };
                    if should_alarm {
                        monitor.alarmed_this_episode = true;
                        monitor.open_violation = Some(violations.len());
                        stat.episodes += 1;
                        violations.push(Violation {
                            assertion: mp.assertion.id.clone(),
                            severity: mp.assertion.severity,
                            onset,
                            detected: t,
                            value,
                            cycle: *cycles,
                            recovered: None,
                        });
                    }
                }
            }
        }
        dirty.clear();
        self.cycle_open = false;
        self.cycles += 1;
        if let Some(t0) = t0 {
            self.eval_ns.record(t0.elapsed().as_nanos() as f64);
        }
        self.violations.len() - before
    }

    /// Violations raised so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Health of the monitor at `index` (catalog order), if it exists.
    pub fn health(&self, index: usize) -> Option<HealthState> {
        self.monitors.get(index).map(|m| m.health.state)
    }

    /// Whether every monitor is [`HealthState::Active`].
    pub fn all_active(&self) -> bool {
        self.monitors
            .iter()
            .all(|m| m.health.state == HealthState::Active)
    }

    /// Monitor-cycles that produced [`Eval::Inconclusive`] so far.
    pub fn inconclusive_cycles(&self) -> u64 {
        self.inconclusive_cycles
    }

    /// Earliest onset among currently *standing* alarms — episodes whose
    /// temporal operator has fired and whose condition has not healed —
    /// at or above `min` severity. `None` when no such alarm stands.
    pub fn open_episode_onset(&self, min: Severity) -> Option<f64> {
        self.plan
            .monitors
            .iter()
            .zip(&self.monitors)
            .filter(|(mp, m)| mp.assertion.severity >= min && m.alarmed_this_episode)
            .filter_map(|(_, m)| m.episode_start)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Events that passed the filter and reached the sink so far.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// The current metrics as a serializable snapshot. Cheap enough to
    /// call between cycles (clones the counters, not the monitors).
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cycles: self.cycles,
            assertions: self.stats.to_vec(),
            health_transitions: self.health_grid.sparse([
                ObsHealth::Active.name(),
                ObsHealth::Degraded.name(),
                ObsHealth::Suspended.name(),
            ]),
            guard_transitions: Vec::new(),
            events_emitted: self.events_emitted,
            eval_cycle_ns: self.eval_ns.clone(),
            detection_latency_s: Histogram::seconds(),
        }
    }

    /// Finalises the run at `end_time`: judges [`Temporal::Eventually`]
    /// assertions (those that never held raise a violation at `end_time`)
    /// and produces the report.
    pub fn finish(self, end_time: f64) -> CheckReport {
        self.finish_observed(end_time).0
    }

    /// [`OnlineChecker::finish`] plus the observability outputs: emits the
    /// `run_end` event, flushes the sink, and returns the report together
    /// with the final [`MetricsSnapshot`] and the sink (so callers can
    /// drain a `VecSink` or recover a writer).
    pub fn finish_observed(
        mut self,
        end_time: f64,
    ) -> (CheckReport, MetricsSnapshot, Option<Box<dyn EventSink>>) {
        for i in 0..self.monitors.len() {
            let mp = &self.plan.monitors[i];
            let monitor = &self.monitors[i];
            if mp.assertion.temporal == Temporal::Eventually
                && monitor.saw_first_sample
                && !monitor.ever_healthy
            {
                self.stats[i].episodes += 1;
                self.violations.push(Violation {
                    assertion: mp.assertion.id.clone(),
                    severity: mp.assertion.severity,
                    onset: mp.assertion.grace,
                    detected: end_time,
                    value: f64::NAN,
                    cycle: self.cycles,
                    recovered: None,
                });
            }
        }
        if self.started {
            let ev = ObsEvent::RunEnd {
                run: self.run_id,
                t: end_time,
                cycles: self.cycles,
                violations: self.violations.len() as u64,
            };
            emit_to(
                &mut self.sink,
                &mut self.filter,
                &mut self.events_emitted,
                ev,
            );
        }
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_mut() {
            let _ = s.flush();
        }
        let snapshot = self.metrics();
        let mut report = CheckReport::new(self.violations, end_time, self.monitors.len());
        report.inconclusive_cycles = self.inconclusive_cycles;
        (report, snapshot, sink)
    }

    /// Captures the checker's complete mutable state as plain data.
    ///
    /// Must be called *between* cycles (after `end_cycle`, before the next
    /// `begin_cycle`): the dirty mask is clear and no cycle is open, so the
    /// snapshot together with the plan fully determines all future
    /// verdicts. The poisoned count and stale bound `end_cycle` uses are
    /// derived from this state, so [`OnlineChecker::restore`] rebuilds them
    /// rather than storing them.
    pub fn save_state(&self) -> CheckerState {
        debug_assert!(!self.cycle_open, "save_state inside an open cycle");
        let width = self.plan.width;
        let signals = (0..width as u32)
            .map(|slot| {
                let (seen, time, value, last_step) =
                    self.env.slot_state(slot).unwrap_or((false, 0.0, 0.0, None));
                SignalSnapshot {
                    seen,
                    time,
                    value,
                    last_step,
                }
            })
            .collect();
        let monitors = self
            .monitors
            .iter()
            .map(|m| MonitorSnapshot {
                health: m.health.state,
                degraded_streak: m.health.degraded_streak,
                clean_streak: m.health.clean_streak,
                cached: m.cached,
                episode_start: m.episode_start,
                alarmed_this_episode: m.alarmed_this_episode,
                ever_healthy: m.ever_healthy,
                saw_first_sample: m.saw_first_sample,
                open_violation: m.open_violation.map(|i| i as u64),
                last_verdict: m.last_verdict,
            })
            .collect();
        CheckerState {
            now: self.env.now(),
            signals,
            monitors,
            poisoned: self.poisoned.to_vec(),
            inconclusive_cycles: self.inconclusive_cycles,
            last_cycle: self.last_cycle,
            violations: self.violations.clone(),
            stats: self.stats.to_vec(),
            health_grid: self.health_grid.counts(),
            cycles: self.cycles,
            events_emitted: self.events_emitted,
            run_id: self.run_id,
            started: self.started,
        }
    }

    /// Rebuilds a checker from a [`CheckerState`] previously captured with
    /// [`OnlineChecker::save_state`], over the *same* compiled plan. The
    /// restored checker produces bit-identical verdicts to one that ran
    /// uninterrupted.
    ///
    /// No event sink is attached: the restored checker runs sinkless, as
    /// every fleet stream does.
    /// The wall-clock timer is not part of the state, so it starts empty.
    ///
    /// # Errors
    ///
    /// Rejects states whose dimensions (monitor count, slot width, stats
    /// ids, violation indices) do not match the plan.
    pub fn restore(
        plan: Arc<CheckerPlan>,
        health_config: HealthConfig,
        state: CheckerState,
    ) -> Result<Self, RestoreError> {
        let mismatch = |message: String| RestoreError { message };
        if state.monitors.len() != plan.monitors.len() {
            return Err(mismatch(format!(
                "state has {} monitors, plan has {}",
                state.monitors.len(),
                plan.monitors.len()
            )));
        }
        if state.stats.len() != plan.monitors.len() {
            return Err(mismatch(format!(
                "state has {} stat rows, plan has {} monitors",
                state.stats.len(),
                plan.monitors.len()
            )));
        }
        for (stat, mp) in state.stats.iter().zip(&plan.monitors) {
            if stat.id != mp.assertion.id.as_str() {
                return Err(mismatch(format!(
                    "stat row for assertion {:?} does not match plan assertion {:?}",
                    stat.id,
                    mp.assertion.id.as_str()
                )));
            }
        }
        if state.signals.len() != plan.width {
            return Err(mismatch(format!(
                "state has {} signal slots, plan width is {}",
                state.signals.len(),
                plan.width
            )));
        }
        if state.poisoned.len() != plan.width {
            return Err(mismatch(format!(
                "state has {} poison flags, plan width is {}",
                state.poisoned.len(),
                plan.width
            )));
        }
        for m in &state.monitors {
            if let Some(idx) = m.open_violation {
                if idx as usize >= state.violations.len() {
                    return Err(mismatch(format!(
                        "open violation index {idx} out of range ({} violations)",
                        state.violations.len()
                    )));
                }
            }
        }
        let mut checker = OnlineChecker::from_plan(plan, health_config);
        checker.env.set_time(state.now);
        for (slot, s) in state.signals.iter().enumerate() {
            checker
                .env
                .restore_slot_state(slot as u32, s.seen, s.time, s.value, s.last_step);
        }
        for (rt, m) in checker.monitors.iter_mut().zip(&state.monitors) {
            *rt = MonitorRt {
                health: HealthMachine {
                    state: m.health,
                    degraded_streak: m.degraded_streak,
                    clean_streak: m.clean_streak,
                },
                cached: m.cached,
                episode_start: m.episode_start,
                alarmed_this_episode: m.alarmed_this_episode,
                ever_healthy: m.ever_healthy,
                saw_first_sample: m.saw_first_sample,
                open_violation: m.open_violation.map(|i| i as usize),
                last_verdict: m.last_verdict,
            };
        }
        checker.poisoned_count = state.poisoned.iter().filter(|&&p| p).count();
        checker.poisoned = state.poisoned.into_boxed_slice();
        checker.stale_bound = oldest_update(&checker.env, checker.plan.width);
        checker.inconclusive_cycles = state.inconclusive_cycles;
        checker.last_cycle = state.last_cycle;
        checker.violations = state.violations;
        checker.stats = state.stats.into_boxed_slice();
        checker.health_grid = TransitionGrid::from_counts(state.health_grid);
        checker.cycles = state.cycles;
        checker.events_emitted = state.events_emitted;
        checker.run_id = state.run_id;
        checker.started = state.started;
        Ok(checker)
    }
}

/// The oldest update time among the first `width` slots of `env`, or the
/// current clock if none has been seen: a lower bound on every update time
/// present now or to come.
fn oldest_update(env: &Env, width: usize) -> f64 {
    (0..width as u32)
        .filter_map(|slot| env.slot_state(slot))
        .filter(|&(seen, ..)| seen)
        .fold(env.now(), |bound, (_, time, ..)| bound.min(time))
}

/// Forwards `ev` to the sink if one is attached and the filter accepts it.
/// A free function so the monitor loop can call it while holding disjoint
/// borrows of the checker's fields.
#[inline]
fn emit_to(
    sink: &mut Option<Box<dyn EventSink>>,
    filter: &mut EventFilter,
    events_emitted: &mut u64,
    ev: ObsEvent,
) {
    if let Some(sink) = sink {
        if filter.accepts(&ev) {
            sink.emit(ev);
            *events_emitted += 1;
        }
    }
}

/// Projects an [`Eval`] onto the observability verdict enum.
fn obs_verdict(eval: Eval) -> ObsVerdict {
    match eval {
        Eval::Unknown => ObsVerdict::Unknown,
        Eval::Healthy => ObsVerdict::Pass,
        Eval::Inconclusive => ObsVerdict::Inconclusive,
        Eval::Violated(_) => ObsVerdict::Violated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::{Condition, Severity};
    use crate::expr::SignalExpr;

    fn bound_assertion(limit: f64) -> Assertion {
        Assertion::new(
            "A1",
            "bounded x",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("x").abs(),
                limit,
            },
        )
    }

    fn drive(checker: &mut OnlineChecker, samples: &[(f64, f64)]) -> usize {
        let mut total = 0;
        for &(t, v) in samples {
            checker.begin_cycle(t).unwrap();
            checker.update("x", v);
            total += checker.end_cycle();
        }
        total
    }

    #[test]
    fn immediate_fires_once_per_episode() {
        let mut c = OnlineChecker::new([bound_assertion(1.0)]);
        let n = drive(
            &mut c,
            &[(0.0, 0.5), (0.1, 2.0), (0.2, 2.5), (0.3, 0.1), (0.4, 3.0)],
        );
        assert_eq!(n, 2, "two episodes, one alarm each");
        assert_eq!(c.violations()[0].onset, 0.1);
        assert_eq!(c.violations()[1].onset, 0.4);
    }

    #[test]
    fn sustained_debounces_glitches() {
        let a = bound_assertion(1.0).with_temporal(Temporal::Sustained(0.25));
        let mut c = OnlineChecker::new([a]);
        // A 0.1 s glitch must not alarm.
        let n = drive(&mut c, &[(0.0, 2.0), (0.1, 0.0), (0.2, 0.0)]);
        assert_eq!(n, 0);
        // A sustained excursion must.
        let n = drive(&mut c, &[(0.3, 2.0), (0.4, 2.0), (0.5, 2.0), (0.6, 2.0)]);
        assert_eq!(n, 1);
        let v = &c.violations()[0];
        assert_eq!(v.onset, 0.3);
        assert!((v.detected - 0.55).abs() < 0.06, "{}", v.detected);
    }

    #[test]
    fn grace_period_masks_startup() {
        let a = bound_assertion(1.0).with_grace(0.5);
        let mut c = OnlineChecker::new([a]);
        let n = drive(&mut c, &[(0.0, 9.0), (0.4, 9.0)]);
        assert_eq!(n, 0, "violations inside grace are ignored");
        let n = drive(&mut c, &[(0.6, 9.0)]);
        assert_eq!(n, 1);
    }

    #[test]
    fn unknown_signals_do_not_fire() {
        let mut c = OnlineChecker::new([bound_assertion(1.0)]);
        c.begin_cycle(0.0).unwrap();
        c.update("unrelated", 99.0);
        assert_eq!(c.end_cycle(), 0);
    }

    #[test]
    fn eventually_judged_at_finish() {
        let goal = Assertion::new(
            "A12",
            "goal reached",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("progress"),
                limit: 100.0,
            },
        )
        .with_temporal(Temporal::Eventually);

        // Run that reaches the goal: clean.
        let mut c = OnlineChecker::new([goal.clone()]);
        drive_progress(&mut c, &[(0.0, 10.0), (1.0, 120.0)]);
        let report = c.finish(2.0);
        assert!(report.is_clean());

        // Run that never reaches it: violation at end time.
        let mut c = OnlineChecker::new([goal.clone()]);
        drive_progress(&mut c, &[(0.0, 10.0), (1.0, 50.0)]);
        let report = c.finish(2.0);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].detected, 2.0);

        // Run where the signal never appears: neutral, no violation.
        let c = OnlineChecker::new([goal]);
        let report = c.finish(2.0);
        assert!(report.is_clean(), "missing signal must stay neutral");
    }

    fn drive_progress(checker: &mut OnlineChecker, samples: &[(f64, f64)]) {
        for &(t, v) in samples {
            checker.begin_cycle(t).unwrap();
            checker.update("progress", v);
            checker.end_cycle();
        }
    }

    #[test]
    fn fresh_condition_fires_on_staleness() {
        let a = Assertion::new(
            "A13",
            "gnss fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.3,
            },
        );
        let mut c = OnlineChecker::new([a]);
        c.begin_cycle(0.0).unwrap();
        c.update("gnss_x", 1.0);
        assert_eq!(c.end_cycle(), 0);
        // Clock advances without updates; other signals keep cycles coming.
        let mut fired = 0;
        for i in 1..10 {
            c.begin_cycle(f64::from(i) * 0.1).unwrap();
            c.update("other", 0.0);
            fired += c.end_cycle();
        }
        assert_eq!(fired, 1, "stale fix alarms exactly once per episode");
        assert!(c.violations()[0].detected > 0.3);
    }

    #[test]
    fn multiple_assertions_are_independent() {
        let a1 = bound_assertion(1.0);
        let a2 = Assertion::new(
            "A2",
            "y bounded",
            Severity::Warning,
            Condition::AtMost {
                expr: SignalExpr::signal("y").abs(),
                limit: 5.0,
            },
        );
        let mut c = OnlineChecker::new([a1, a2]);
        c.begin_cycle(0.0).unwrap();
        c.update("x", 3.0);
        c.update("y", 2.0);
        assert_eq!(c.end_cycle(), 1, "only A1 fires");
        assert_eq!(c.violations()[0].assertion.as_str(), "A1");
    }

    #[test]
    fn recovery_is_stamped_when_the_condition_heals() {
        let mut c = OnlineChecker::new([bound_assertion(1.0)]);
        drive(&mut c, &[(0.0, 5.0), (0.1, 5.0), (0.2, 0.0), (0.3, 5.0)]);
        let violations = c.violations();
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].recovered, Some(0.2));
        assert_eq!(violations[1].recovered, None, "second episode still open");
        assert_eq!(violations[0].episode_duration(), Some(0.2));
    }

    #[test]
    fn report_carries_counts() {
        let mut c = OnlineChecker::new([bound_assertion(1.0)]);
        drive(&mut c, &[(0.0, 5.0)]);
        let report = c.finish(1.0);
        assert_eq!(report.assertions_checked, 1);
        assert_eq!(report.end_time, 1.0);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.inconclusive_cycles, 0);
    }

    #[test]
    fn begin_cycle_rejects_bad_timestamps() {
        let mut c = OnlineChecker::new([bound_assertion(1.0)]);
        c.begin_cycle(0.5).unwrap();
        c.update("x", 0.0);
        c.end_cycle();
        // Regression: these used to be accepted silently, corrupting ages
        // and derivatives downstream.
        assert_eq!(
            c.begin_cycle(0.5),
            Err(CycleError::NonMonotonic {
                last: 0.5,
                attempted: 0.5
            })
        );
        assert_eq!(
            c.begin_cycle(0.2),
            Err(CycleError::NonMonotonic {
                last: 0.5,
                attempted: 0.2
            })
        );
        assert!(matches!(
            c.begin_cycle(f64::NAN),
            Err(CycleError::NonFinite { .. })
        ));
        assert!(matches!(
            c.begin_cycle(f64::INFINITY),
            Err(CycleError::NonFinite { .. })
        ));
        // A rejected timestamp leaves the checker usable.
        c.begin_cycle(0.6).unwrap();
        c.update("x", 5.0);
        assert_eq!(c.end_cycle(), 1);
    }

    #[test]
    fn nan_sample_poisons_and_goes_inconclusive() {
        let cfg = HealthConfig {
            recover_after: 2,
            ..HealthConfig::default()
        };
        let mut c = OnlineChecker::with_health([bound_assertion(1.0)], cfg);
        c.begin_cycle(0.0).unwrap();
        c.update("x", 5.0);
        assert_eq!(c.end_cycle(), 1, "finite excursion alarms");
        // A NaN burst must not produce garbage verdicts or heal the episode.
        for i in 1..=3 {
            c.begin_cycle(f64::from(i) * 0.1).unwrap();
            c.update("x", f64::NAN);
            assert_eq!(c.end_cycle(), 0);
        }
        assert_eq!(c.health(0), Some(HealthState::Degraded(1)));
        assert_eq!(c.inconclusive_cycles(), 3);
        assert_eq!(c.violations()[0].recovered, None, "no recovery on NaN");
        // Finite samples again: hysteresis holds for `recover_after` cycles,
        // then verdicts resume.
        c.begin_cycle(0.4).unwrap();
        c.update("x", 5.0);
        assert_eq!(c.end_cycle(), 0, "first clean cycle still inconclusive");
        c.begin_cycle(0.5).unwrap();
        c.update("x", 5.0);
        assert_eq!(c.end_cycle(), 1, "recovered monitor alarms afresh");
        assert_eq!(c.health(0), Some(HealthState::Active));
        let report = c.finish(1.0);
        assert_eq!(report.inconclusive_cycles, 4);
    }

    #[test]
    fn stale_input_degrades_then_suspends() {
        let cfg = HealthConfig {
            stale_after: 0.25,
            quarantine_after: 3,
            recover_after: 2,
        };
        let mut c = OnlineChecker::with_health([bound_assertion(1.0)], cfg);
        c.begin_cycle(0.0).unwrap();
        c.update("x", 0.0);
        c.end_cycle();
        assert!(c.all_active());
        // The signal goes dark while cycles keep coming.
        let mut fired = 0;
        for i in 1..10 {
            c.begin_cycle(f64::from(i) * 0.1).unwrap();
            c.update("other", 0.0);
            fired += c.end_cycle();
        }
        assert_eq!(fired, 0, "dark input never yields a verdict");
        assert_eq!(c.health(0), Some(HealthState::Suspended));
        assert!(!c.all_active());
        // The signal returns: two clean cycles complete the recovery.
        for i in 10..12 {
            c.begin_cycle(f64::from(i) * 0.1).unwrap();
            c.update("x", 0.0);
            c.end_cycle();
        }
        assert_eq!(c.health(0), Some(HealthState::Active));
    }

    #[test]
    fn input_aged_exactly_to_the_horizon_is_not_stale() {
        // Every time is a multiple of 1/8, so every age below is exact.
        let cfg = HealthConfig {
            stale_after: 0.25,
            quarantine_after: 100,
            recover_after: 2,
        };
        let y_bound = Assertion::new(
            "A2",
            "bounded y",
            Severity::Warning,
            Condition::AtMost {
                expr: SignalExpr::signal("y").abs(),
                limit: 1.0,
            },
        );
        let step = |c: &mut OnlineChecker, t: f64, with_x: bool| {
            c.begin_cycle(t).unwrap();
            if with_x {
                c.update("x", 0.0);
            }
            c.update("y", 0.0);
            c.end_cycle();
        };
        // `x_last` is x's last update before it goes dark. With 0.0 the
        // stale bound cached at the first cycle is x's own update time, so
        // the boundary cycle is decided without a scan. With 0.125 the
        // cached bound (0.0) is older than every input, so the boundary
        // cycle must re-tighten it before deciding.
        for x_last in [0.0, 0.125] {
            let mut c = OnlineChecker::with_health([bound_assertion(1.0), y_bound.clone()], cfg);
            step(&mut c, 0.0, true);
            if x_last > 0.0 {
                step(&mut c, x_last, true);
            }
            step(&mut c, x_last + 0.125, false);
            step(&mut c, x_last + 0.25, false);
            assert!(
                c.all_active(),
                "age == stale_after is fresh (x_last {x_last})"
            );
            step(&mut c, x_last + 0.375, false);
            assert_eq!(c.health(0), Some(HealthState::Degraded(1)));
            assert_eq!(c.health(1), Some(HealthState::Active));
            step(&mut c, x_last + 0.5, true);
            assert_eq!(
                c.health(0),
                Some(HealthState::Degraded(1)),
                "one clean cycle is short of recover_after"
            );
            step(&mut c, x_last + 0.625, true);
            assert!(c.all_active(), "recovered after recover_after clean cycles");
            assert_eq!(c.inconclusive_cycles(), 2);
        }
    }

    #[test]
    fn fresh_conditions_are_exempt_from_staleness() {
        // A Fresh monitor's subject *is* staleness: a health horizon tighter
        // than its max_age must not mask the alarm behind Inconclusive.
        let a = Assertion::new(
            "A13",
            "gnss fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.3,
            },
        );
        let cfg = HealthConfig {
            stale_after: 0.2,
            ..HealthConfig::default()
        };
        let mut c = OnlineChecker::with_health([a], cfg);
        c.begin_cycle(0.0).unwrap();
        c.update("gnss_x", 1.0);
        c.end_cycle();
        let mut fired = 0;
        for i in 1..8 {
            c.begin_cycle(f64::from(i) * 0.1).unwrap();
            c.update("other", 0.0);
            fired += c.end_cycle();
        }
        assert_eq!(fired, 1, "staleness alarm fires despite the horizon");
        assert_eq!(c.health(0), Some(HealthState::Active));
    }

    #[test]
    fn health_transitions_are_counted_and_emitted() {
        use adassure_obs::VecSink;

        let cfg = HealthConfig {
            recover_after: 2,
            ..HealthConfig::default()
        };
        let mut c = OnlineChecker::with_observability(
            [bound_assertion(1.0)],
            cfg,
            &ObsConfig::enabled(),
            Box::new(VecSink::default()),
        );
        drive(&mut c, &[(0.0, 0.5)]);
        drive(&mut c, &[(0.1, f64::NAN), (0.2, f64::NAN)]);
        drive(&mut c, &[(0.3, 0.5), (0.4, 0.5), (0.5, 0.5)]);
        let (_, metrics, sink) = c.finish_observed(1.0);
        // active→degraded once, degraded→active once; the Degraded(1)→
        // Degraded(1) cycle is not a transition.
        assert_eq!(metrics.health_transitions.len(), 2);
        assert!(
            metrics.health_transitions.iter().all(|tr| tr.count == 1),
            "{:?}",
            metrics.health_transitions
        );
        let events = sink.unwrap().take_events();
        let health_events: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::HealthTransition { .. }))
            .collect();
        assert_eq!(health_events.len(), 2);
        assert_eq!(
            metrics.assertions[0].verdicts.inconclusive, 3,
            "two NaN cycles plus one hysteresis cycle"
        );
    }

    #[test]
    fn disabled_observability_still_counts() {
        let mut c = OnlineChecker::new([bound_assertion(1.0)]);
        drive(&mut c, &[(0.0, 0.5), (0.1, 5.0)]);
        let metrics = c.metrics();
        assert_eq!(metrics.cycles, 2);
        assert_eq!(metrics.assertions[0].verdicts.pass, 1);
        assert_eq!(metrics.assertions[0].verdicts.violated, 1);
        assert_eq!(metrics.events_emitted, 0, "no sink, no events");
    }

    #[test]
    fn save_restore_round_trip_is_bit_identical() {
        let catalog = || {
            vec![
                bound_assertion(1.0).with_temporal(Temporal::Sustained(0.15)),
                Assertion::new(
                    "A13",
                    "gnss fresh",
                    Severity::Critical,
                    Condition::Fresh {
                        signal: "gnss_x".into(),
                        max_age: 0.3,
                    },
                ),
            ]
        };
        let cfg = HealthConfig {
            stale_after: 0.5,
            quarantine_after: 3,
            recover_after: 2,
        };
        // Telemetry that walks through degradation, suspension, recovery
        // and a mid-episode sustained excursion.
        let feed: Vec<(f64, Option<f64>, Option<f64>)> = (1..=40)
            .map(|k| {
                let t = 0.1 * k as f64;
                let x = match k % 7 {
                    0 => f64::NAN,
                    1..=3 => 2.0,
                    _ => 0.2,
                };
                let gnss = (k % 3 != 0).then_some(k as f64);
                (t, Some(x), gnss)
            })
            .collect();
        let drive_one = |c: &mut OnlineChecker, (t, x, gnss): (f64, Option<f64>, Option<f64>)| {
            c.begin_cycle(t).unwrap();
            if let Some(x) = x {
                c.update("x", x);
            }
            if let Some(g) = gnss {
                c.update("gnss_x", g);
            }
            c.end_cycle();
        };

        for cut in [1usize, 5, 13, 21, 39] {
            let mut oracle = OnlineChecker::with_health(catalog(), cfg);
            let mut live = OnlineChecker::with_health(catalog(), cfg);
            for &step in &feed[..cut] {
                drive_one(&mut oracle, step);
                drive_one(&mut live, step);
            }
            let state = live.save_state();
            let mut restored =
                OnlineChecker::restore(live.plan().clone(), cfg, state).expect("restore");
            drop(live);
            for &step in &feed[cut..] {
                drive_one(&mut oracle, step);
                drive_one(&mut restored, step);
            }
            let (oracle_report, oracle_metrics, _) = oracle.finish_observed(5.0);
            let (report, metrics, _) = restored.finish_observed(5.0);
            assert_eq!(
                serde_json::to_vec(&report).unwrap(),
                serde_json::to_vec(&oracle_report).unwrap(),
                "report diverged after restore at cut {cut}"
            );
            assert_eq!(
                serde_json::to_vec(&metrics.summary()).unwrap(),
                serde_json::to_vec(&oracle_metrics.summary()).unwrap(),
                "metrics diverged after restore at cut {cut}"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_plan() {
        let c = OnlineChecker::new([bound_assertion(1.0)]);
        let state = c.save_state();
        let other = OnlineChecker::new([bound_assertion(1.0), bound_assertion(2.0)]);
        assert!(
            OnlineChecker::restore(other.plan().clone(), HealthConfig::default(), state).is_err()
        );
    }

    #[test]
    fn open_episode_onset_tracks_standing_alarms() {
        let a1 = bound_assertion(1.0); // Critical
        let a2 = Assertion::new(
            "A2",
            "y bounded",
            Severity::Warning,
            Condition::AtMost {
                expr: SignalExpr::signal("y").abs(),
                limit: 1.0,
            },
        );
        let mut c = OnlineChecker::new([a1, a2]);
        c.begin_cycle(0.0).unwrap();
        c.update("x", 0.0);
        c.update("y", 5.0);
        c.end_cycle();
        assert_eq!(c.open_episode_onset(Severity::Critical), None);
        assert_eq!(c.open_episode_onset(Severity::Warning), Some(0.0));
        c.begin_cycle(0.1).unwrap();
        c.update("x", 5.0);
        c.update("y", 0.0);
        c.end_cycle();
        assert_eq!(c.open_episode_onset(Severity::Critical), Some(0.1));
        c.begin_cycle(0.2).unwrap();
        c.update("x", 0.0);
        c.end_cycle();
        assert_eq!(c.open_episode_onset(Severity::Info), None, "all healed");
    }
}
