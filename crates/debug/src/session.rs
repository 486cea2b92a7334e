//! The steppable debug session: one deterministic run, driven cycle by
//! cycle with an online checker in the loop and periodic checkpoints.
//!
//! A [`DebugSession`] reproduces exactly what the campaign engine's
//! `execute` would compute for the same spec — the engine loop is
//! [`adassure_sim::engine::SimSession`], the checker is fed each cycle's
//! samples in the same name-sorted order `checker::for_each_cycle` uses
//! offline, and the catalog is the campaign's standard catalog — so every
//! verdict observed live matches the offline report bit for bit.
//!
//! Time travel is checkpoint + fast-forward: [`DebugSession::run_to`]
//! restores the nearest checkpoint at or before the target cycle and
//! steps deterministically from there.

use adassure_attacks::{AttackTimeline, MultiInjector};
use adassure_control::pipeline::{AdStack, EstimatorKind};
use adassure_control::ControllerKind;
use adassure_core::checker;
use adassure_core::expr::Env;
use adassure_core::online::HealthState;
use adassure_core::{
    Assertion, CheckReport, Condition, HealthConfig, OnlineChecker, RunContext, Violation,
};
use adassure_exp::campaign::standard_catalog;
use adassure_exp::RunSpec;
use adassure_obs::Verdict;
use adassure_scenarios::{run, ReproCase, ReproExpectation, Scenario, ScenarioKind};
use adassure_sim::engine::{SimOutput, SimSession};
use adassure_sim::vehicle::VehicleState;
use adassure_trace::SignalId;

use crate::checkpoint::SimCheckpoint;
use crate::DebugError;

/// Everything that pins one deterministic run: the debugging analogue of
/// a campaign `RunSpec`, with the attack generalised to a timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DebugSpec {
    /// The scenario to drive.
    pub scenario: ScenarioKind,
    /// The lateral controller under test.
    pub controller: ControllerKind,
    /// The state estimator under test.
    pub estimator: EstimatorKind,
    /// The simulation seed.
    pub seed: u64,
    /// The attack timeline (empty = clean run).
    pub timeline: AttackTimeline,
}

impl DebugSpec {
    /// Lifts a campaign grid cell into a debug spec (its attack becomes a
    /// one-entry timeline, which injects identically).
    pub fn from_run_spec(spec: &RunSpec) -> Self {
        DebugSpec {
            scenario: spec.scenario,
            controller: spec.controller,
            estimator: spec.estimator,
            seed: spec.seed,
            timeline: match spec.attack {
                Some(attack) => AttackTimeline::single(attack),
                None => AttackTimeline::new([]),
            },
        }
    }

    /// Lifts a stored repro case into a debug spec.
    pub fn from_repro(case: &ReproCase) -> Self {
        DebugSpec {
            scenario: case.scenario,
            controller: case.controller,
            estimator: case.estimator,
            seed: case.seed,
            timeline: case.timeline.clone(),
        }
    }

    /// Packages this spec (with a possibly edited timeline) as a
    /// self-contained repro case.
    pub fn repro_case(
        &self,
        description: impl Into<String>,
        timeline: AttackTimeline,
        expect: ReproExpectation,
    ) -> ReproCase {
        ReproCase {
            description: description.into(),
            scenario: self.scenario,
            controller: self.controller,
            estimator: self.estimator,
            seed: self.seed,
            timeline,
            expect,
        }
    }

    /// The context stamp for reports produced from this spec.
    pub fn context(&self) -> RunContext {
        RunContext {
            seed: self.seed,
            scenario: self.scenario.name().to_owned(),
            controller: self.controller.name().to_owned(),
            estimator: self.estimator.name().to_owned(),
            attack: match self.timeline.len() {
                0 => None,
                1 => Some(self.timeline.entries[0].name().to_owned()),
                n => Some(format!("timeline[{n}]")),
            },
        }
    }
}

/// The last recorded value of one signal at inspection time.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalValue {
    /// Signal name.
    pub name: String,
    /// Timestamp of the last sample (s).
    pub time: f64,
    /// Last recorded value.
    pub value: f64,
}

/// One assertion's view of the run at inspection time.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionDump {
    /// Assertion id (e.g. `"A7"`).
    pub id: String,
    /// Human-readable invariant.
    pub description: String,
    /// The monitor's verdict at the last completed cycle.
    pub verdict: Verdict,
    /// The monitor's telemetry-health state.
    pub health: HealthState,
    /// Value of the compiled monitored expression at the last completed
    /// cycle (for freshness assertions: the observed signal age), when
    /// its inputs have been seen.
    pub value: Option<f64>,
}

/// Everything [`DebugSession::inspect`] reveals about the paused run.
#[derive(Debug, Clone)]
pub struct StateDump {
    /// Completed cycles (the pause point).
    pub cycle: u64,
    /// Timestamp of the last completed cycle (s); 0 before the first.
    pub time: f64,
    /// Ground-truth vehicle state.
    pub vehicle: VehicleState,
    /// Last value of every recorded signal, name-sorted.
    pub signals: Vec<SignalValue>,
    /// Per-assertion verdict, health and expression value.
    pub assertions: Vec<AssertionDump>,
    /// Violations detected so far, in detection order.
    pub violations: Vec<Violation>,
}

/// A steppable, checkpointing, time-travelling debug run.
#[derive(Debug)]
pub struct DebugSession {
    spec: DebugSpec,
    session: SimSession,
    stack: AdStack,
    injector: MultiInjector,
    checker: OnlineChecker,
    interval: u64,
    checkpoints: Vec<SimCheckpoint>,
}

impl DebugSession {
    /// Opens a session over `spec`, capturing a checkpoint every
    /// `interval` cycles (the initial state is always checkpoint 0). The
    /// catalog is the campaign's standard catalog for the scenario.
    ///
    /// # Errors
    ///
    /// [`DebugError::BadSpec`] for a zero interval and
    /// [`DebugError::Sim`] for an invalid scenario.
    pub fn new(spec: &DebugSpec, interval: u64) -> Result<Self, DebugError> {
        if interval == 0 {
            return Err(DebugError::BadSpec(
                "checkpoint interval must be at least 1 cycle".into(),
            ));
        }
        let scenario = Scenario::of_kind(spec.scenario)?;
        let catalog = standard_catalog(&scenario);
        Self::with_catalog(spec, interval, &scenario, catalog)
    }

    /// [`DebugSession::new`] with an explicit catalog (ablation debugging).
    ///
    /// # Errors
    ///
    /// [`DebugError::Sim`] for an invalid scenario configuration.
    pub fn with_catalog(
        spec: &DebugSpec,
        interval: u64,
        scenario: &Scenario,
        catalog: Vec<Assertion>,
    ) -> Result<Self, DebugError> {
        let config = run::stack_config(scenario, spec.controller).with_estimator(spec.estimator);
        let stack = AdStack::new(config, scenario.track.clone());
        let engine = run::engine_for(scenario, spec.seed);
        let session = engine.session()?;
        let injector = spec.timeline.injector(spec.seed);
        let checker = OnlineChecker::new(catalog);
        let mut this = DebugSession {
            spec: spec.clone(),
            session,
            stack,
            injector,
            checker,
            interval,
            checkpoints: Vec::new(),
        };
        let initial = this.capture();
        this.checkpoints.push(initial);
        Ok(this)
    }

    /// The session's spec.
    pub fn spec(&self) -> &DebugSpec {
        &self.spec
    }

    /// Completed cycles so far.
    pub fn cycle(&self) -> u64 {
        self.session.steps() as u64
    }

    /// Whether the run has ended.
    pub fn is_done(&self) -> bool {
        self.session.is_done()
    }

    /// The checkpoints captured so far, in cycle order.
    pub fn checkpoints(&self) -> &[SimCheckpoint] {
        &self.checkpoints
    }

    /// Violations detected so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        self.checker.violations()
    }

    /// Runs one cycle (sense → attack → control → actuate → integrate)
    /// and feeds the cycle's recorded samples to the online checker.
    /// Returns `Ok(false)` once the run is over (nothing was executed).
    ///
    /// # Errors
    ///
    /// [`DebugError::Sim`] on numerical divergence; [`DebugError::Checker`]
    /// if the replay loop produced a non-monotone cycle (a bug).
    pub fn step(&mut self) -> Result<bool, DebugError> {
        if self.session.is_done() {
            return Ok(false);
        }
        let t = self.session.time();
        if !self.session.step(&mut self.stack, &mut self.injector)? {
            return Ok(false);
        }
        // Feed the checker this cycle's samples: every signal recorded at
        // timestamp t, in name-sorted order — exactly the stream
        // `checker::for_each_cycle` reconstructs offline, so live and
        // offline verdicts agree cycle for cycle.
        self.checker
            .begin_cycle(t)
            .map_err(|e| DebugError::Checker(format!("cycle at t={t}: {e}")))?;
        let mut updates: Vec<(SignalId, f64)> = Vec::with_capacity(32);
        for series in self.session.trace().iter() {
            if let Some(sample) = series.last() {
                if sample.time == t {
                    updates.push((series.id().clone(), sample.value));
                }
            }
        }
        for (id, value) in updates {
            self.checker.update(id, value);
        }
        self.checker.end_cycle();
        if self.cycle().is_multiple_of(self.interval) {
            let cp = self.capture();
            self.checkpoints.push(cp);
        }
        Ok(true)
    }

    /// Runs to the end of the run.
    ///
    /// # Errors
    ///
    /// See [`DebugSession::step`].
    pub fn run_to_end(&mut self) -> Result<(), DebugError> {
        while self.step()? {}
        Ok(())
    }

    /// Time travel: positions the session exactly at `cycle` completed
    /// cycles. Backward jumps restore the nearest checkpoint at or before
    /// the target and fast-forward deterministically; forward jumps just
    /// step.
    ///
    /// # Errors
    ///
    /// [`DebugError::BadSpec`] when the run ends before `cycle`;
    /// restore/step errors as in [`DebugSession::step`].
    pub fn run_to(&mut self, cycle: u64) -> Result<(), DebugError> {
        if cycle < self.cycle() {
            let nearest = self
                .checkpoints
                .iter()
                .rev()
                .find(|cp| cp.cycle <= cycle)
                .cloned()
                .ok_or_else(|| {
                    DebugError::Restore(format!("no checkpoint at or before cycle {cycle}"))
                })?;
            self.restore_checkpoint(&nearest)?;
        }
        while self.cycle() < cycle {
            if !self.step()? {
                return Err(DebugError::BadSpec(format!(
                    "run ended at cycle {} before reaching cycle {cycle}",
                    self.cycle()
                )));
            }
        }
        Ok(())
    }

    /// Captures the complete current state as a checkpoint (engine loop,
    /// injectors, checker, stack).
    pub fn capture(&self) -> SimCheckpoint {
        SimCheckpoint {
            cycle: self.cycle(),
            sim: self.session.snapshot(),
            injectors: self.injector.state(),
            checker: self.checker.save_state(),
            driver: self.stack.save_state(),
        }
    }

    /// Reinstates a checkpoint captured from a session over the same
    /// spec. Stepping on from here is bit-identical to the uninterrupted
    /// run.
    ///
    /// # Errors
    ///
    /// [`DebugError::Restore`] when the checkpoint's stack, injector or
    /// checker shape does not match this session.
    pub fn restore_checkpoint(&mut self, cp: &SimCheckpoint) -> Result<(), DebugError> {
        self.stack
            .restore_state(&cp.driver)
            .map_err(DebugError::Restore)?;
        self.injector
            .restore(&cp.injectors)
            .map_err(DebugError::Restore)?;
        self.checker = OnlineChecker::restore(
            self.checker.plan().clone(),
            HealthConfig::default(),
            cp.checker.clone(),
        )
        .map_err(|e| DebugError::Restore(format!("checker: {e}")))?;
        self.session.restore(&cp.sim);
        Ok(())
    }

    /// Dumps everything visible at the current pause point: signals,
    /// per-assertion verdicts/health and compiled-expression values, and
    /// the violations so far.
    ///
    /// Expression values are recomputed by replaying the recorded trace
    /// through [`checker::replay`], so they carry the exact online
    /// evaluation semantics (derivative windows, staleness, angle
    /// wrapping) at the paused cycle.
    pub fn inspect(&self) -> StateDump {
        let trace = self.session.trace();
        let monitors = self.checker.plan().clone();
        let mut values: Vec<Option<f64>> = vec![None; monitors.monitors().len()];
        checker::replay(trace, |_t, env| {
            for (slot, m) in monitors.monitors().iter().enumerate() {
                values[slot] = condition_value(&m.assertion().condition, env);
            }
        });
        let state = self.checker.save_state();
        let assertions = monitors
            .monitors()
            .iter()
            .zip(&state.monitors)
            .zip(values)
            .map(|((m, snap), value)| AssertionDump {
                id: m.assertion().id.as_str().to_owned(),
                description: m.assertion().description.clone(),
                verdict: snap.last_verdict,
                health: snap.health,
                value,
            })
            .collect();
        let signals = trace
            .iter()
            .filter_map(|series| {
                series.last().map(|sample| SignalValue {
                    name: series.id().as_str().to_owned(),
                    time: sample.time,
                    value: sample.value,
                })
            })
            .collect();
        StateDump {
            cycle: self.cycle(),
            time: trace.span().map_or(0.0, |(_, b)| b),
            vehicle: *self.session.state(),
            signals,
            assertions,
            violations: self.checker.violations().to_vec(),
        }
    }

    /// Closes the session into the run output and final report, stamped
    /// with the spec's context. The report is identical to what
    /// `adassure_core::checker::check` computes offline over the same
    /// trace (and therefore to the campaign's for a one-attack timeline).
    pub fn finish(self) -> (SimOutput, CheckReport) {
        let context = self.spec.context();
        let output = self.session.finish();
        let end = output.trace.span().map_or(0.0, |(_, b)| b);
        let mut report = self.checker.finish(end);
        report.context = Some(context);
        (output, report)
    }
}

/// The value the online monitor evaluates for a condition: the compiled
/// expression for bounds, the observed staleness for freshness.
fn condition_value(condition: &Condition, env: &Env) -> Option<f64> {
    match condition {
        Condition::AtMost { expr, .. } | Condition::AtLeast { expr, .. } => expr.eval(env),
        Condition::Fresh { signal, .. } => env.age(signal),
    }
}
