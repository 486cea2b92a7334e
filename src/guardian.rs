//! Runtime guardian: the ADAssure monitor promoted from a debugging tool to
//! a runtime-assurance guard.
//!
//! [`Guardian`] wraps the full control stack
//! ([`adassure_control::pipeline::AdStack`]) together with two in-loop
//! [`OnlineChecker`]s fed the same (possibly degraded) telemetry:
//!
//! * the **primary** checker runs the catalog at its nominal thresholds and
//!   is the guardian's reporting source;
//! * the **widened** checker runs the same catalog with every threshold
//!   scaled by [`GuardianConfig::degraded_threshold_scale`] and acts as the
//!   confirmation stage for the safe stop.
//!
//! The guardian is a three-state machine. In `Nominal` it passes the
//! stack's controls through unchanged. Any triggering violation — or any
//! monitor losing telemetry health — moves it to `Degraded`, a limp-home
//! mode that keeps the nominal steering but governs acceleration so the
//! vehicle coasts down to [`GuardianConfig::degraded_speed_cap`]. Only when
//! the *widened* checker holds an open triggering episode for a full
//! [`GuardianConfig::confirm_window`] does the guardian escalate to
//! `SafeStop` (steering frozen, maximum comfortable braking). If instead
//! the telemetry heals and no triggering episode stays open for
//! [`GuardianConfig::recovery_cycles`] consecutive cycles, the guardian
//! returns to `Nominal`. This keeps transient link faults (dropouts, NaN
//! bursts, jitter) from escalating a healthy vehicle into a spurious stop —
//! the axis experiment T5 sweeps — while a genuine attack still stops the
//! car within a fraction of a second. This is the natural "from debugging
//! to runtime assurance" extension of the methodology, evaluated by
//! experiment F5.

use adassure_attacks::ChannelFaultInjector;
use adassure_control::pipeline::AdStack;
use adassure_core::assertion::Severity;
use adassure_core::{Assertion, HealthConfig, OnlineChecker, Violation};
use adassure_obs::{
    Event as ObsEvent, EventFilter, EventSink, Guard as ObsGuard, MetricsSnapshot, ObsConfig,
    TransitionGrid,
};
use adassure_sim::engine::{DriveCtx, Driver};
use adassure_sim::vehicle::Controls;
use adassure_trace::{well_known as sig, Trace};

/// Configuration of the guardian's intervention policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardianConfig {
    /// Minimum severity of a violation that triggers an intervention.
    pub trigger_severity: Severity,
    /// Braking deceleration commanded during the safe stop (m/s², positive).
    pub stop_decel: f64,
    /// Speed the limp-home governor decays towards while `Degraded` (m/s).
    pub degraded_speed_cap: f64,
    /// How long a triggering episode must stay open on the *widened*
    /// checker before `Degraded` escalates to `SafeStop` (s).
    pub confirm_window: f64,
    /// Consecutive clean cycles in `Degraded` before returning to
    /// `Nominal`.
    pub recovery_cycles: u32,
    /// Threshold scale factor of the widened confirmation catalog. Factors
    /// above 1 *loosen* every condition: `AtMost` limits and `Fresh`
    /// horizons grow, and the catalog's `AtLeast` floors are negative, so
    /// they sink further.
    pub degraded_threshold_scale: f64,
    /// Telemetry-health policy of both in-loop checkers.
    pub health: HealthConfig,
}

impl Default for GuardianConfig {
    fn default() -> Self {
        GuardianConfig {
            trigger_severity: Severity::Critical,
            stop_decel: 4.0,
            degraded_speed_cap: 4.0,
            confirm_window: 0.45,
            recovery_cycles: 50,
            degraded_threshold_scale: 1.5,
            health: HealthConfig {
                stale_after: 1.0,
                quarantine_after: 200,
                recover_after: 25,
            },
        }
    }
}

/// The guardian's operating state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardState {
    /// Passing the stack's controls through unchanged.
    Nominal,
    /// Limp-home mode: nominal steering, speed governed down to the
    /// configured cap, waiting for the widened checker to either confirm
    /// the fault or for the telemetry to heal.
    Degraded {
        /// Time the degraded mode was entered (s).
        since: f64,
    },
    /// Safe stop engaged (terminal).
    SafeStop {
        /// Time the stop was engaged (s).
        since: f64,
        /// Steering angle held during the stop (rad).
        held_steer: f64,
    },
}

/// A monitored control stack with limp-home and safe-stop fallbacks.
#[derive(Debug)]
pub struct Guardian {
    stack: AdStack,
    /// Nominal-threshold checker; the guardian's reporting source.
    primary: OnlineChecker,
    /// Loosened-threshold checker confirming escalation to the safe stop.
    widened: OnlineChecker,
    config: GuardianConfig,
    state: GuardState,
    trigger: Option<Violation>,
    clean_streak: u32,
    degraded_cycles: u64,
    fault: Option<ChannelFaultInjector>,
    /// Mode transitions (nominal/degraded/safe_stop) for observability.
    guard_grid: TransitionGrid,
    /// Guardian-level event destination (mode transitions only; checker
    /// events flow through the checkers' own sinks).
    sink: Option<Box<dyn EventSink>>,
    filter: EventFilter,
    events_emitted: u64,
    run_id: u64,
}

/// Signals the guardian forwards from the trace into the in-loop checkers.
/// (Command signals are fed directly from the stack's output, because the
/// engine records them only *after* the driver returns.)
const FORWARDED: &[&str] = &[
    sig::GNSS_X,
    sig::GNSS_Y,
    sig::GNSS_SPEED,
    sig::GNSS_JUMP,
    sig::WHEEL_SPEED,
    sig::WHEEL_ACCEL,
    sig::IMU_YAW_RATE,
    sig::IMU_ACCEL,
    sig::COMPASS_HEADING,
    sig::EST_X,
    sig::EST_Y,
    sig::EST_HEADING,
    sig::EST_SPEED,
    sig::INNOVATION,
    sig::XTRACK_ERR,
    sig::HEADING_ERR,
    sig::TARGET_SPEED,
    sig::PROGRESS,
    sig::STEER_ACTUAL,
];

impl Guardian {
    /// Wraps `stack`, monitoring it with `catalog`.
    ///
    /// Note that [`Temporal::Eventually`](adassure_core::Temporal)
    /// assertions (A12) never fire mid-run, so they are inert as triggers;
    /// include them or not as you wish.
    pub fn new(
        stack: AdStack,
        catalog: impl IntoIterator<Item = Assertion>,
        config: GuardianConfig,
    ) -> Self {
        let catalog: Vec<Assertion> = catalog.into_iter().collect();
        let widened: Vec<Assertion> = catalog
            .iter()
            .map(|a| a.with_scaled_threshold(config.degraded_threshold_scale))
            .collect();
        Guardian {
            stack,
            primary: OnlineChecker::with_health(catalog, config.health),
            widened: OnlineChecker::with_health(widened, config.health),
            config,
            state: GuardState::Nominal,
            trigger: None,
            clean_streak: 0,
            degraded_cycles: 0,
            fault: None,
            guard_grid: TransitionGrid::new(),
            sink: None,
            filter: EventFilter::none(),
            events_emitted: 0,
            run_id: 0,
        }
    }

    /// Sends guardian mode-transition events (filtered per `obs`) to
    /// `sink`. With `obs.events` off the sink is dropped and only the
    /// transition counters run.
    pub fn with_event_sink(mut self, obs: &ObsConfig, sink: Box<dyn EventSink>) -> Self {
        self.filter = obs.filter.clone();
        self.sink = obs.events.then_some(sink);
        self
    }

    /// Stamps `run` on emitted events (campaign cells use their index).
    pub fn set_run_id(&mut self, run: u64) {
        self.run_id = run;
    }

    /// Routes every forwarded telemetry sample through `injector` before it
    /// reaches the in-loop checkers, modelling a faulty monitor link. The
    /// vehicle and its control stack are unaffected.
    pub fn with_telemetry_fault(mut self, injector: ChannelFaultInjector) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Current operating state.
    pub fn state(&self) -> GuardState {
        self.state
    }

    /// The widened-checker violation that confirmed the safe stop, if
    /// engaged.
    pub fn trigger(&self) -> Option<&Violation> {
        self.trigger.as_ref()
    }

    /// All violations observed by the primary checker so far (triggering or
    /// not).
    pub fn violations(&self) -> &[Violation] {
        self.primary.violations()
    }

    /// Cycles spent in [`GuardState::Degraded`] so far.
    pub fn degraded_cycles(&self) -> u64 {
        self.degraded_cycles
    }

    /// The telemetry-fault injector, when one was installed.
    pub fn telemetry_fault(&self) -> Option<&ChannelFaultInjector> {
        self.fault.as_ref()
    }

    /// Consumes the guardian, returning the primary monitor's final report
    /// at `end_time`.
    pub fn into_report(self, end_time: f64) -> adassure_core::CheckReport {
        self.into_report_observed(end_time).0
    }

    /// [`into_report`](Guardian::into_report) plus the final metrics
    /// snapshot — unlike [`metrics`](Guardian::metrics), this includes the
    /// post-finish episode accounting (still-open `Eventually` violations
    /// raised at `end_time`) and flushes any attached event sink.
    pub fn into_report_observed(
        self,
        end_time: f64,
    ) -> (adassure_core::CheckReport, MetricsSnapshot) {
        let guard_transitions = self.guard_grid.sparse([
            ObsGuard::Nominal.name(),
            ObsGuard::Degraded.name(),
            ObsGuard::SafeStop.name(),
        ]);
        let guardian_events = self.events_emitted;
        let (report, mut snap, _sink) = self.primary.finish_observed(end_time);
        snap.guard_transitions = guard_transitions;
        snap.events_emitted += guardian_events;
        (report, snap)
    }

    /// The primary checker's metrics with the guardian's mode-transition
    /// counters and event tally folded in.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.primary.metrics();
        snap.guard_transitions = self.guard_grid.sparse([
            ObsGuard::Nominal.name(),
            ObsGuard::Degraded.name(),
            ObsGuard::SafeStop.name(),
        ]);
        snap.events_emitted += self.events_emitted;
        snap
    }

    /// Feeds one delivered telemetry value to both checkers.
    fn feed(&mut self, name: &str, value: f64) {
        self.primary.update(name, value);
        self.widened.update(name, value);
    }
}

/// Projects the payload-carrying [`GuardState`] onto the 3-state
/// observability enum.
fn obs_guard(state: GuardState) -> ObsGuard {
    match state {
        GuardState::Nominal => ObsGuard::Nominal,
        GuardState::Degraded { .. } => ObsGuard::Degraded,
        GuardState::SafeStop { .. } => ObsGuard::SafeStop,
    }
}

impl Driver for Guardian {
    fn control(&mut self, ctx: &DriveCtx<'_>, trace: &mut Trace) -> Controls {
        let nominal = self.stack.control(ctx, trace);

        // Feed this cycle's signals to the in-loop checkers. Sensor and
        // pipeline signals were recorded into the trace this cycle (by the
        // engine and the stack respectively); command signals come from the
        // controls we are about to return.
        self.primary
            .begin_cycle(ctx.time)
            .expect("engine cycles are strictly time-ordered");
        self.widened
            .begin_cycle(ctx.time)
            .expect("engine cycles are strictly time-ordered");
        for name in FORWARDED {
            if let Some(sample) = trace.series_by_name(name).and_then(|s| s.last()) {
                // Actuator feedback is recorded by the engine *after* the
                // driver returns, so its newest sample is one cycle old —
                // feed it anyway (sample-and-hold). Every other signal must
                // carry this cycle's timestamp, so that e.g. the GNSS
                // freshness assertion still sees fixes age.
                let fresh_enough = if *name == sig::STEER_ACTUAL {
                    sample.time >= ctx.time - ctx.dt * 1.5
                } else {
                    sample.time == ctx.time
                };
                if !fresh_enough {
                    continue;
                }
                match &mut self.fault {
                    Some(injector) => {
                        let delivered = injector.apply(name, ctx.time, sample.value);
                        for value in delivered.as_slice() {
                            self.primary.update(*name, *value);
                            self.widened.update(*name, *value);
                        }
                    }
                    None => self.feed(name, sample.value),
                }
            }
        }
        // The guardian observes its own output directly; the telemetry link
        // sits between the stack and the monitor, not here.
        self.feed(sig::STEER_CMD, nominal.steer);
        self.feed(sig::ACCEL_CMD, nominal.accel);
        let fresh = self.primary.end_cycle();
        self.widened.end_cycle();

        let trigger_severity = self.config.trigger_severity;
        let fresh_trigger = fresh > 0
            && self
                .primary
                .violations()
                .iter()
                .rev()
                .take(fresh)
                .any(|v| v.severity >= trigger_severity);

        let prev_mode = obs_guard(self.state);
        match self.state {
            GuardState::Nominal => {
                if fresh_trigger || !self.primary.all_active() {
                    self.state = GuardState::Degraded { since: ctx.time };
                    self.clean_streak = 0;
                }
            }
            GuardState::Degraded { .. } => {
                let confirmed = self
                    .widened
                    .open_episode_onset(trigger_severity)
                    .is_some_and(|onset| ctx.time - onset >= self.config.confirm_window);
                if confirmed {
                    self.trigger = self
                        .widened
                        .violations()
                        .iter()
                        .rev()
                        .find(|v| v.severity >= trigger_severity && v.recovered.is_none())
                        .cloned();
                    self.state = GuardState::SafeStop {
                        since: ctx.time,
                        held_steer: nominal.steer,
                    };
                } else {
                    let alarm = fresh_trigger
                        || self.primary.open_episode_onset(trigger_severity).is_some()
                        || self.widened.open_episode_onset(trigger_severity).is_some();
                    if alarm {
                        // A standing violation is positive evidence against
                        // recovery: start the count over.
                        self.clean_streak = 0;
                    } else if self.primary.all_active() {
                        self.clean_streak += 1;
                        if self.clean_streak >= self.config.recovery_cycles {
                            self.state = GuardState::Nominal;
                            self.clean_streak = 0;
                        }
                    }
                    // Otherwise the telemetry is inconclusive: evidence for
                    // neither recovery nor fault, so the streak *freezes*.
                    // Resetting here would let a flaky-but-healthy link —
                    // one NaN every few hundred cycles — pin the guardian
                    // in Degraded forever (see DESIGN.md §8).
                }
            }
            GuardState::SafeStop { .. } => {}
        }
        let new_mode = obs_guard(self.state);
        if new_mode != prev_mode {
            self.guard_grid.record(prev_mode.index(), new_mode.index());
            let ev = ObsEvent::GuardTransition {
                run: self.run_id,
                t: ctx.time,
                from: prev_mode,
                to: new_mode,
            };
            if let Some(sink) = &mut self.sink {
                if self.filter.accepts(&ev) {
                    sink.emit(ev);
                    self.events_emitted += 1;
                }
            }
        }

        match self.state {
            GuardState::Nominal => nominal,
            GuardState::Degraded { .. } => {
                self.degraded_cycles += 1;
                // Govern towards the cap using the stack's own speed
                // estimate from the trace — the telemetry link faults only
                // the monitor's copy, not the stack's record.
                let speed = trace
                    .series_by_name(sig::EST_SPEED)
                    .and_then(|s| s.last())
                    .map_or(0.0, |s| s.value);
                let governed = nominal
                    .accel
                    .min(self.config.degraded_speed_cap - speed)
                    .max(-self.config.stop_decel);
                Controls::new(nominal.steer, governed)
            }
            GuardState::SafeStop { held_steer, .. } => {
                Controls::new(held_steer, -self.config.stop_decel)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adassure_attacks::{campaign::AttackSpec, AttackKind, FaultKind, FaultSpec, Window};
    use adassure_control::ControllerKind;
    use adassure_core::catalog::{self, CatalogConfig};
    use adassure_scenarios::{run, Scenario, ScenarioKind};
    use adassure_sim::engine::Engine;
    use adassure_sim::geometry::Vec2;

    fn guardian_for(scenario: &Scenario) -> Guardian {
        let stack = AdStack::new(
            run::stack_config(scenario, ControllerKind::PurePursuit),
            scenario.track.clone(),
        );
        let cat = catalog::build(&CatalogConfig::default());
        Guardian::new(stack, cat, GuardianConfig::default())
    }

    #[test]
    fn clean_run_stays_nominal() {
        let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        let mut guardian = guardian_for(&scenario);
        let out = run::engine_for(&scenario, 1).run(&mut guardian).unwrap();
        assert!(out.reached_goal);
        assert_eq!(guardian.state(), GuardState::Nominal);
        assert!(guardian.trigger().is_none());
        assert_eq!(guardian.degraded_cycles(), 0);
    }

    #[test]
    fn jump_attack_engages_safe_stop_and_vehicle_halts() {
        let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        let mut guardian = guardian_for(&scenario);
        let attack = AttackSpec::new(
            AttackKind::GnssJump {
                offset: Vec2::new(12.0, 8.0),
            },
            Window::from_start(scenario.attack_start),
        );
        let mut injector = attack.injector(1);
        let engine: Engine = run::engine_for(&scenario, 1);
        let out = engine.run_with_tap(&mut guardian, &mut injector).unwrap();
        match guardian.state() {
            GuardState::SafeStop { since, .. } => {
                assert!(since >= scenario.attack_start);
                assert!(since < scenario.attack_start + 1.0, "engaged at {since}");
            }
            other => panic!("guardian must stop under a jump attack, got {other:?}"),
        }
        assert!(guardian.trigger().is_some());
        assert!(
            guardian.degraded_cycles() > 0,
            "the stop is reached through the degraded mode"
        );
        assert!(
            out.final_state.speed < 0.1,
            "vehicle should be stopped, speed {}",
            out.final_state.speed
        );
        assert!(!out.reached_goal);
    }

    #[test]
    fn severity_filter_ignores_low_severity_violations() {
        use adassure_core::{Condition, SignalExpr};
        let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        let stack = AdStack::new(
            run::stack_config(&scenario, ControllerKind::PurePursuit),
            scenario.track.clone(),
        );
        // A warning-severity assertion that always fires once moving.
        let nag = Assertion::new(
            "NAG",
            "always fires",
            Severity::Warning,
            Condition::AtMost {
                expr: SignalExpr::signal(sig::EST_SPEED),
                limit: 0.5,
            },
        )
        .with_grace(5.0);
        let mut guardian = Guardian::new(stack, [nag], GuardianConfig::default());
        let out = run::engine_for(&scenario, 1).run(&mut guardian).unwrap();
        assert_eq!(
            guardian.state(),
            GuardState::Nominal,
            "warnings must not stop the car"
        );
        assert!(
            !guardian.violations().is_empty(),
            "but they are still logged"
        );
        assert!(out.reached_goal);
    }

    #[test]
    fn report_is_available_after_the_run() {
        let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        let mut guardian = guardian_for(&scenario);
        let attack = AttackSpec::new(AttackKind::GnssDropout, Window::from_start(12.0));
        let mut injector = attack.injector(2);
        let out = run::engine_for(&scenario, 2)
            .run_with_tap(&mut guardian, &mut injector)
            .unwrap();
        let end = out.trace.span().unwrap().1;
        let report = guardian.into_report(end);
        assert!(report.violations_of("A13").next().is_some());
    }

    #[test]
    fn monitor_link_dropout_does_not_false_stop() {
        // A clean vehicle whose *telemetry link* loses 20% of its samples,
        // across the whole F5 scenario set: the guardian may degrade
        // transiently but must never stop the car, and must be back to
        // nominal once the fault clears.
        for kind in ScenarioKind::GUARDIAN_SET {
            let scenario = Scenario::of_kind(kind).unwrap();
            let fault = FaultSpec::new(
                FaultKind::Dropout,
                0.2,
                Window::new(scenario.attack_start, scenario.attack_start + 30.0),
            );
            let mut guardian = guardian_for(&scenario).with_telemetry_fault(fault.injector(5));
            let out = run::engine_for(&scenario, 5).run(&mut guardian).unwrap();
            assert!(
                out.reached_goal,
                "{kind}: a governed run still reaches the goal"
            );
            assert_eq!(
                guardian.state(),
                GuardState::Nominal,
                "{kind}: dropout alone must not strand the guardian"
            );
            assert!(
                guardian.trigger().is_none(),
                "{kind}: and must not stop the car"
            );
            let inj = guardian.telemetry_fault().unwrap();
            assert!(inj.dropped() > 0, "{kind}: the fault must actually fire");
            for v in guardian.violations() {
                assert!(v.value.is_finite(), "{kind}: values stay finite: {v:?}");
            }
        }
    }

    #[test]
    fn nan_burst_degrades_then_recovers() {
        // NaN storms on the link poison monitor inputs: the checkers go
        // inconclusive instead of raising Critical alarms, the guardian
        // limps home, and once the storm passes it returns to nominal.
        let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        let fault = FaultSpec::new(
            FaultKind::NanBurst,
            0.3,
            Window::new(scenario.attack_start, scenario.attack_start + 8.0),
        );
        let mut guardian = guardian_for(&scenario).with_telemetry_fault(fault.injector(9));
        let out = run::engine_for(&scenario, 9).run(&mut guardian).unwrap();
        assert_eq!(
            guardian.state(),
            GuardState::Nominal,
            "guardian must recover once the storm passes"
        );
        assert!(guardian.trigger().is_none(), "no safe stop");
        assert!(
            guardian.degraded_cycles() > 0,
            "poisoned telemetry must have degraded the guardian"
        );
        let end = out.trace.span().unwrap().1;
        let report = guardian.into_report(end);
        assert!(
            report.inconclusive_cycles > 0,
            "poisoned cycles surface as inconclusive, not as violations"
        );
    }

    #[test]
    fn flaky_link_freezes_streak_and_still_recovers() {
        // Regression for the recovery-streak reset: a *persistent* flaky
        // link (one NaN every few hundred samples, until the end of the
        // run) keeps interrupting the guardian's clean streak with
        // Inconclusive cycles. Those cycles are evidence of nothing, so
        // they must freeze the streak, not reset it — with a reset, the
        // streak can never span `recovery_cycles` consecutive cycles and
        // the guardian stays Degraded forever on a healthy vehicle.
        use adassure_obs::VecSink;

        let scenario = Scenario::of_kind(ScenarioKind::Straight).unwrap();
        let fault = FaultSpec::new(
            FaultKind::NanBurst,
            0.001,
            Window::from_start(scenario.attack_start),
        );
        // A recovery window much longer than the typical gap between NaN
        // hits: cumulative clean cycles reach it easily, consecutive ones
        // never would.
        let config = GuardianConfig {
            recovery_cycles: 400,
            ..GuardianConfig::default()
        };
        let stack = AdStack::new(
            run::stack_config(&scenario, ControllerKind::PurePursuit),
            scenario.track.clone(),
        );
        let cat = catalog::build(&CatalogConfig::default());
        let mut guardian = Guardian::new(stack, cat, config)
            .with_telemetry_fault(fault.injector(11))
            .with_event_sink(&ObsConfig::enabled(), Box::new(VecSink::default()));
        run::engine_for(&scenario, 11).run(&mut guardian).unwrap();

        assert!(guardian.trigger().is_none(), "no safe stop on a flaky link");
        let metrics = guardian.metrics();
        let recoveries = metrics
            .guard_transitions
            .iter()
            .find(|t| t.from == "degraded" && t.to == "nominal")
            .map_or(0, |t| t.count);
        assert!(
            recoveries >= 1,
            "frozen streak must let the guardian recover; transitions: {:?}",
            metrics.guard_transitions
        );
        assert!(
            !metrics
                .guard_transitions
                .iter()
                .any(|t| t.to == "safe_stop"),
            "flakiness alone must never escalate"
        );
        assert!(
            metrics.events_emitted >= 2,
            "transitions were emitted as events"
        );
    }
}
