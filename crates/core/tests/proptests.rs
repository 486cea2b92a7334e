//! Property-based tests of the assertion engine's invariants.

use std::collections::BTreeSet;

use adassure_core::assertion::{Assertion, Condition, Eval, Severity, Temporal};
use adassure_core::catalog::{CatalogConfig, Thresholds};
use adassure_core::expr::Env;
use adassure_core::mining::{mine_bounds, MiningConfig};
use adassure_core::violation::Violation;
use adassure_core::{checker, lane, HealthConfig, OnlineChecker, SignalExpr};
use adassure_obs::{NullSink, ObsConfig};
use adassure_trace::{ColumnarTrace, SignalId, Trace};
use proptest::prelude::*;

/// The tree-walking temporal monitor the online checker implemented before
/// catalog compilation, kept as the differential oracle: it evaluates
/// [`Condition::eval`] against the by-name [`Env`] every cycle, with no
/// interning, no bytecode and no dirty-skipping. Extended with the same
/// telemetry-health semantics as the compiled checker (poisoned inputs,
/// staleness horizon, quarantine and hysteretic recovery), expressed over
/// signal names instead of slots.
struct ReferenceChecker {
    env: Env,
    health_config: HealthConfig,
    poisoned: BTreeSet<SignalId>,
    monitors: Vec<ReferenceMonitor>,
    violations: Vec<Violation>,
    cycles: u64,
}

struct ReferenceMonitor {
    assertion: Assertion,
    inputs: BTreeSet<SignalId>,
    staleness_exempt: bool,
    health_active: bool,
    degraded_streak: u32,
    clean_streak: u32,
    episode_start: Option<f64>,
    alarmed_this_episode: bool,
    ever_healthy: bool,
    saw_first_sample: bool,
    open_violation: Option<usize>,
}

impl ReferenceChecker {
    fn new(catalog: impl IntoIterator<Item = Assertion>) -> Self {
        ReferenceChecker::with_health(catalog, HealthConfig::default())
    }

    fn with_health(
        catalog: impl IntoIterator<Item = Assertion>,
        health_config: HealthConfig,
    ) -> Self {
        ReferenceChecker {
            env: Env::new(),
            health_config,
            poisoned: BTreeSet::new(),
            monitors: catalog
                .into_iter()
                .map(|assertion| ReferenceMonitor {
                    inputs: assertion.signals().into_iter().collect(),
                    staleness_exempt: matches!(assertion.condition, Condition::Fresh { .. }),
                    health_active: true,
                    degraded_streak: 0,
                    clean_streak: 0,
                    assertion,
                    episode_start: None,
                    alarmed_this_episode: false,
                    ever_healthy: false,
                    saw_first_sample: false,
                    open_violation: None,
                })
                .collect(),
            violations: Vec::new(),
            cycles: 0,
        }
    }

    fn begin_cycle(&mut self, t: f64) {
        self.env.set_time(t);
    }

    fn update(&mut self, signal: &SignalId, value: f64) {
        if value.is_finite() {
            self.env.update(signal, value);
            self.poisoned.remove(signal);
        } else {
            self.poisoned.insert(signal.clone());
        }
    }

    fn end_cycle(&mut self) -> usize {
        let t = self.env.now();
        let before = self.violations.len();
        for monitor in &mut self.monitors {
            if t < monitor.assertion.grace {
                continue;
            }
            let missing = monitor
                .inputs
                .iter()
                .filter(|sig| {
                    self.poisoned.contains(*sig)
                        || (!monitor.staleness_exempt
                            && self
                                .env
                                .age(sig)
                                .is_some_and(|age| age > self.health_config.stale_after))
                })
                .count();
            let eval = if missing > 0 {
                monitor.clean_streak = 0;
                monitor.degraded_streak = monitor.degraded_streak.saturating_add(1);
                monitor.health_active = false;
                Eval::Inconclusive
            } else {
                monitor.degraded_streak = 0;
                if !monitor.health_active {
                    monitor.clean_streak = monitor.clean_streak.saturating_add(1);
                    if monitor.clean_streak >= self.health_config.recover_after {
                        monitor.health_active = true;
                        monitor.clean_streak = 0;
                    }
                }
                if monitor.health_active {
                    monitor.assertion.condition.eval(&self.env)
                } else {
                    Eval::Inconclusive
                }
            };
            match eval {
                Eval::Unknown | Eval::Inconclusive => {
                    monitor.episode_start = None;
                    monitor.alarmed_this_episode = false;
                    monitor.open_violation = None;
                }
                Eval::Healthy => {
                    if let Some(idx) = monitor.open_violation.take() {
                        self.violations[idx].recovered = Some(t);
                    }
                    monitor.episode_start = None;
                    monitor.alarmed_this_episode = false;
                    monitor.ever_healthy = true;
                    monitor.saw_first_sample = true;
                }
                Eval::Violated(value) => {
                    monitor.saw_first_sample = true;
                    let onset = *monitor.episode_start.get_or_insert(t);
                    let should_alarm = match monitor.assertion.temporal {
                        Temporal::Immediate => !monitor.alarmed_this_episode,
                        Temporal::Sustained(d) => !monitor.alarmed_this_episode && t - onset >= d,
                        Temporal::Eventually => false,
                    };
                    if should_alarm {
                        monitor.alarmed_this_episode = true;
                        monitor.open_violation = Some(self.violations.len());
                        self.violations.push(Violation {
                            assertion: monitor.assertion.id.clone(),
                            severity: monitor.assertion.severity,
                            onset,
                            detected: t,
                            value,
                            cycle: self.cycles,
                            recovered: None,
                        });
                    }
                }
            }
        }
        self.cycles += 1;
        self.violations.len() - before
    }

    fn finish(mut self, end_time: f64) -> Vec<Violation> {
        for monitor in &mut self.monitors {
            if monitor.assertion.temporal == Temporal::Eventually
                && monitor.saw_first_sample
                && !monitor.ever_healthy
            {
                self.violations.push(Violation {
                    assertion: monitor.assertion.id.clone(),
                    severity: monitor.assertion.severity,
                    onset: monitor.assertion.grace,
                    detected: end_time,
                    value: f64::NAN,
                    cycle: self.cycles,
                    recovered: None,
                });
            }
        }
        self.violations
    }
}

/// Bitwise comparison of violation lists: both evaluators run the same
/// floating-point operations in the same order, so even NaN payloads (the
/// `Eventually` finish marker) must match bit for bit.
fn assert_same_violations(compiled: &[Violation], reference: &[Violation]) {
    assert_eq!(compiled.len(), reference.len(), "violation counts differ");
    for (c, r) in compiled.iter().zip(reference) {
        assert_eq!(c.assertion, r.assertion);
        assert_eq!(c.severity, r.severity);
        assert_eq!(c.onset.to_bits(), r.onset.to_bits(), "onset differs");
        assert_eq!(
            c.detected.to_bits(),
            r.detected.to_bits(),
            "detected differs"
        );
        assert_eq!(c.value.to_bits(), r.value.to_bits(), "value differs");
        assert_eq!(c.cycle, r.cycle, "cycle index differs");
        assert_eq!(
            c.recovered.map(f64::to_bits),
            r.recovered.map(f64::to_bits),
            "recovery differs"
        );
    }
}

/// Signal alphabet for the differential property: a mix of canonical
/// (interned through the well-known fast path) and dynamic names.
const DIFF_SIGNALS: &[&str] = &["gnss_x", "wheel_speed", "custom_a", "custom_b"];

/// A channel no generated assertion reads: its samples must change nothing.
const UNREAD_SIGNAL: &str = "custom_unread";

/// Expression trees over [`DIFF_SIGNALS`] with small constants, so values
/// stay in a range where both evaluators exercise all verdicts.
fn arb_diff_expr() -> impl Strategy<Value = SignalExpr> {
    let signal = 0..DIFF_SIGNALS.len();
    let leaf = prop_oneof![
        signal
            .clone()
            .prop_map(|i| SignalExpr::signal(DIFF_SIGNALS[i])),
        (-10.0f64..10.0).prop_map(SignalExpr::constant),
        signal
            .clone()
            .prop_map(|i| SignalExpr::derivative(DIFF_SIGNALS[i])),
        signal.prop_map(|i| SignalExpr::angular_derivative(DIFF_SIGNALS[i])),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(SignalExpr::abs),
            inner.clone().prop_map(SignalExpr::neg),
            inner.clone().prop_map(SignalExpr::tan),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.angle_diff(b)),
        ]
    })
}

/// Every expression shape the compiler lowers to a dedicated kernel
/// (`compile::Kernel`), over [`DIFF_SIGNALS`] with random constants.
/// Random trees rarely hit the multi-node shapes, so they are generated
/// directly; `Fresh` is [`arb_diff_condition`]'s own choice.
fn arb_kernel_expr() -> impl Strategy<Value = SignalExpr> {
    let sig = (0..DIFF_SIGNALS.len())
        .prop_map(|i| SignalExpr::signal(DIFF_SIGNALS[i]))
        .boxed();
    let deriv = (0..DIFF_SIGNALS.len())
        .prop_map(|i| SignalExpr::derivative(DIFF_SIGNALS[i]))
        .boxed();
    let angular =
        (0..DIFF_SIGNALS.len()).prop_map(|i| SignalExpr::angular_derivative(DIFF_SIGNALS[i]));
    prop_oneof![
        sig.clone(),
        sig.clone().prop_map(SignalExpr::abs),
        deriv.clone(),
        deriv.prop_map(SignalExpr::abs),
        (sig.clone(), sig.clone()).prop_map(|(a, b)| a.sub(b).abs()),
        (sig.clone(), sig.clone(), -10.0f64..10.0)
            .prop_map(|(a, b, c)| a.sub(b.mul(SignalExpr::constant(c)))),
        (sig.clone(), sig.clone()).prop_map(|(a, b)| a.mul(b).abs()),
        (angular, sig).prop_map(|(d, b)| d.sub(b).abs()),
    ]
}

/// Conditions over random trees (the stack machine's `Program` kernel)
/// and over every dedicated kernel shape.
fn arb_diff_condition() -> impl Strategy<Value = Condition> {
    let expr = prop_oneof![arb_diff_expr(), arb_kernel_expr()].boxed();
    prop_oneof![
        (expr.clone(), -5.0f64..5.0).prop_map(|(expr, limit)| Condition::AtMost { expr, limit }),
        (expr, -5.0f64..5.0).prop_map(|(expr, limit)| Condition::AtLeast { expr, limit }),
        (0..DIFF_SIGNALS.len(), 0.0f64..0.3).prop_map(|(i, max_age)| Condition::Fresh {
            signal: SignalId::new(DIFF_SIGNALS[i]),
            max_age,
        }),
    ]
}

fn arb_diff_assertion() -> impl Strategy<Value = Assertion> {
    let temporal = prop_oneof![
        Just(Temporal::Immediate),
        (0.0f64..0.1).prop_map(Temporal::Sustained),
        Just(Temporal::Eventually),
    ];
    (arb_diff_condition(), temporal, 0.0f64..0.15).prop_map(|(condition, temporal, grace)| {
        Assertion::new("P1", "differential property", Severity::Warning, condition)
            .with_temporal(temporal)
            .with_grace(grace)
    })
}

/// Random expression trees for the spec-language round-trip property.
fn arb_expr() -> impl Strategy<Value = SignalExpr> {
    let leaf = prop_oneof![
        "[a-z][a-z0-9_]{0,8}".prop_map(SignalExpr::signal),
        (-1e3f64..1e3).prop_map(SignalExpr::constant),
        "[a-z][a-z0-9_]{0,8}".prop_map(SignalExpr::derivative),
        "[a-z][a-z0-9_]{0,8}".prop_map(SignalExpr::angular_derivative),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(SignalExpr::abs),
            inner.clone().prop_map(SignalExpr::neg),
            inner.clone().prop_map(SignalExpr::tan),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.angle_diff(b)),
        ]
    })
}

fn bounded_assertion(limit: f64, temporal: Temporal) -> Assertion {
    Assertion::new(
        "P1",
        "property assertion",
        Severity::Warning,
        Condition::AtMost {
            expr: SignalExpr::signal("x").abs(),
            limit,
        },
    )
    .with_temporal(temporal)
}

proptest! {
    // 256 cases rather than the default 64: a kernel shape is one choice
    // in about two dozen per assertion, and a lane kernel's payload shows
    // only at an alarm's first cycle, so 64 cases can miss a wrong lane
    // kernel (a dropped `wrap_angle` in `AngDerivSubAbs` did).
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    #[test]
    fn expressions_obey_algebraic_identities(
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
    ) {
        let mut env = Env::new();
        env.set_time(0.0);
        env.update(&SignalId::new("a"), a);
        env.update(&SignalId::new("b"), b);

        let abs = SignalExpr::signal("a").abs().eval(&env).unwrap();
        prop_assert!(abs >= 0.0);
        let self_diff = SignalExpr::signal("a")
            .sub(SignalExpr::signal("a"))
            .eval(&env)
            .unwrap();
        prop_assert_eq!(self_diff, 0.0);
        let sum = SignalExpr::signal("a").add(SignalExpr::signal("b")).eval(&env).unwrap();
        prop_assert_eq!(sum, a + b);
        let neg = SignalExpr::signal("a").neg().eval(&env).unwrap();
        prop_assert_eq!(neg, -a);
        let angdiff = SignalExpr::signal("a")
            .angle_diff(SignalExpr::signal("b"))
            .eval(&env)
            .unwrap();
        prop_assert!(angdiff > -std::f64::consts::PI - 1e-9);
        prop_assert!(angdiff <= std::f64::consts::PI + 1e-9);
    }

    #[test]
    fn env_derivative_matches_last_step(
        v0 in -1e3f64..1e3,
        v1 in -1e3f64..1e3,
        dt in 0.001f64..1.0,
    ) {
        let id = SignalId::new("x");
        let mut env = Env::new();
        env.set_time(0.0);
        env.update(&id, v0);
        env.set_time(dt);
        env.update(&id, v1);
        let d = env.derivative(&id).unwrap();
        prop_assert!((d - (v1 - v0) / dt).abs() < 1e-9 * d.abs().max(1.0));
    }

    #[test]
    fn violations_are_well_formed_for_random_signals(
        values in proptest::collection::vec(-10.0f64..10.0, 1..200),
        limit in 0.1f64..5.0,
        sustain in 0.0f64..0.2,
    ) {
        let mut c = OnlineChecker::new([bounded_assertion(limit, Temporal::Sustained(sustain))]);
        for (i, v) in values.iter().enumerate() {
            c.begin_cycle(i as f64 * 0.01).unwrap();
            c.update("x", *v);
            c.end_cycle();
        }
        for v in c.violations() {
            prop_assert!(v.onset <= v.detected + 1e-12);
            prop_assert!(v.detected - v.onset + 1e-9 >= sustain);
            prop_assert!(v.value.abs() > limit);
        }
    }

    #[test]
    fn signals_below_threshold_never_fire(
        values in proptest::collection::vec(-1.0f64..1.0, 1..100),
    ) {
        let mut c = OnlineChecker::new([bounded_assertion(1.5, Temporal::Immediate)]);
        for (i, v) in values.iter().enumerate() {
            c.begin_cycle(i as f64 * 0.01).unwrap();
            c.update("x", *v);
            prop_assert_eq!(c.end_cycle(), 0);
        }
    }

    #[test]
    fn offline_equals_online_for_random_traces(
        values in proptest::collection::vec(-5.0f64..5.0, 1..150),
        limit in 0.5f64..3.0,
    ) {
        let assertion = bounded_assertion(limit, Temporal::Sustained(0.05));
        let mut trace = Trace::new();
        for (i, v) in values.iter().enumerate() {
            trace.record("x", i as f64 * 0.01, *v);
        }
        let offline = checker::check(std::slice::from_ref(&assertion), &trace);

        let mut online = OnlineChecker::new([assertion]);
        for (i, v) in values.iter().enumerate() {
            online.begin_cycle(i as f64 * 0.01).unwrap();
            online.update("x", *v);
            online.end_cycle();
        }
        let online = online.finish(trace.span().unwrap().1);
        prop_assert_eq!(offline, online);
    }

    #[test]
    fn mined_thresholds_cover_their_training_data(
        values in proptest::collection::vec(-3.0f64..3.0, 20..200),
        margin in 1.05f64..2.0,
    ) {
        // Feed an xtrack-like signal past the behavioural grace period.
        let mut trace = Trace::new();
        for (i, v) in values.iter().enumerate() {
            trace.record("xtrack_err", 10.0 + i as f64 * 0.01, *v);
        }
        let config = CatalogConfig {
            thresholds: Thresholds::default(),
            ..CatalogConfig::default()
        };
        let mining = MiningConfig { margin, floor: 1e-6 };
        let bounds = mine_bounds(&config, &[&trace], &mining);
        let a1 = &bounds["A1"];
        let observed_max = values.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        prop_assert!((a1.observed - observed_max).abs() < 1e-9);
        prop_assert!(a1.mined + 1e-12 >= a1.observed, "mined below observation");
    }

    #[test]
    fn spec_language_round_trips_arbitrary_expressions(expr in arb_expr()) {
        use adassure_core::spec::parse_expr;
        let text = expr.to_string();
        let parsed = parse_expr(&text)
            .unwrap_or_else(|e| panic!("failed to parse own Display `{text}`: {e}"));
        // Structural equality, except constants go through decimal printing;
        // compare via Display instead (stable fixed point).
        prop_assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn threshold_scaling_is_linear(
        limit in 0.1f64..100.0,
        factor in 0.1f64..10.0,
    ) {
        let a = bounded_assertion(limit, Temporal::Immediate);
        let scaled = a.with_scaled_threshold(factor);
        prop_assert!((scaled.condition.threshold() - limit * factor).abs() < 1e-9 * limit.max(1.0));
    }

    /// The tentpole differential property: for random catalogs, random
    /// cycle streams and random per-cycle update subsets/orders, the
    /// compiled plan (interned slots, postfix bytecode, dirty-mask
    /// caching) produces bit-identical verdicts and violation timestamps
    /// to the tree-walking reference evaluator.
    #[test]
    fn compiled_plan_matches_tree_walking_reference(
        catalog in proptest::collection::vec(arb_diff_assertion(), 1..5),
        cycles in proptest::collection::vec(
            proptest::collection::vec((0..DIFF_SIGNALS.len(), -3.0f64..3.0), 0..5),
            1..40,
        ),
    ) {
        let mut compiled = OnlineChecker::new(catalog.iter().cloned());
        let mut reference = ReferenceChecker::new(catalog.iter().cloned());
        for (i, cycle) in cycles.iter().enumerate() {
            // An irregular step keeps grace/sustain boundaries off-grid.
            let t = i as f64 * 0.013;
            compiled.begin_cycle(t).unwrap();
            reference.begin_cycle(t);
            for &(signal, value) in cycle {
                let id = SignalId::new(DIFF_SIGNALS[signal]);
                compiled.update(id.clone(), value);
                reference.update(&id, value);
            }
            prop_assert_eq!(compiled.end_cycle(), reference.end_cycle());
        }
        let end_time = cycles.len() as f64 * 0.013;
        let report = compiled.finish(end_time);
        let expected = reference.finish(end_time);
        assert_same_violations(&report.violations, &expected);
    }

    /// Degraded-telemetry differential property: random catalogs driven by
    /// fault-injected streams — dropouts (signals absent for stretches),
    /// NaN/Inf bursts, frozen repeats, duplicate same-cycle samples — never
    /// panic and produce verdicts bit-identical to the tree-walking
    /// reference extended with the same health semantics. Small health
    /// windows make sure quarantine and hysteretic recovery transitions are
    /// actually crossed. The feed also carries a channel no assertion
    /// reads, and each run is cut once by `save_state` → `restore`, so the
    /// checker's poisoned count and stale bound are rebuilt from a
    /// checkpoint, often in the middle of a NaN burst.
    #[test]
    fn fault_injected_streams_match_reference_health_semantics(
        catalog in proptest::collection::vec(arb_diff_assertion(), 1..5),
        cycles in proptest::collection::vec(
            proptest::collection::vec(
                // The selector turns ~1 in 4 samples non-finite (NaN/±Inf);
                // signal index `DIFF_SIGNALS.len()` is the unread channel.
                (0..DIFF_SIGNALS.len() + 1, -3.0f64..3.0, 0u8..12).prop_map(|(s, v, sel)| {
                    let v = match sel {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => v,
                    };
                    (s, v)
                }),
                0..5,
            ),
            1..60,
        ),
        stale_after in prop_oneof![
            Just(f64::INFINITY),
            0.02f64..0.2,
        ],
        quarantine_after in 1u32..5,
        recover_after in 1u32..5,
        cut in 0usize..60,
    ) {
        let health = HealthConfig { stale_after, quarantine_after, recover_after };
        let mut compiled = OnlineChecker::with_health(catalog.iter().cloned(), health);
        let mut reference = ReferenceChecker::with_health(catalog.iter().cloned(), health);
        let cut = cut % (cycles.len() + 1);
        for (i, cycle) in cycles.iter().enumerate() {
            if i == cut {
                let state = compiled.save_state();
                compiled = OnlineChecker::restore(compiled.plan().clone(), health, state)
                    .expect("a checker's own state fits its plan");
            }
            let t = i as f64 * 0.013;
            compiled.begin_cycle(t).unwrap();
            reference.begin_cycle(t);
            for &(signal, value) in cycle {
                let id = SignalId::new(DIFF_SIGNALS.get(signal).copied().unwrap_or(UNREAD_SIGNAL));
                compiled.update(id.clone(), value);
                reference.update(&id, value);
            }
            prop_assert_eq!(compiled.end_cycle(), reference.end_cycle());
        }
        let end_time = cycles.len() as f64 * 0.013;
        let report = compiled.finish(end_time);
        let expected = reference.finish(end_time);
        assert_same_violations(&report.violations, &expected);
    }

    /// Lane-batched differential property: for random catalogs and random
    /// *batches* of traces — each trace its own length and cycle grid,
    /// each signal either present every cycle (a dense column) or present
    /// or absent per cycle, so every trace sits in a different
    /// unknown/derivative/staleness state — the columnar evaluator
    /// produces reports bit-identical to the scalar compiled replay of
    /// each trace, and the same deterministic metrics summary, including
    /// Inconclusive accounting and quarantine/recovery health transitions
    /// under a finite staleness horizon.
    #[test]
    fn lane_batched_columnar_matches_scalar_replay(
        catalog in proptest::collection::vec(arb_diff_assertion(), 1..5),
        // More than eight traces of unequal lengths, up to past two
        // 64-cycle words, so episodes, alarms and grace periods cross
        // word edges. Per trace, a bitmask of signals sampled every cycle;
        // per cycle, every other signal is independently present or
        // absent.
        traces in proptest::collection::vec(
            (
                0u8..16,
                proptest::collection::vec(
                    proptest::collection::vec(
                        (0u8..2, -3.0f64..3.0),
                        DIFF_SIGNALS.len(),
                    ),
                    0..160,
                ),
            ),
            9..13,
        ),
        stale_after in prop_oneof![
            Just(f64::INFINITY),
            0.02f64..0.2,
        ],
        quarantine_after in 1u32..5,
        recover_after in 1u32..5,
    ) {
        let health = HealthConfig { stale_after, quarantine_after, recover_after };
        let traces: Vec<Trace> = traces
            .iter()
            .map(|(dense, cycles)| {
                let mut trace = Trace::new();
                for (i, cycle) in cycles.iter().enumerate() {
                    let t = i as f64 * 0.013;
                    for (signal, &(present, v)) in cycle.iter().enumerate() {
                        if present == 1 || dense & (1 << signal) != 0 {
                            trace.record(DIFF_SIGNALS[signal], t, v);
                        }
                    }
                }
                trace
            })
            .collect();
        let columnar: Vec<ColumnarTrace> = traces.iter().map(ColumnarTrace::from_trace).collect();
        let lane_results = lane::check_columnar_observed(&catalog, health, &columnar);
        prop_assert_eq!(lane_results.len(), traces.len());
        // The report-only loop runs under the default configuration; with
        // an infinite horizon (and no poisoned samples offline) the streak
        // lengths cannot matter, so its reports must agree too.
        let report_only = health
            .stale_after
            .is_infinite()
            .then(|| lane::check_columnar(&catalog, &columnar));
        for (i, (trace, (lane_report, lane_metrics))) in traces.iter().zip(&lane_results).enumerate() {
            let (scalar, scalar_metrics, _) = checker::check_observed(
                &catalog,
                health,
                trace,
                0,
                &ObsConfig::disabled(),
                Box::new(NullSink),
            );
            assert_same_violations(&lane_report.violations, &scalar.violations);
            prop_assert_eq!(lane_report.end_time.to_bits(), scalar.end_time.to_bits());
            prop_assert_eq!(lane_report.assertions_checked, scalar.assertions_checked);
            prop_assert_eq!(lane_report.inconclusive_cycles, scalar.inconclusive_cycles);
            prop_assert_eq!(lane_metrics.summary(), scalar_metrics.summary());
            if let Some(reports) = &report_only {
                let report = &reports[i];
                assert_same_violations(&report.violations, &scalar.violations);
                prop_assert_eq!(report.inconclusive_cycles, scalar.inconclusive_cycles);
            }
        }
    }
}
