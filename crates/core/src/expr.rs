//! The signal expression language assertions are written in.
//!
//! Expressions are evaluated against an [`Env`]: the monitor's
//! sample-and-hold view of the newest value of every signal. Evaluation
//! returns `None` until every referenced signal has been seen at least once,
//! so assertions stay silent (rather than firing spuriously) during
//! start-up.

use serde::{Deserialize, Serialize};
use std::fmt;

use adassure_trace::SignalId;

use crate::compile::SignalTable;

/// Sample-and-hold evaluation environment: per signal, the newest value,
/// its timestamp, and the finite-difference derivative of the last two
/// updates.
///
/// Signals are interned into dense slots on first sight (see
/// [`SignalTable`]), so the state lives in a flat `Vec` and the steady-state
/// update path performs no hashing and no allocation. The by-name accessors
/// remain the convenient interface; the `*_at` slot accessors are the hot
/// path used by compiled assertion plans.
#[derive(Debug, Clone, Default)]
pub struct Env {
    now: f64,
    table: SignalTable,
    states: Vec<SignalState>,
}

#[derive(Debug, Clone, Copy)]
struct SignalState {
    seen: bool,
    time: f64,
    value: f64,
    /// `(delta, dt)` of the last two distinct-time updates.
    last_step: Option<(f64, f64)>,
}

/// A slot's sample-and-hold state flattened to plain data for
/// checkpointing: `(seen, time, value, last_step)`.
pub(crate) type SlotState = (bool, f64, f64, Option<(f64, f64)>);

impl Default for SignalState {
    fn default() -> Self {
        SignalState {
            seen: false,
            time: 0.0,
            value: 0.0,
            last_step: None,
        }
    }
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Advances the clock. Must be called (monotonically) before the
    /// updates of each cycle.
    pub fn set_time(&mut self, t: f64) {
        self.now = t;
    }

    /// The current clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Interns `signal`, returning its dense slot. Registers the signal
    /// (unseen, with no value) on first sight; interning is stable, so the
    /// returned slot identifies the signal for the environment's lifetime.
    #[inline]
    pub fn resolve(&mut self, signal: &SignalId) -> u32 {
        let slot = self.table.intern(signal);
        if slot as usize >= self.states.len() {
            self.states.resize_with(slot as usize + 1, Default::default);
        }
        slot
    }

    /// The slot of `signal`, if it has been interned.
    #[inline]
    pub fn slot(&self, signal: &SignalId) -> Option<u32> {
        self.table.slot(signal)
    }

    /// The signal table backing this environment.
    pub fn table(&self) -> &SignalTable {
        &self.table
    }

    /// Ingests a new sample of `signal` at the current clock.
    pub fn update(&mut self, signal: &SignalId, value: f64) {
        let slot = self.resolve(signal);
        self.update_slot(slot, value);
    }

    /// Ingests a new sample for an interned slot at the current clock.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not returned by [`Env::resolve`] on this
    /// environment.
    #[inline]
    pub fn update_slot(&mut self, slot: u32, value: f64) {
        let t = self.now;
        let state = &mut self.states[slot as usize];
        if state.seen {
            if t > state.time {
                state.last_step = Some((value - state.value, t - state.time));
            }
        } else {
            state.seen = true;
        }
        state.time = t;
        state.value = value;
    }

    /// Raw sample-and-hold state of `slot` as
    /// `(seen, time, value, last_step)`, for checkpointing. `None` if the
    /// slot was never interned.
    pub(crate) fn slot_state(&self, slot: u32) -> Option<SlotState> {
        let state = self.states.get(slot as usize)?;
        Some((state.seen, state.time, state.value, state.last_step))
    }

    /// Overwrites the sample-and-hold state of `slot`, growing the state
    /// vector if needed. Restore-path counterpart of [`Env::slot_state`].
    pub(crate) fn restore_slot_state(
        &mut self,
        slot: u32,
        seen: bool,
        time: f64,
        value: f64,
        last_step: Option<(f64, f64)>,
    ) {
        if slot as usize >= self.states.len() {
            self.states.resize_with(slot as usize + 1, Default::default);
        }
        self.states[slot as usize] = SignalState {
            seen,
            time,
            value,
            last_step,
        };
    }

    /// Newest value of `signal`, if seen.
    pub fn value(&self, signal: &SignalId) -> Option<f64> {
        self.slot(signal).and_then(|slot| self.value_at(slot))
    }

    /// Newest value of the signal in `slot`, if seen.
    #[inline]
    pub fn value_at(&self, slot: u32) -> Option<f64> {
        let state = self.states.get(slot as usize)?;
        state.seen.then_some(state.value)
    }

    /// Finite-difference derivative of `signal` over its last two updates.
    pub fn derivative(&self, signal: &SignalId) -> Option<f64> {
        self.slot(signal).and_then(|slot| self.derivative_at(slot))
    }

    /// Finite-difference derivative of the signal in `slot`.
    #[inline]
    pub fn derivative_at(&self, slot: u32) -> Option<f64> {
        let (delta, dt) = self.states.get(slot as usize)?.last_step?;
        Some(delta / dt)
    }

    /// Angle-aware derivative: the per-update delta is wrapped to
    /// `(-pi, pi]` before dividing, so a heading crossing the ±π seam does
    /// not register as a ±2π/dt spike.
    pub fn angular_derivative(&self, signal: &SignalId) -> Option<f64> {
        self.slot(signal)
            .and_then(|slot| self.angular_derivative_at(slot))
    }

    /// Angle-aware derivative of the signal in `slot`.
    #[inline]
    pub fn angular_derivative_at(&self, slot: u32) -> Option<f64> {
        let (delta, dt) = self.states.get(slot as usize)?.last_step?;
        Some(wrap_angle(delta) / dt)
    }

    /// Seconds since `signal` last updated, if it has ever been seen.
    pub fn age(&self, signal: &SignalId) -> Option<f64> {
        self.slot(signal).and_then(|slot| self.age_at(slot))
    }

    /// Seconds since the signal in `slot` last updated, if ever seen.
    #[inline]
    pub fn age_at(&self, slot: u32) -> Option<f64> {
        let state = self.states.get(slot as usize)?;
        state.seen.then_some(self.now - state.time)
    }
}

/// A scalar expression over signals.
///
/// # Example
///
/// ```
/// use adassure_core::expr::{Env, SignalExpr};
///
/// // |gnss_speed - wheel_speed|
/// let expr = SignalExpr::signal("gnss_speed")
///     .sub(SignalExpr::signal("wheel_speed"))
///     .abs();
/// let mut env = Env::new();
/// env.set_time(0.0);
/// env.update(&"gnss_speed".into(), 5.0);
/// env.update(&"wheel_speed".into(), 7.5);
/// assert_eq!(expr.eval(&env), Some(2.5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SignalExpr {
    /// Newest value of a signal (sample-and-hold).
    Signal(SignalId),
    /// A constant.
    Const(f64),
    /// Finite-difference time derivative of a signal.
    Derivative(SignalId),
    /// Angle-aware time derivative of a signal (delta wrapped to
    /// `(-pi, pi]` — use for headings and other circular quantities).
    AngularDerivative(SignalId),
    /// Absolute value.
    Abs(Box<SignalExpr>),
    /// Negation.
    Neg(Box<SignalExpr>),
    /// Sum.
    Add(Box<SignalExpr>, Box<SignalExpr>),
    /// Difference.
    Sub(Box<SignalExpr>, Box<SignalExpr>),
    /// Product.
    Mul(Box<SignalExpr>, Box<SignalExpr>),
    /// Wrapped angular difference `lhs - rhs` in `(-pi, pi]`.
    AngleDiff(Box<SignalExpr>, Box<SignalExpr>),
    /// Tangent (used by the bicycle-kinematics consistency assertion).
    Tan(Box<SignalExpr>),
}

impl SignalExpr {
    /// The newest value of a signal.
    pub fn signal(name: impl Into<SignalId>) -> Self {
        SignalExpr::Signal(name.into())
    }

    /// A constant expression.
    pub fn constant(value: f64) -> Self {
        SignalExpr::Const(value)
    }

    /// The time derivative of a signal.
    pub fn derivative(name: impl Into<SignalId>) -> Self {
        SignalExpr::Derivative(name.into())
    }

    /// The angle-aware time derivative of a signal.
    pub fn angular_derivative(name: impl Into<SignalId>) -> Self {
        SignalExpr::AngularDerivative(name.into())
    }

    /// `|self|`.
    pub fn abs(self) -> Self {
        SignalExpr::Abs(Box::new(self))
    }

    #[allow(clippy::should_implement_trait)] // DSL builder, not std::ops
    /// `-self`. Negating a constant folds into a negative constant, so the
    /// textual form (`-3.5`) and the built form agree.
    pub fn neg(self) -> Self {
        match self {
            SignalExpr::Const(v) => SignalExpr::Const(-v),
            other => SignalExpr::Neg(Box::new(other)),
        }
    }

    #[allow(clippy::should_implement_trait)] // DSL builder, not std::ops
    /// `self + rhs`.
    pub fn add(self, rhs: SignalExpr) -> Self {
        SignalExpr::Add(Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)] // DSL builder, not std::ops
    /// `self - rhs`.
    pub fn sub(self, rhs: SignalExpr) -> Self {
        SignalExpr::Sub(Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)] // DSL builder, not std::ops
    /// `self * rhs`.
    pub fn mul(self, rhs: SignalExpr) -> Self {
        SignalExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Wrapped angular difference `self - rhs`.
    pub fn angle_diff(self, rhs: SignalExpr) -> Self {
        SignalExpr::AngleDiff(Box::new(self), Box::new(rhs))
    }

    /// `tan(self)`.
    pub fn tan(self) -> Self {
        SignalExpr::Tan(Box::new(self))
    }

    /// Evaluates against an environment. `None` until every referenced
    /// signal has been seen (and, for [`SignalExpr::Derivative`], updated at
    /// least twice).
    pub fn eval(&self, env: &Env) -> Option<f64> {
        match self {
            SignalExpr::Signal(id) => env.value(id),
            SignalExpr::Const(v) => Some(*v),
            SignalExpr::Derivative(id) => env.derivative(id),
            SignalExpr::AngularDerivative(id) => env.angular_derivative(id),
            SignalExpr::Abs(e) => e.eval(env).map(f64::abs),
            SignalExpr::Neg(e) => e.eval(env).map(|v| -v),
            SignalExpr::Add(a, b) => Some(a.eval(env)? + b.eval(env)?),
            SignalExpr::Sub(a, b) => Some(a.eval(env)? - b.eval(env)?),
            SignalExpr::Mul(a, b) => Some(a.eval(env)? * b.eval(env)?),
            SignalExpr::AngleDiff(a, b) => Some(wrap_angle(a.eval(env)? - b.eval(env)?)),
            SignalExpr::Tan(e) => e.eval(env).map(f64::tan),
        }
    }

    /// All signals referenced by the expression.
    pub fn signals(&self) -> Vec<SignalId> {
        let mut out = Vec::new();
        self.collect_signals(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_signals(&self, out: &mut Vec<SignalId>) {
        match self {
            SignalExpr::Signal(id)
            | SignalExpr::Derivative(id)
            | SignalExpr::AngularDerivative(id) => out.push(id.clone()),
            SignalExpr::Const(_) => {}
            SignalExpr::Abs(e) | SignalExpr::Neg(e) | SignalExpr::Tan(e) => e.collect_signals(out),
            SignalExpr::Add(a, b)
            | SignalExpr::Sub(a, b)
            | SignalExpr::Mul(a, b)
            | SignalExpr::AngleDiff(a, b) => {
                a.collect_signals(out);
                b.collect_signals(out);
            }
        }
    }
}

impl fmt::Display for SignalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalExpr::Signal(id) => write!(f, "{id}"),
            SignalExpr::Const(v) => write!(f, "{v}"),
            SignalExpr::Derivative(id) => write!(f, "d({id})/dt"),
            SignalExpr::AngularDerivative(id) => write!(f, "dang({id})/dt"),
            SignalExpr::Abs(e) => write!(f, "|{e}|"),
            SignalExpr::Neg(e) => write!(f, "-({e})"),
            SignalExpr::Add(a, b) => write!(f, "({a} + {b})"),
            SignalExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            SignalExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            SignalExpr::AngleDiff(a, b) => write!(f, "angdiff({a}, {b})"),
            SignalExpr::Tan(e) => write!(f, "tan({e})"),
        }
    }
}

/// Wraps `angle` to `(-pi, pi]`.
///
/// An angle already in range is returned as is: IEEE `fmod(x, y)` is `x`
/// exactly when `|x| < |y|`, so skipping the `%` there changes no output
/// bit, and NaN fails both comparisons and takes the `%` path.
#[inline]
pub(crate) fn wrap_angle(angle: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    if -PI < angle && angle <= PI {
        return angle;
    }
    let mut a = angle % TAU;
    if a <= -PI {
        a += TAU;
    } else if a > PI {
        a -= TAU;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(pairs: &[(&str, f64)]) -> Env {
        let mut env = Env::new();
        env.set_time(0.0);
        for (name, v) in pairs {
            env.update(&SignalId::new(name), *v);
        }
        env
    }

    #[test]
    fn arithmetic_evaluation() {
        let env = env_with(&[("a", 3.0), ("b", -2.0)]);
        let e = SignalExpr::signal("a").add(SignalExpr::signal("b"));
        assert_eq!(e.eval(&env), Some(1.0));
        let e = SignalExpr::signal("a").mul(SignalExpr::constant(2.0));
        assert_eq!(e.eval(&env), Some(6.0));
        let e = SignalExpr::signal("b").abs();
        assert_eq!(e.eval(&env), Some(2.0));
        let e = SignalExpr::signal("a").neg();
        assert_eq!(e.eval(&env), Some(-3.0));
    }

    #[test]
    fn missing_signal_yields_none() {
        let env = env_with(&[("a", 1.0)]);
        let e = SignalExpr::signal("a").sub(SignalExpr::signal("zzz"));
        assert_eq!(e.eval(&env), None);
    }

    #[test]
    fn derivative_needs_two_updates() {
        let id = SignalId::new("x");
        let mut env = Env::new();
        env.set_time(0.0);
        env.update(&id, 1.0);
        assert_eq!(SignalExpr::derivative("x").eval(&env), None);
        env.set_time(0.1);
        env.update(&id, 2.0);
        let d = SignalExpr::derivative("x").eval(&env).unwrap();
        assert!((d - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sample_and_hold_keeps_old_values() {
        let id = SignalId::new("sparse");
        let mut env = Env::new();
        env.set_time(0.0);
        env.update(&id, 4.0);
        env.set_time(5.0);
        assert_eq!(env.value(&id), Some(4.0));
        assert_eq!(env.age(&id), Some(5.0));
    }

    #[test]
    fn angle_diff_wraps() {
        use std::f64::consts::PI;
        let env = env_with(&[("a", PI - 0.1), ("b", -PI + 0.1)]);
        let e = SignalExpr::signal("a").angle_diff(SignalExpr::signal("b"));
        let v = e.eval(&env).unwrap();
        assert!((v + 0.2).abs() < 1e-9, "{v}");
    }

    #[test]
    fn tan_evaluates() {
        let env = env_with(&[("steer", 0.3)]);
        let v = SignalExpr::signal("steer").tan().eval(&env).unwrap();
        assert!((v - 0.3f64.tan()).abs() < 1e-12);
    }

    #[test]
    fn signals_collects_unique_sorted() {
        let e = SignalExpr::signal("b")
            .sub(SignalExpr::signal("a"))
            .add(SignalExpr::derivative("b"));
        let sigs: Vec<String> = e.signals().iter().map(|s| s.as_str().to_owned()).collect();
        assert_eq!(sigs, ["a", "b"]);
    }

    #[test]
    fn display_is_readable() {
        let e = SignalExpr::signal("gnss_speed")
            .sub(SignalExpr::signal("wheel_speed"))
            .abs();
        assert_eq!(e.to_string(), "|(gnss_speed - wheel_speed)|");
        assert_eq!(SignalExpr::derivative("x").to_string(), "d(x)/dt");
    }

    #[test]
    fn wrap_angle_fast_path_is_bit_identical() {
        use std::f64::consts::{PI, TAU};
        // The `%`-only formula the in-range early return must agree with.
        fn reference(angle: f64) -> f64 {
            let mut a = angle % TAU;
            if a <= -PI {
                a += TAU;
            } else if a > PI {
                a -= TAU;
            }
            a
        }
        let inputs = [
            0.0,
            -0.0,
            PI,
            -PI,
            PI.next_up(),
            PI.next_down(),
            (-PI).next_up(),
            (-PI).next_down(),
            TAU,
            -TAU,
            3.0 * PI,
            -3.0 * PI,
            1e-310,
            -1e-310,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in inputs {
            assert_eq!(
                wrap_angle(x).to_bits(),
                reference(x).to_bits(),
                "wrap_angle({x:e})"
            );
        }
    }

    #[test]
    fn derivative_survives_repeated_timestamps() {
        let id = SignalId::new("x");
        let mut env = Env::new();
        env.set_time(0.0);
        env.update(&id, 1.0);
        env.set_time(0.1);
        env.update(&id, 2.0);
        // Same-time update keeps the previous derivative rather than
        // dividing by zero.
        env.update(&id, 3.0);
        let d = env.derivative(&id).unwrap();
        assert!(d.is_finite());
    }
}
