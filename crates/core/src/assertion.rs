//! Assertion definitions: a healthy-state condition plus temporal semantics.

use serde::{Deserialize, Serialize};
use std::fmt;

use adassure_trace::SignalId;

use crate::expr::{Env, SignalExpr};

/// Identifier of an assertion (e.g. `"A6"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AssertionId(String);

impl AssertionId {
    /// Creates an id.
    pub fn new(id: impl Into<String>) -> Self {
        AssertionId(id.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AssertionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AssertionId {
    fn from(s: &str) -> Self {
        AssertionId::new(s)
    }
}

impl std::borrow::Borrow<str> for AssertionId {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

/// How serious a violation of the assertion is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Worth logging; the vehicle is still safe.
    Info,
    /// Degraded operation; debugging should start.
    Warning,
    /// Safety-relevant misbehaviour.
    Critical,
}

/// The *healthy-state* condition of an assertion. A violation is any cycle
/// where the condition evaluates to `false`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// `expr <= limit`.
    AtMost {
        /// Monitored expression.
        expr: SignalExpr,
        /// Upper bound.
        limit: f64,
    },
    /// `expr >= limit`.
    AtLeast {
        /// Monitored expression.
        expr: SignalExpr,
        /// Lower bound.
        limit: f64,
    },
    /// The signal has updated within the last `max_age` seconds. Evaluated
    /// only once the signal has been seen at least once.
    Fresh {
        /// Monitored signal.
        signal: SignalId,
        /// Maximum tolerated staleness (s).
        max_age: f64,
    },
}

/// Outcome of evaluating a condition at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Eval {
    /// Condition holds.
    Healthy,
    /// Condition violated; carries the offending expression value.
    Violated(f64),
    /// Not all referenced signals have been seen yet.
    Unknown,
    /// The monitor's telemetry is degraded — inputs poisoned by non-finite
    /// samples or stale beyond the health horizon — so neither a healthy
    /// nor a violated verdict can be trusted. [`Condition::eval`] never
    /// produces this; it is raised by the checker's health layer
    /// (see [`crate::online::HealthState`]).
    Inconclusive,
}

impl Condition {
    /// Evaluates the condition against an environment.
    pub fn eval(&self, env: &Env) -> Eval {
        match self {
            Condition::AtMost { expr, limit } => match expr.eval(env) {
                Some(v) if v <= *limit => Eval::Healthy,
                Some(v) => Eval::Violated(v),
                None => Eval::Unknown,
            },
            Condition::AtLeast { expr, limit } => match expr.eval(env) {
                Some(v) if v >= *limit => Eval::Healthy,
                Some(v) => Eval::Violated(v),
                None => Eval::Unknown,
            },
            Condition::Fresh { signal, max_age } => match env.age(signal) {
                Some(age) if age <= *max_age => Eval::Healthy,
                Some(age) => Eval::Violated(age),
                None => Eval::Unknown,
            },
        }
    }

    /// The threshold parameter of the condition (bound or max age).
    pub fn threshold(&self) -> f64 {
        match self {
            Condition::AtMost { limit, .. } | Condition::AtLeast { limit, .. } => *limit,
            Condition::Fresh { max_age, .. } => *max_age,
        }
    }

    /// Returns a copy with the threshold replaced.
    pub fn with_threshold(&self, value: f64) -> Condition {
        match self {
            Condition::AtMost { expr, .. } => Condition::AtMost {
                expr: expr.clone(),
                limit: value,
            },
            Condition::AtLeast { expr, .. } => Condition::AtLeast {
                expr: expr.clone(),
                limit: value,
            },
            Condition::Fresh { signal, .. } => Condition::Fresh {
                signal: signal.clone(),
                max_age: value,
            },
        }
    }

    /// Signals referenced by the condition.
    pub fn signals(&self) -> Vec<SignalId> {
        match self {
            Condition::AtMost { expr, .. } | Condition::AtLeast { expr, .. } => expr.signals(),
            Condition::Fresh { signal, .. } => vec![signal.clone()],
        }
    }
}

/// Temporal semantics: how long a violating condition must persist before
/// the monitor raises an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Temporal {
    /// Alarm on the first violating cycle.
    Immediate,
    /// Alarm once the condition has been violated continuously for at least
    /// this many seconds (debouncing).
    Sustained(f64),
    /// The condition must hold at least once before the run ends; the alarm
    /// (if any) is raised at finalisation time.
    Eventually,
}

/// A complete assertion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assertion {
    /// Stable identifier (`"A1"`..).
    pub id: AssertionId,
    /// Human-readable description of the invariant.
    pub description: String,
    /// Severity of a violation.
    pub severity: Severity,
    /// Healthy-state condition.
    pub condition: Condition,
    /// Temporal semantics.
    pub temporal: Temporal,
    /// Start-up grace period (s): the monitor ignores the assertion while
    /// `t < grace`, masking launch transients.
    pub grace: f64,
}

impl Assertion {
    /// Creates an assertion with [`Temporal::Immediate`] semantics and no
    /// grace period; use the builder methods to refine.
    pub fn new(
        id: impl Into<AssertionId>,
        description: impl Into<String>,
        severity: Severity,
        condition: Condition,
    ) -> Self
    where
        AssertionId: From<&'static str>,
    {
        Assertion {
            id: id.into(),
            description: description.into(),
            severity,
            condition,
            temporal: Temporal::Immediate,
            grace: 0.0,
        }
    }

    /// Sets the temporal operator.
    pub fn with_temporal(mut self, temporal: Temporal) -> Self {
        self.temporal = temporal;
        self
    }

    /// Sets the start-up grace period.
    pub fn with_grace(mut self, grace: f64) -> Self {
        self.grace = grace;
        self
    }

    /// Signals the assertion's condition reads — the inputs the compiled
    /// evaluation plan interns and the health scan checks.
    pub fn signals(&self) -> Vec<SignalId> {
        self.condition.signals()
    }

    /// Returns a copy with the condition threshold scaled by `factor`
    /// (used by the threshold-sensitivity ablation).
    pub fn with_scaled_threshold(&self, factor: f64) -> Assertion {
        let mut out = self.clone();
        out.condition = self
            .condition
            .with_threshold(self.condition.threshold() * factor);
        out
    }
}

impl From<String> for AssertionId {
    fn from(s: String) -> Self {
        AssertionId::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(pairs: &[(&str, f64)]) -> Env {
        let mut env = Env::new();
        env.set_time(1.0);
        for (name, v) in pairs {
            env.update(&SignalId::new(name), *v);
        }
        env
    }

    #[test]
    fn at_most_semantics() {
        let c = Condition::AtMost {
            expr: SignalExpr::signal("x").abs(),
            limit: 2.0,
        };
        assert_eq!(c.eval(&env_with(&[("x", -1.5)])), Eval::Healthy);
        assert_eq!(c.eval(&env_with(&[("x", 3.0)])), Eval::Violated(3.0));
        assert_eq!(c.eval(&env_with(&[])), Eval::Unknown);
    }

    #[test]
    fn at_least_semantics() {
        let c = Condition::AtLeast {
            expr: SignalExpr::signal("x"),
            limit: 0.0,
        };
        assert_eq!(c.eval(&env_with(&[("x", 0.0)])), Eval::Healthy);
        assert_eq!(c.eval(&env_with(&[("x", -0.1)])), Eval::Violated(-0.1));
    }

    #[test]
    fn fresh_semantics() {
        let c = Condition::Fresh {
            signal: SignalId::new("gnss_x"),
            max_age: 0.5,
        };
        let mut env = Env::new();
        env.set_time(0.0);
        assert_eq!(c.eval(&env), Eval::Unknown, "never seen: unknown");
        env.update(&SignalId::new("gnss_x"), 1.0);
        env.set_time(0.3);
        assert_eq!(c.eval(&env), Eval::Healthy);
        env.set_time(1.0);
        assert_eq!(c.eval(&env), Eval::Violated(1.0));
    }

    #[test]
    fn threshold_accessors() {
        let c = Condition::AtMost {
            expr: SignalExpr::signal("x"),
            limit: 2.0,
        };
        assert_eq!(c.threshold(), 2.0);
        assert_eq!(c.with_threshold(5.0).threshold(), 5.0);
        let f = Condition::Fresh {
            signal: SignalId::new("s"),
            max_age: 0.5,
        };
        assert_eq!(f.with_threshold(1.5).threshold(), 1.5);
    }

    #[test]
    fn builder_sets_fields() {
        let a = Assertion::new(
            "A1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack_err").abs(),
                limit: 1.5,
            },
        )
        .with_temporal(Temporal::Sustained(0.3))
        .with_grace(5.0);
        assert_eq!(a.id.as_str(), "A1");
        assert_eq!(a.temporal, Temporal::Sustained(0.3));
        assert_eq!(a.grace, 5.0);
    }

    #[test]
    fn scaled_threshold_copies() {
        let a = Assertion::new(
            "A1",
            "x",
            Severity::Warning,
            Condition::AtMost {
                expr: SignalExpr::signal("x"),
                limit: 2.0,
            },
        );
        let scaled = a.with_scaled_threshold(0.5);
        assert_eq!(scaled.condition.threshold(), 1.0);
        assert_eq!(a.condition.threshold(), 2.0, "original untouched");
    }

    #[test]
    fn severities_order() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }
}
