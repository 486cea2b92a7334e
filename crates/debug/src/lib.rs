//! Time-travel debugging for ADAssure runs.
//!
//! A violating campaign run is a deterministic program: scenario + stack +
//! seed + attack timeline fix every byte of its trace. This crate exploits
//! that to give the three debugging primitives the methodology calls for:
//!
//! - [`checkpoint`] — a versioned binary [`SimCheckpoint`] capturing the
//!   *complete* mid-run state (engine loop, controller stack, attack
//!   injectors, online checker), restorable bit-identically;
//! - [`session`] — a [`DebugSession`] that steps a run cycle by cycle with
//!   an online checker in the loop, captures periodic checkpoints, and
//!   replays to any cycle (nearest checkpoint + deterministic
//!   fast-forward) where [`DebugSession::inspect`] dumps signals,
//!   compiled-expression values, per-assertion verdicts/health and
//!   violations;
//! - [`mod@minimize`] — a ddmin-style minimizer shrinking a violating attack
//!   timeline (fewest entries, shortest windows, smallest magnitudes) to a
//!   1-minimal repro, re-verified by re-execution and emitted as a
//!   self-contained [`adassure_scenarios::ReproCase`] file the campaign
//!   engine re-runs via `adassure_exp::rerun::run_repro`.
//!
//! # Example
//!
//! ```
//! use adassure_debug::session::{DebugSession, DebugSpec};
//! use adassure_attacks::AttackTimeline;
//! use adassure_control::pipeline::EstimatorKind;
//! use adassure_control::ControllerKind;
//! use adassure_scenarios::ScenarioKind;
//!
//! # fn main() -> Result<(), adassure_debug::DebugError> {
//! let spec = DebugSpec {
//!     scenario: ScenarioKind::Straight,
//!     controller: ControllerKind::PurePursuit,
//!     estimator: EstimatorKind::Complementary,
//!     seed: 1,
//!     timeline: AttackTimeline::new([]),
//! };
//! let mut session = DebugSession::new(&spec, 500)?;
//! session.run_to(100)?;
//! let dump = session.inspect();
//! assert_eq!(dump.cycle, 100);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use adassure_core::codec::CodecError;
use adassure_scenarios::ReproError;
use adassure_sim::SimError;

pub mod checkpoint;
pub mod minimize;
pub mod session;

pub use checkpoint::SimCheckpoint;
pub use minimize::{minimize, MinimizeConfig, Minimized};
pub use session::{AssertionDump, DebugSession, DebugSpec, StateDump};

/// Failure of a debug-session, replay or minimization operation.
#[derive(Debug)]
pub enum DebugError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// Encoding or decoding a checkpoint failed.
    Codec(CodecError),
    /// A captured state does not fit the session it is restored into.
    Restore(String),
    /// The online checker rejected a cycle (non-monotone time — a bug in
    /// the replay loop, surfaced as an error instead of a panic).
    Checker(String),
    /// Reading or writing a repro file failed.
    Repro(ReproError),
    /// The run to minimize raises no violation, so there is nothing to
    /// reproduce.
    NoViolation,
    /// The request itself is invalid (unknown name, cycle past the end of
    /// the run, empty timeline).
    BadSpec(String),
}

impl fmt::Display for DebugError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebugError::Sim(e) => write!(f, "simulation: {e}"),
            DebugError::Codec(e) => write!(f, "checkpoint codec: {e}"),
            DebugError::Restore(message) => write!(f, "restore: {message}"),
            DebugError::Checker(message) => write!(f, "checker: {message}"),
            DebugError::Repro(e) => write!(f, "repro file: {e}"),
            DebugError::NoViolation => {
                write!(f, "the run raises no violation; nothing to minimize")
            }
            DebugError::BadSpec(message) => write!(f, "bad request: {message}"),
        }
    }
}

impl std::error::Error for DebugError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DebugError::Sim(e) => Some(e),
            DebugError::Codec(e) => Some(e),
            DebugError::Repro(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for DebugError {
    fn from(e: SimError) -> Self {
        DebugError::Sim(e)
    }
}

impl From<CodecError> for DebugError {
    fn from(e: CodecError) -> Self {
        DebugError::Codec(e)
    }
}

impl From<ReproError> for DebugError {
    fn from(e: ReproError) -> Self {
        DebugError::Repro(e)
    }
}
