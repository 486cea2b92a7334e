//! Signal and trace recording substrate for the ADAssure debugging
//! methodology.
//!
//! An autonomous-driving control loop produces, every cycle, a set of scalar
//! *signals*: ground-truth pose components, sensor readings, estimator
//! outputs, controller error terms and actuator commands. ADAssure's
//! assertions are predicates over these signals, so everything in this crate
//! exists to record them faithfully and query them efficiently:
//!
//! * [`SignalId`] — cheap, hashable signal names (plus the [`well_known`]
//!   catalog used by the rest of the workspace);
//! * [`Series`] — a single signal sampled over time, with interpolation and
//!   finite-difference queries;
//! * [`Trace`] — a set of series recorded from one run, the unit that the
//!   offline assertion checker consumes;
//! * [`stats`] — summary statistics of a signal's values;
//! * [`csv`] — flat-file import frontend so externally authored traces can
//!   be ingested (and traces inspected outside Rust);
//! * [`columnar`] — the `.adt` binary trace store ([`ColumnarTrace`]), the
//!   shape the batch checker consumes;
//! * [`binary`] — the bounds-checked reader and container header shared by
//!   every binary format in the workspace.
//!
//! # Example
//!
//! ```
//! use adassure_trace::{Trace, SignalId};
//!
//! let mut trace = Trace::new();
//! for step in 0..100u32 {
//!     let t = f64::from(step) * 0.01;
//!     trace.record("speed", t, 5.0 + t);
//!     trace.record("xtrack_err", t, 0.02 * (t * 3.0).sin());
//! }
//! let speed = trace.series(&SignalId::new("speed")).unwrap();
//! assert_eq!(speed.len(), 100);
//! assert!((speed.value_at(0.505).unwrap() - 5.505).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binary;
pub mod columnar;
pub mod csv;
mod error;
mod series;
mod signal;
pub mod stats;
mod trace;

pub use columnar::ColumnarTrace;
pub use error::TraceError;
pub use series::{Sample, Series};
pub use signal::{well_known, SignalId};
pub use trace::Trace;
