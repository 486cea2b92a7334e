//! Campaign-execution engine for the ADAssure experiment harnesses.
//!
//! Every table and figure of the evaluation is a sweep over the same four
//! axes — scenario × controller × attack × seed — followed by aggregation
//! and formatting. This crate owns the sweep so the harness binaries are
//! thin declarative definitions:
//!
//! - [`grid`] declares the sweep as a [`Grid`] and enumerates it
//!   into indexed [`RunSpec`] cells;
//! - [`runtime`] owns the worker pool ([`Runtime`]) that campaigns and
//!   the harness binaries map cells on, with results keyed by cell index
//!   so output is bit-identical to a serial run regardless of thread count
//!   (`ADASSURE_THREADS` overrides the worker count, parsed once per
//!   process);
//! - [`campaign`] is the single entry point wiring a cell through
//!   `adassure_scenarios::run` and the checker into a record;
//! - [`record`] holds the structured per-run and per-campaign result types
//!   serialized to `results/*.json` alongside the text tables;
//! - [`agg`] has the aggregation helpers (detection rate, mean ± std,
//!   percentiles, top-k diagnosis accuracy) shared by all harnesses.
//!
//! # Example
//!
//! ```
//! use adassure_exp::grid::{AttackSet, Grid};
//! use adassure_exp::campaign::Campaign;
//! use adassure_control::ControllerKind;
//! use adassure_scenarios::ScenarioKind;
//!
//! let grid = Grid::new()
//!     .scenarios([ScenarioKind::Straight])
//!     .controllers([ControllerKind::PurePursuit])
//!     .attacks(AttackSet::None)
//!     .include_clean(true)
//!     .seeds([1]);
//! let report = Campaign::new("doc_example", grid).run().unwrap();
//! assert_eq!(report.runs.len(), 1);
//! assert!(!report.runs[0].detected, "clean run should raise no alarm");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agg;
pub mod campaign;
pub mod grid;
pub mod record;
pub mod rerun;
pub mod runtime;

pub use campaign::Campaign;
pub use grid::{AttackSet, Grid, RunSpec};
pub use record::{CampaignReport, GroupSummary, RunRecord};
pub use runtime::Runtime;
