//! Observability for the ADAssure monitor: bounded-memory metrics, a
//! structured event log, and exporters.
//!
//! The checker, guardian and campaign engine compute rich state — verdicts,
//! health transitions, guardian mode changes, cycle latencies — and without
//! this crate they would throw it away, leaving the debugging methodology
//! itself undebuggable. This crate makes that state observable under three
//! hard constraints inherited from the monitor's design:
//!
//! 1. **Bounded memory, allocation-free steady state.** Every counter and
//!    histogram is sized at construction (fixed log₂ buckets, no `Vec`
//!    growth on the hot path), so the counting-allocator test in
//!    `crates/core/tests/alloc_steady_state.rs` passes with metrics *and*
//!    sinks enabled.
//! 2. **Observability never perturbs results.** Metrics and events are
//!    derived from monitor state, never fed back into it; the campaign
//!    differential test proves reports are bit-identical with the JSONL
//!    sink enabled vs [`NullSink`].
//! 3. **~Free when disabled.** Event emission is gated by a bitmask
//!    [`EventFilter`] checked before the event reaches a sink, and
//!    the checker samples wall-clock timing on one cycle in 64, so the
//!    disabled configuration costs a predictable branch.
//!
//! The pieces:
//!
//! - [`hist::Histogram`] — HDR-style fixed log₂ buckets for latencies;
//! - [`event::Event`] — typed events (verdict flips, health transitions,
//!   guardian transitions, run boundaries) with an allocation-free inline
//!   [`Label`] instead of heap strings;
//! - [`sink::EventSink`] — where events go: [`NullSink`], [`VecSink`] or
//!   the line-buffered [`JsonlWriter`];
//! - [`metrics`] — per-assertion verdict counters, transition grids, and
//!   the serializable [`MetricsSnapshot`] / deterministic [`ObsSummary`]
//!   split (wall-clock data stays out of campaign reports so they remain
//!   reproducible);
//! - [`export`] — Prometheus text format and JSON snapshot exporters;
//! - [`config::ObsConfig`] — `ADASSURE_OBS` / `ADASSURE_OBS_PATH` env
//!   toggles mirroring `ADASSURE_THREADS`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod event;
pub mod export;
pub mod hist;
pub mod label;
pub mod metrics;
pub mod sink;

pub use config::{ObsConfig, OBS_ENV, OBS_PATH_ENV};
pub use event::{Event, EventFilter, EventKind, Guard, Health, Sev, Verdict};
pub use hist::Histogram;
pub use label::Label;
pub use metrics::{
    AssertionStats, MetricsSnapshot, ObsSummary, Transition, TransitionGrid, VerdictCounts,
};
pub use sink::{EventSink, JsonlWriter, NullSink, VecSink};
