//! Fleet-scale assertion monitoring: thousands-to-millions of concurrent
//! vehicle streams over per-shard checker instances.
//!
//! The per-vehicle engine ([`adassure_core::OnlineChecker`]) is compiled,
//! allocation-free in steady state and `Send` — this crate multiplexes it:
//!
//! - [`stream`] defines the wire surface: a generational [`StreamId`] and
//!   timestamped [`SampleBatch`]es (a cycle is a run of equal timestamps);
//! - [`shard`] owns stream state in generational slabs — one checker per
//!   stream, stamped from one shared [`adassure_core::CheckerPlan`] — and
//!   applies each sample batch as checker cycles;
//! - [`fleet`] puts each shard behind its own lock; [`Fleet::submit`] and
//!   [`FleetHandle::submit`] apply a batch on the calling thread before
//!   they return (stale drops are counted, never silent), so parallelism
//!   comes from concurrent submitters;
//! - [`wire`] is the versioned, little-endian, length-prefixed binary
//!   ingest protocol (validating streaming decoder, typed nack reasons);
//! - [`ingest`] runs that protocol: a connection-per-producer TCP/UDS
//!   server whose connection threads apply their batches themselves (a
//!   busy connection stops reading its socket, so TCP's window is the flow
//!   control), and the windowed client-side [`IngestProducer`], which
//!   [`IngestProducer::dial`] makes redial and resume its session in
//!   place, so connection cuts and server restarts preserve exactly-once
//!   batch application;
//! - [`checkpoint`] snapshots the whole fleet — per-stream checker
//!   state, health, session sequences — into a versioned
//!   binary image a restarted server restores bit-identically;
//! - [`chaos`] injects deterministic, seeded transport faults
//!   (mid-frame cuts, stalls) for resilience drills;
//! - [`synth`] is a seeded synthetic fleet (catalog, telemetry, wave
//!   loop) that `monitor-server` and the `fleet-soak` smoke drive.
//!
//! # Determinism
//!
//! Sharded output is bit-identical to running each stream on its own
//! serial checker, for any shard count and any number of concurrent
//! submitters: a stream's verdicts depend only on its own in-order batch
//! sequence (streams never share mutable state), and fleet-wide metrics
//! merge per-stream snapshots in
//! open/close order — orders the *caller* controls — using the
//! associative, order-insensitive [`adassure_obs::MetricsSnapshot::merge`].
//! The `fleet_differential` integration test pins this against the serial
//! engine; DESIGN.md §11 has the full argument.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod checkpoint;
pub mod fleet;
pub mod ingest;
pub mod shard;
pub mod stream;
pub mod synth;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosTransport, Severable};
pub use checkpoint::{restore_server, CheckpointError, SessionSeed};
pub use fleet::{Fleet, FleetConfig, FleetHandle, FleetStats, SubmitError};
pub use ingest::{
    Checkpointer, IngestConfig, IngestListener, IngestProducer, IngestServer, IngestStats,
    IngestStatsSnapshot, ProducerConfig, ProducerError, ProducerStats, ReconnectPolicy, Transport,
};
pub use shard::StreamError;
pub use stream::{Sample, SampleBatch, StreamId};
pub use wire::{FrameDecoder, NackReason, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use adassure_core::{Assertion, Condition, Severity, SignalExpr};

    fn catalog() -> Vec<Assertion> {
        vec![Assertion::new(
            "A1",
            "bounded x",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("x").abs(),
                limit: 1.0,
            },
        )]
    }

    fn config(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn submit_applies_before_returning() {
        let mut fleet = Fleet::new(catalog(), config(2));
        let id = fleet.open_stream();
        let handle = fleet.handle();
        for k in 1..=3u32 {
            let excursion = if k == 1 { 2.0 } else { 0.0 };
            let mut b = SampleBatch::new(id);
            b.push(0.1 * f64::from(k), "x", excursion);
            b.push(0.1 * f64::from(k) + 0.05, "x", 0.0);
            handle.submit(b).unwrap();
            let stats = fleet.stats();
            assert_eq!(stats.batches, u64::from(k));
            assert_eq!(
                stats.cycles,
                2 * u64::from(k),
                "batch {k} applied on submit"
            );
            assert_eq!(stats.violations, 1, "raised by the first batch's excursion");
        }
        let foreign = SampleBatch::new(StreamId {
            shard: 9,
            slot: 0,
            gen: 0,
        });
        assert!(matches!(
            handle.submit(foreign),
            Err(SubmitError::UnknownShard { .. })
        ));
        assert_eq!(fleet.stats().rejected_batches, 0);
    }

    #[test]
    fn stale_generation_batches_are_counted_not_applied() {
        let mut fleet = Fleet::new(catalog(), config(1));
        let old = fleet.open_stream();
        fleet.close_stream(old).unwrap();
        let new = fleet.open_stream();
        assert_eq!(old.shard, new.shard);
        assert_eq!(old.slot, new.slot, "slot is reused");
        assert_ne!(old.gen, new.gen, "generation advanced");

        let mut stale = SampleBatch::new(old);
        stale.push(0.1, "x", 5.0);
        fleet.submit(stale).unwrap();
        let stats = fleet.stats();
        assert_eq!(stats.stale_batches, 1);
        assert_eq!(stats.cycles, 0, "stale batch never reaches a checker");
        assert!(fleet.close_stream(old).is_err(), "double close is stale");
        let (report, _) = fleet.close_stream(new).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn bad_timestamps_are_counted_and_skipped() {
        let mut fleet = Fleet::new(catalog(), config(2));
        let id = fleet.open_stream();
        let mut b = SampleBatch::new(id);
        b.push(0.2, "x", 0.0);
        fleet.submit(b).unwrap();
        let mut b = SampleBatch::new(id);
        b.push(0.1, "x", 9.0); // non-monotone: rejected, not evaluated
        b.push(0.3, "x", 0.0);
        fleet.submit(b).unwrap();
        let stats = fleet.stats();
        assert_eq!(stats.bad_cycles, 1);
        assert_eq!(stats.cycles, 2);
        let (report, _) = fleet.close_stream(id).unwrap();
        assert!(report.is_clean(), "the rejected excursion never fired");
    }

    #[test]
    fn metrics_merge_all_streams_live_and_retired() {
        let mut fleet = Fleet::new(catalog(), config(3));
        let a = fleet.open_stream();
        let b = fleet.open_stream();
        for (id, v) in [(a, 0.5), (b, 2.0)] {
            let mut batch = SampleBatch::new(id);
            batch.push(0.1, "x", v);
            batch.push(0.2, "x", v);
            fleet.submit(batch).unwrap();
        }
        let live = fleet.metrics();
        assert_eq!(live.cycles, 4);
        fleet.close_stream(a).unwrap();
        let mixed = fleet.metrics();
        assert_eq!(mixed.cycles, 4, "retired streams stay in the totals");
        assert_eq!(mixed.assertions[0].verdicts.violated, 2);
    }

    #[test]
    fn handle_submits_from_producer_threads() {
        let mut fleet = Fleet::new(catalog(), config(2));
        let ids: Vec<StreamId> = (0..4).map(|_| fleet.open_stream()).collect();
        let handle = fleet.handle();
        std::thread::scope(|scope| {
            for &id in &ids {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut b = SampleBatch::new(id);
                    b.push(0.1, "x", 0.0);
                    handle.submit(b).unwrap();
                });
            }
        });
        assert_eq!(fleet.stats().cycles, 4);
    }
}
