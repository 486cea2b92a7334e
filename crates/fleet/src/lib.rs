//! Fleet-scale assertion monitoring: thousands-to-millions of concurrent
//! vehicle streams over per-shard checker instances.
//!
//! The per-vehicle engine ([`adassure_core::OnlineChecker`]) is compiled,
//! allocation-free in steady state and `Send` — this crate multiplexes it:
//!
//! - [`stream`] defines the wire surface: a generational [`StreamId`] and
//!   timestamped [`SampleBatch`]es (a cycle is a run of equal timestamps);
//! - [`shard`] owns stream state in generational slabs — per-stream
//!   checker (stamped from one shared [`adassure_core::CheckerPlan`]),
//!   optional telemetry-fault injector, optional guardian — and drains
//!   queued batches into checker cycles;
//! - [`fleet`] wires shards behind bounded ingestion queues with explicit
//!   backpressure ([`SubmitError::Saturated`] returns the batch; every
//!   rejection and stale drop is counted) and drains them in parallel on
//!   the worker pool shared with the campaign engine
//!   ([`adassure_exp::Runtime`]);
//! - [`guard`] is the lightweight per-stream guardian (nominal → degraded
//!   → safe-stop with confirmation and hysteresis);
//! - [`wire`] is the versioned, little-endian, length-prefixed binary
//!   ingest protocol (validating streaming decoder, typed nack reasons);
//! - [`ingest`] runs that protocol: a connection-per-producer TCP/UDS
//!   server feeding the shard queues (a full queue stalls its
//!   connection, it is never refused), and the windowed client-side
//!   [`IngestProducer`];
//! - [`checkpoint`] snapshots the whole fleet — per-stream checker
//!   state, guardians, health, session sequences — into a versioned
//!   binary image a restarted server restores bit-identically;
//! - [`resilient`] wraps the producer with reconnect-and-resume so
//!   connection cuts and server restarts preserve exactly-once batch
//!   application;
//! - [`chaos`] injects deterministic, seeded transport faults
//!   (mid-frame cuts, stalls) for resilience drills.
//!
//! # Determinism
//!
//! Sharded output is bit-identical to running each stream on its own
//! serial checker, for any shard and worker count: a stream's verdicts
//! depend only on its own in-order batch sequence (streams never share
//! mutable state), and fleet-wide metrics merge per-stream snapshots in
//! open/close order — orders the *caller* controls — using the
//! associative, order-insensitive [`adassure_obs::MetricsSnapshot::merge`].
//! The `fleet_differential` integration test pins this against the serial
//! engine; DESIGN.md §11 has the full argument.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod checkpoint;
pub mod fleet;
pub mod guard;
pub mod ingest;
pub mod resilient;
pub mod shard;
pub mod stream;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosTransport, Severable};
pub use checkpoint::{restore_server, CheckpointError, SessionSeed};
pub use fleet::{Fleet, FleetConfig, FleetHandle, FleetStats, PollStats, SubmitError};
pub use guard::{GuardConfig, GuardState, StreamGuard};
pub use ingest::{
    Checkpointer, IngestConfig, IngestListener, IngestProducer, IngestServer, IngestStats,
    IngestStatsSnapshot, ProducerConfig, ProducerError, ProducerStats, RecoveryState,
};
pub use resilient::{ReconnectPolicy, ResilientError, ResilientProducer, Transport};
pub use shard::{DrainStats, StreamConfig, StreamError};
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

    fn config(shards: usize, queue: usize) -> FleetConfig {
        FleetConfig {
            shards,
            queue_capacity: queue,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn saturation_is_typed_and_counted() {
        let mut fleet = Fleet::new(catalog(), config(1, 2));
        let id = fleet.open_stream();
        let batch = |t: f64| {
            let mut b = SampleBatch::new(id);
            b.push(t, "x", 0.0);
            b
        };
        fleet.submit(batch(0.1)).unwrap();
        fleet.submit(batch(0.2)).unwrap();
        let err = fleet.submit(batch(0.3)).unwrap_err();
        let recovered = match err {
            SubmitError::Saturated { shard: 0, batch } => batch,
            other => panic!("expected saturation, got {other:?}"),
        };
        assert_eq!(fleet.stats().rejected_batches, 1);
        // Drain and retry: nothing was lost.
        assert_eq!(fleet.poll().cycles, 2);
        fleet.submit(recovered).unwrap();
        assert_eq!(fleet.poll().cycles, 1);
        assert_eq!(fleet.stats().cycles, 3);
    }

    #[test]
    fn stale_generation_batches_are_counted_not_applied() {
        let mut fleet = Fleet::new(catalog(), config(1, 8));
        let old = fleet.open_stream();
        fleet.close_stream(old).unwrap();
        let new = fleet.open_stream();
        assert_eq!(old.shard, new.shard);
        assert_eq!(old.slot, new.slot, "slot is reused");
        assert_ne!(old.gen, new.gen, "generation advanced");

        let mut stale = SampleBatch::new(old);
        stale.push(0.1, "x", 5.0);
        fleet.submit(stale).unwrap();
        let polled = fleet.poll();
        assert_eq!(polled.stale_batches, 1);
        assert_eq!(polled.cycles, 0, "stale batch never reaches a checker");
        assert!(fleet.close_stream(old).is_err(), "double close is stale");
        let (report, _) = fleet.close_stream(new).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn bad_timestamps_are_counted_and_skipped() {
        let mut fleet = Fleet::new(catalog(), config(2, 8));
        let id = fleet.open_stream();
        let mut b = SampleBatch::new(id);
        b.push(0.2, "x", 0.0);
        fleet.submit(b).unwrap();
        fleet.poll();
        let mut b = SampleBatch::new(id);
        b.push(0.1, "x", 9.0); // non-monotone: rejected, not evaluated
        b.push(0.3, "x", 0.0);
        fleet.submit(b).unwrap();
        let polled = fleet.poll();
        assert_eq!(polled.bad_cycles, 1);
        assert_eq!(polled.cycles, 1);
        let (report, _) = fleet.close_stream(id).unwrap();
        assert!(report.is_clean(), "the rejected excursion never fired");
    }

    #[test]
    fn metrics_merge_all_streams_live_and_retired() {
        let mut fleet = Fleet::new(catalog(), config(3, 8));
        let a = fleet.open_stream();
        let b = fleet.open_stream();
        for (id, v) in [(a, 0.5), (b, 2.0)] {
            let mut batch = SampleBatch::new(id);
            batch.push(0.1, "x", v);
            batch.push(0.2, "x", v);
            fleet.submit(batch).unwrap();
        }
        fleet.poll();
        let live = fleet.metrics();
        assert_eq!(live.cycles, 4);
        fleet.close_stream(a).unwrap();
        let mixed = fleet.metrics();
        assert_eq!(mixed.cycles, 4, "retired streams stay in the totals");
        assert_eq!(mixed.assertions[0].verdicts.violated, 2);
    }

    #[test]
    fn handle_submits_from_producer_threads() {
        let mut fleet = Fleet::new(catalog(), config(2, 64));
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
        assert_eq!(fleet.poll().cycles, 4);
    }
}
