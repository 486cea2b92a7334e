//! The committed `testdata/fleet.adckpt` pins the ADCKPT format.
//!
//! [`golden_image`] writes it: a two-shard fleet behind a loopback ingest
//! server, fed by two producer sessions with seeded values. The fleet
//! holds monitors in degraded and suspended health with their streaks, a
//! closed stream whose slot a later open reuses at the next generation,
//! retired metrics, and a session table with each session's handle map
//! and ring of recent responses. The test checks both directions: the
//! program encodes exactly the committed bytes, and the committed bytes
//! restore to a server whose checkpoint is those bytes again. Every value
//! fed is a multiple of 1/8 or a NaN, and no condition calls libm, so the
//! file is the same on every platform. A deliberate format change bumps
//! `CKPT_VERSION` and replaces the file in the same change.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};

use adassure_core::{Assertion, Condition, HealthConfig, Severity, SignalExpr, Temporal};
use adassure_fleet::ingest::connect_tcp;
use adassure_fleet::{
    restore_server, Fleet, FleetConfig, IngestConfig, IngestListener, IngestServer, ProducerConfig,
    SampleBatch, SessionSeed, StreamId,
};

const GOLDEN: &[u8] = include_bytes!("../testdata/fleet.adckpt");

fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "G1",
            "bounded x",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("x").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "G2",
            "x tracks gnss",
            Severity::Warning,
            Condition::AtMost {
                expr: SignalExpr::signal("x")
                    .sub(SignalExpr::signal("gnss"))
                    .abs(),
                limit: 2.0,
            },
        )
        .with_temporal(Temporal::Sustained(0.25)),
        Assertion::new(
            "G3",
            "fresh gnss",
            Severity::Info,
            Condition::Fresh {
                signal: "gnss".into(),
                max_age: 0.375,
            },
        ),
    ]
}

fn config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        health: HealthConfig {
            stale_after: 0.25,
            quarantine_after: 4,
            recover_after: 3,
        },
        ..FleetConfig::default()
    }
}

/// A 64-bit LCG: the values fed are a function of `seed` alone.
struct Lcg(u64);

impl Lcg {
    /// A multiple of 1/8 in `[-2, 2)`.
    fn eighth(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        f64::from((self.0 >> 59) as u32) / 8.0 - 2.0
    }
}

/// Ten cycles of batch `k` for one stream: `x` every cycle (NaN in a
/// burst on some streams), `gnss` only in the first half of some batches.
fn batch(id: StreamId, k: u64, rng: &mut Lcg, nan_burst: bool) -> SampleBatch {
    let mut batch = SampleBatch::new(id);
    for c in 0..10u64 {
        let t = 0.125 * (10 * k + c) as f64;
        let x = if nan_burst && (3..9).contains(&c) {
            f64::NAN
        } else {
            rng.eighth()
        };
        batch.push(t, "x", x);
        if c < 5 || k.is_multiple_of(2) {
            batch.push(t, "gnss", rng.eighth());
        }
    }
    batch
}

fn spawn(fleet: Fleet, seed: Option<SessionSeed>) -> IngestServer {
    let listener = IngestListener::Tcp(TcpListener::bind("127.0.0.1:0").expect("bind loopback"));
    let fleet = Arc::new(Mutex::new(fleet));
    match seed {
        None => IngestServer::spawn(fleet, listener, IngestConfig::default()),
        Some(seed) => IngestServer::spawn_restored(fleet, listener, IngestConfig::default(), seed),
    }
    .expect("spawn server")
}

/// The image of `testdata/fleet.adckpt`.
fn golden_image() -> Vec<u8> {
    let server = spawn(Fleet::new(catalog(), config()), None);
    let addr = server.local_addr().expect("tcp");
    let mut rng = Lcg(0x00AD_C4B7);

    // Session 1 opens four streams (shards 0, 1, 0, 1), closes the first
    // and opens a fifth, which reuses shard 0's slot 0 at generation 1.
    let mut first = connect_tcp(addr, ProducerConfig::default()).expect("first session");
    let mut ids: Vec<_> = (0..4).map(|_| first.open_stream().expect("open")).collect();
    for k in 0..3 {
        for (s, &id) in ids.iter().enumerate() {
            first
                .submit(&batch(id, k, &mut rng, s == 2 && k == 1))
                .expect("submit");
        }
    }
    first.close_stream(ids.remove(0)).expect("close");
    ids.push(first.open_stream().expect("reopen"));
    for k in 3..5 {
        for (s, &id) in ids.iter().enumerate() {
            first
                .submit(&batch(id, k, &mut rng, s == 1 && k == 4))
                .expect("submit");
        }
    }
    first.flush().expect("flush");

    // Session 2 opens one stream on shard 1.
    let mut second = connect_tcp(addr, ProducerConfig::default()).expect("second session");
    let id = second.open_stream().expect("open");
    second
        .submit(&batch(id, 5, &mut rng, true))
        .expect("submit");
    second.flush().expect("flush");

    let image = server.checkpointer().checkpoint_bytes();
    drop((first, second));
    server.shutdown();
    image
}

/// Panics naming the first byte at which `got` differs from the golden
/// file.
fn assert_golden(got: &[u8], what: &str) {
    if let Some(at) = (0..got.len().max(GOLDEN.len())).find(|&i| got.get(i) != GOLDEN.get(i)) {
        panic!(
            "{what} differs from testdata/fleet.adckpt at byte {at} \
             ({} bytes here, {} committed)",
            got.len(),
            GOLDEN.len()
        );
    }
}

#[test]
fn golden_adckpt_is_what_the_program_encodes_and_restores_to_itself() {
    assert_golden(&golden_image(), "the program's image");

    let (fleet, seed) = restore_server(catalog(), config(), GOLDEN).expect("golden restores");
    assert_eq!(seed.len(), 2, "two sessions");
    let stats = fleet.stats();
    assert_eq!((stats.open_streams, stats.closed_streams), (5, 1));
    let transitions = fleet.metrics().health_transitions;
    assert!(
        transitions.iter().any(|t| t.to == "suspended"),
        "some monitor was quarantined: {transitions:?}"
    );
    let server = spawn(fleet, Some(seed));
    let again = server.checkpointer().checkpoint_bytes();
    server.shutdown();
    assert_golden(&again, "the restored server's image");
}
