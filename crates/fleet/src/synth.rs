//! A seeded synthetic vehicle fleet: a three-assertion catalog, a
//! per-stream telemetry synthesizer and the wave loop that cuts each
//! stream's cycles into sample batches.
//!
//! `monitor-server`'s demo driver and the `fleet-soak` smoke both run it.
//! Every stream is a deterministic function of its seed, so two runs of
//! the same seeds give byte-identical reports, however the cycles travel
//! (in-process, over a socket, across a server crash).
//!
//! Each stream trips every assertion of [`catalog`] by construction: once
//! every 256 cycles it sends one sign-flipped speed sample (`K2`) and
//! starts a 12-cycle GNSS dropout (`K3`), at phases drawn from its seed;
//! `K1` fires on rare cross-track excursions.

use adassure_core::{Assertion, Condition, Severity, SignalExpr};

use crate::{SampleBatch, StreamId};

/// Time between two cycles of a stream (s).
const DT: f64 = 0.05;

/// Every stream sends one negative speed and starts one GNSS dropout in
/// each run of this many cycles.
const FAULT_PERIOD: u64 = 256;

/// Cycles a GNSS dropout lasts: 12 × 50 ms without a fix, past `K3`'s
/// 0.5 s bound.
const DROPOUT_CYCLES: u64 = 12;

/// The fleet's catalog: bounded cross-track error (`K1`), non-negative
/// speed (`K2`) and a fresh GNSS fix (`K3`).
pub fn catalog() -> Vec<Assertion> {
    vec![
        Assertion::new(
            "K1",
            "bounded cross-track error",
            Severity::Critical,
            Condition::AtMost {
                expr: SignalExpr::signal("xtrack").abs(),
                limit: 1.0,
            },
        ),
        Assertion::new(
            "K2",
            "speed stays non-negative",
            Severity::Warning,
            Condition::AtLeast {
                expr: SignalExpr::signal("speed"),
                limit: 0.0,
            },
        ),
        Assertion::new(
            "K3",
            "gnss fix is fresh",
            Severity::Critical,
            Condition::Fresh {
                signal: "gnss_x".into(),
                max_age: 0.5,
            },
        ),
    ]
}

/// One stream's telemetry: an LCG seeded per stream.
#[derive(Debug)]
pub struct Synth {
    state: u64,
    t: f64,
    cycle: u64,
    /// Phase, within [`FAULT_PERIOD`], of the negative speed sample.
    glitch: u64,
    /// Phase, within [`FAULT_PERIOD`], at which a GNSS dropout starts.
    dropout: u64,
}

impl Synth {
    /// The synthesizer of the stream with this seed.
    pub fn new(seed: u64) -> Self {
        let mut synth = Synth {
            state: seed.wrapping_mul(2654435761).wrapping_add(12345),
            t: 0.0,
            cycle: 0,
            glitch: 0,
            dropout: 0,
        };
        synth.glitch = synth.next() % FAULT_PERIOD;
        synth.dropout = synth.next() % FAULT_PERIOD;
        synth
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    fn uniform(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }

    /// Appends one cycle of samples at the stream's next timestamp:
    /// `xtrack` and `speed` every cycle, `gnss_x` on four cycles in five
    /// outside a dropout.
    pub fn cycle_into(&mut self, batch: &mut SampleBatch) {
        let phase = self.cycle % FAULT_PERIOD;
        self.cycle += 1;
        self.t += DT;
        let xtrack = if self.uniform() < 0.02 {
            1.0 + self.uniform() * 2.0
        } else {
            self.uniform() * 0.9
        };
        batch.push(self.t, "xtrack", xtrack);
        let speed = 4.0 + self.uniform();
        let speed = if phase == self.glitch { -speed } else { speed };
        batch.push(self.t, "speed", speed);
        let dropped = (phase + FAULT_PERIOD - self.dropout) % FAULT_PERIOD < DROPOUT_CYCLES;
        if self.uniform() > 0.2 && !dropped {
            batch.push(self.t, "gnss_x", self.uniform() * 50.0);
        }
    }
}

/// The cycle counts of the waves that cut `cycles` cycles per stream
/// into batches of at most `batch` (> 0) cycles.
pub fn waves(cycles: usize, batch: usize) -> impl Iterator<Item = usize> {
    (0..cycles.div_ceil(batch)).map(move |wave| batch.min(cycles - wave * batch))
}

/// One wave: the next `cycles` cycles of every stream, one batch per
/// stream, handed to `submit` in stream order.
pub fn wave(
    ids: &[StreamId],
    synths: &mut [Synth],
    cycles: usize,
    mut submit: impl FnMut(SampleBatch),
) {
    for (id, synth) in ids.iter().zip(synths) {
        let mut batch = SampleBatch::new(*id);
        for _ in 0..cycles {
            synth.cycle_into(&mut batch);
        }
        submit(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_cover_every_cycle_once() {
        assert_eq!(waves(48, 32).collect::<Vec<_>>(), [32, 16]);
        assert_eq!(waves(16, 8).collect::<Vec<_>>(), [8, 8]);
        assert_eq!(waves(0, 8).count(), 0);
    }

    #[test]
    fn every_stream_glitches_and_drops_out_once_per_period() {
        for seed in 0..16 {
            let mut synth = Synth::new(seed);
            let (mut negative, mut gap, mut longest_gap) = (0, 0, 0);
            for _ in 0..2 * FAULT_PERIOD {
                let mut batch = SampleBatch::new(StreamId::from_raw(0, 0, 0));
                synth.cycle_into(&mut batch);
                let value = |name: &str| {
                    let sample = batch.samples.iter().find(|s| s.channel.as_str() == name);
                    sample.map(|s| s.value)
                };
                if value("speed").is_some_and(|v| v < 0.0) {
                    negative += 1;
                }
                gap = if value("gnss_x").is_some() {
                    0
                } else {
                    gap + 1
                };
                longest_gap = longest_gap.max(gap);
            }
            assert_eq!(negative, 2, "seed {seed}");
            assert!(longest_gap >= DROPOUT_CYCLES, "seed {seed}: {longest_gap}");
        }
    }
}
