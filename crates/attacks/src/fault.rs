//! Channel faults on the *monitor's* telemetry stream.
//!
//! [`AttackInjector`](crate::AttackInjector) corrupts the vehicle's sensor
//! frames before the control stack sees them; a [`ChannelFaultInjector`]
//! instead corrupts the samples forwarded from the stack to an observing
//! monitor — the link a guardian listens on. The two are independent: a
//! clean vehicle can have a faulty telemetry link and vice versa, which is
//! exactly the axis the T5 robustness experiment sweeps.
//!
//! Faults are per-sample Bernoulli events at [`FaultSpec::rate`] inside the
//! spec's [`Window`], deterministic for a given seed.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::Window;

/// The kind of telemetry-link fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The sample is lost: nothing is delivered.
    Dropout,
    /// The link freezes: the previously delivered value is repeated instead
    /// of the current one (dropped when nothing was delivered yet).
    StaleRepeat,
    /// The sample is withheld and delivered on the channel's next
    /// opportunity — late, and out of order with the sample it then
    /// accompanies.
    TimestampJitter,
    /// The sample starts a short burst of NaN/±Inf garbage replacing the
    /// next few samples on the channel.
    NanBurst,
    /// The sample is delivered now *and* re-delivered (stale) on the
    /// channel's next opportunity.
    Duplicate,
}

impl FaultKind {
    /// Every fault kind, in sweep order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Dropout,
        FaultKind::StaleRepeat,
        FaultKind::TimestampJitter,
        FaultKind::NanBurst,
        FaultKind::Duplicate,
    ];

    /// Short lowercase name (stable; used in reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Dropout => "dropout",
            FaultKind::StaleRepeat => "stale_repeat",
            FaultKind::TimestampJitter => "timestamp_jitter",
            FaultKind::NanBurst => "nan_burst",
            FaultKind::Duplicate => "duplicate",
        }
    }
}

/// A complete fault configuration: what, how often, when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The fault kind.
    pub kind: FaultKind,
    /// Per-sample probability of the fault firing, in `[0, 1]`.
    pub rate: f64,
    /// When the fault is armed.
    pub window: Window,
}

impl FaultSpec {
    /// Creates a spec. Panics when `rate` is outside `[0, 1]`.
    pub fn new(kind: FaultKind, rate: f64, window: Window) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate outside [0, 1]");
        FaultSpec { kind, rate, window }
    }

    /// A deterministic injector for this spec.
    pub fn injector(self, seed: u64) -> ChannelFaultInjector {
        ChannelFaultInjector::new(self, seed)
    }
}

/// What [`ChannelFaultInjector::apply`] delivered for one offered sample:
/// zero, one or two values (a withheld or duplicated sample from an earlier
/// cycle can ride along with the current one).
#[derive(Debug, Clone, Copy, Default)]
pub struct Delivery {
    vals: [f64; 2],
    len: u8,
}

impl Delivery {
    fn push(&mut self, value: f64) {
        self.vals[usize::from(self.len)] = value;
        self.len += 1;
    }

    /// The delivered values in arrival order: the current cycle's delivery
    /// first, then any stale sample owed from an earlier cycle.
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..usize::from(self.len)]
    }
}

#[derive(Debug, Clone, Default)]
struct ChannelState {
    /// Last value actually delivered, for [`FaultKind::StaleRepeat`].
    last_delivered: Option<f64>,
    /// A value owed to the channel on its next opportunity (jitter's
    /// withheld sample or duplicate's copy).
    pending: Option<f64>,
    /// Remaining garbage samples of an active NaN burst.
    burst_left: u8,
}

/// A stateful, deterministic fault injector over named telemetry channels.
///
/// Call [`ChannelFaultInjector::apply`] for every sample offered to the
/// monitor; feed each value of the returned [`Delivery`] in order.
#[derive(Debug, Clone)]
pub struct ChannelFaultInjector {
    spec: FaultSpec,
    rng: SmallRng,
    channels: HashMap<String, ChannelState>,
    offered: u64,
    dropped: u64,
    corrupted: u64,
}

impl ChannelFaultInjector {
    /// Creates an injector for `spec`, deterministic in `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        ChannelFaultInjector {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0xFA_0717_u64),
            channels: HashMap::new(),
            offered: 0,
            dropped: 0,
            corrupted: 0,
        }
    }

    /// The injected fault configuration.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Samples offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Samples lost outright (dropouts, plus stale-repeats with no history).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Samples replaced, delayed, duplicated or poisoned.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Offers the sample `(t, value)` on `channel` and returns what the
    /// faulty link delivers, in arrival order (stale owed samples last).
    pub fn apply(&mut self, channel: &str, t: f64, value: f64) -> Delivery {
        self.offered += 1;
        if !self.channels.contains_key(channel) {
            self.channels
                .insert(channel.to_owned(), ChannelState::default());
        }
        let state = self
            .channels
            .get_mut(channel)
            .expect("channel state just inserted");
        let mut out = Delivery::default();
        let owed = state.pending.take();
        if state.burst_left > 0 {
            state.burst_left -= 1;
            self.corrupted += 1;
            out.push(if state.burst_left.is_multiple_of(2) {
                f64::NAN
            } else {
                f64::INFINITY
            });
        } else if !self.spec.window.contains(t) || self.rng.gen::<f64>() >= self.spec.rate {
            state.last_delivered = Some(value);
            out.push(value);
        } else {
            match self.spec.kind {
                FaultKind::Dropout => self.dropped += 1,
                FaultKind::StaleRepeat => match state.last_delivered {
                    Some(stale) => {
                        self.corrupted += 1;
                        out.push(stale);
                    }
                    None => self.dropped += 1,
                },
                FaultKind::TimestampJitter => {
                    self.corrupted += 1;
                    state.pending = Some(value);
                }
                FaultKind::NanBurst => {
                    self.corrupted += 1;
                    // This sample plus the next 1..=5 become garbage.
                    state.burst_left = 1 + (self.rng.gen::<u32>() % 5) as u8;
                    out.push(f64::NAN);
                }
                FaultKind::Duplicate => {
                    self.corrupted += 1;
                    state.last_delivered = Some(value);
                    state.pending = Some(value);
                    out.push(value);
                }
            }
        }
        // Anything owed from an earlier cycle (jitter's withheld sample,
        // duplicate's copy) arrives *after* the newer delivery — late and
        // out of order, so a sample-and-hold consumer ends the cycle on
        // the stale value.
        if let Some(old) = owed {
            out.push(old);
        }
        out
    }
}

// The campaign engine shares injectors across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ChannelFaultInjector>();
    assert_send_sync::<FaultSpec>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(kind: FaultKind, rate: f64) -> ChannelFaultInjector {
        FaultSpec::new(kind, rate, Window::always()).injector(7)
    }

    /// Drives `n` samples (values `0..n`) through one channel, collecting
    /// all deliveries.
    fn drain(inj: &mut ChannelFaultInjector, n: u32) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = f64::from(i) * 0.1;
            out.extend_from_slice(inj.apply("gnss_x", t, f64::from(i)).as_slice());
        }
        out
    }

    #[test]
    fn zero_rate_is_transparent() {
        for kind in FaultKind::ALL {
            let mut inj = injector(kind, 0.0);
            let delivered = drain(&mut inj, 50);
            assert_eq!(delivered, (0..50).map(f64::from).collect::<Vec<_>>());
            assert_eq!(inj.dropped(), 0);
            assert_eq!(inj.corrupted(), 0);
        }
    }

    #[test]
    fn injectors_are_deterministic_per_seed() {
        for kind in FaultKind::ALL {
            let spec = FaultSpec::new(kind, 0.3, Window::always());
            let a = drain(&mut spec.injector(3), 200);
            let b = drain(&mut spec.injector(3), 200);
            assert_eq!(a.len(), b.len());
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            let c = drain(&mut spec.injector(4), 200);
            assert_ne!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "different seeds must fault differently"
            );
        }
    }

    #[test]
    fn dropout_loses_roughly_rate_of_samples() {
        let mut inj = injector(FaultKind::Dropout, 0.2);
        let delivered = drain(&mut inj, 1000);
        assert_eq!(inj.offered(), 1000);
        assert_eq!(delivered.len() as u64, 1000 - inj.dropped());
        let rate = inj.dropped() as f64 / 1000.0;
        assert!((0.1..0.3).contains(&rate), "observed dropout rate {rate}");
    }

    #[test]
    fn stale_repeat_replays_the_last_delivered_value() {
        let mut inj = injector(FaultKind::StaleRepeat, 0.4);
        let delivered = drain(&mut inj, 300);
        assert_eq!(delivered.len(), 300, "repeats substitute, never drop");
        let mut stale = 0u64;
        for pair in delivered.windows(2) {
            assert!(pair[1] >= pair[0], "only ever replays, never invents");
            if pair[1] == pair[0] {
                stale += 1;
            }
        }
        assert!(stale > 0, "faults at 40% must actually repeat");
        assert_eq!(stale, inj.corrupted());
    }

    #[test]
    fn jitter_delivers_late_and_out_of_order() {
        let mut inj = injector(FaultKind::TimestampJitter, 0.4);
        let delivered = drain(&mut inj, 300);
        // Withheld samples are owed, not lost; only the final sample can
        // still be in flight when the stream ends.
        assert!(delivered.len() >= 299, "{} delivered", delivered.len());
        assert!(
            delivered.windows(2).any(|p| p[1] < p[0]),
            "some pair must arrive out of order"
        );
        // Every delivered value is an offered value, delivered once.
        let mut sorted = delivered.clone();
        sorted.sort_by(f64::total_cmp);
        let expected: Vec<f64> = (0..300).map(f64::from).take(sorted.len()).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn nan_burst_emits_runs_of_non_finite_garbage() {
        let mut inj = injector(FaultKind::NanBurst, 0.1);
        let delivered = drain(&mut inj, 400);
        let garbage = delivered.iter().filter(|v| !v.is_finite()).count();
        assert!(garbage >= 2, "bursts must appear at 10% over 400 samples");
        assert!(
            delivered.iter().any(|v| v.is_nan()) && delivered.iter().any(|v| v.is_infinite()),
            "bursts cycle NaN and Inf"
        );
        assert_eq!(garbage as u64, inj.corrupted());
    }

    #[test]
    fn duplicate_redelivers_values() {
        let mut inj = injector(FaultKind::Duplicate, 0.3);
        let delivered = drain(&mut inj, 300);
        assert!(delivered.len() > 300, "duplicates add deliveries");
        // Only the final sample's copy can still be in flight at the end.
        assert!(delivered.len() as u64 >= 300 + inj.corrupted() - 1);
        // Every value appears at most twice and nothing is invented.
        for i in 0..300u32 {
            let v = f64::from(i);
            let n = delivered.iter().filter(|d| **d == v).count();
            assert!((1..=2).contains(&n), "value {v} delivered {n} times");
        }
    }

    #[test]
    fn faults_respect_the_window() {
        let spec = FaultSpec::new(FaultKind::Dropout, 1.0, Window::new(5.0, 10.0));
        let mut inj = spec.injector(1);
        for i in 0..200 {
            let t = f64::from(i) * 0.1;
            let delivered = inj.apply("wheel_speed", t, 1.0);
            if (5.0..10.0).contains(&t) {
                assert!(delivered.as_slice().is_empty(), "armed window drops all");
            } else {
                assert_eq!(delivered.as_slice(), &[1.0]);
            }
        }
    }

    #[test]
    fn channels_fault_independently() {
        let mut inj = injector(FaultKind::StaleRepeat, 0.5);
        for i in 0..50 {
            let t = f64::from(i) * 0.1;
            inj.apply("a", t, f64::from(i));
            let b = inj.apply("b", t, -f64::from(i));
            for v in b.as_slice() {
                assert!(*v <= 0.0, "channel b never sees channel a's history");
            }
        }
    }

    #[test]
    fn rate_must_be_a_probability() {
        let r =
            std::panic::catch_unwind(|| FaultSpec::new(FaultKind::Dropout, 1.5, Window::always()));
        assert!(r.is_err());
    }
}
