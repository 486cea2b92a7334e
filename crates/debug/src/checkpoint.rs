//! Versioned binary checkpoints of a mid-run simulation (`ADSIM`).
//!
//! A [`SimCheckpoint`] captures everything mutable between two control
//! cycles — the engine loop ([`SimSnapshot`], including the trace so
//! far), the controller stack, every attack injector, the online checker
//! and (for guardian-driven runs) the guardian's mode machine — so a
//! restored run continues bit-identically to the uninterrupted one.
//!
//! The image is a binary container in the shared conventions of
//! [`adassure_trace::binary`] (raw float bits, so NaN sentinels like the
//! LQR gain cache survive exactly) and decodes into a typed
//! [`CodecError`]. The checker section is the *same* encoding the fleet
//! `ADCKPT` format uses, via [`codec::put_checker`] /
//! [`codec::read_checker`].

use adassure::guardian::{GuardState, GuardianState};
use adassure_attacks::{FaultChannelState, FaultInjectorState, InjectorState};
use adassure_control::ekf::EkfState;
use adassure_control::estimator::EstimatorState;
use adassure_control::lqr::LqrState;
use adassure_control::mpc::MpcState;
use adassure_control::pid::PidState;
use adassure_control::pipeline::{AnyEstimatorState, LateralState, StackState};
use adassure_core::codec::{self, CodecError};
use adassure_core::CheckerState;
use adassure_sim::engine::SimSnapshot;
use adassure_sim::geometry::Vec2;
use adassure_sim::vehicle::VehicleState;
use adassure_trace::binary::{put_count, put_header, put_opt_f64, put_u16_str, Cur};
use adassure_trace::ColumnarTrace;

/// File magic of a sim debug checkpoint.
pub const MAGIC: &[u8; 5] = b"ADSIM";
/// Current format version (2: the shared container header replaced
/// version 1's `u16` version field; 3: the checker section dropped its
/// wall-clock latency histogram, so equal states encode to equal bytes;
/// 4: the embedded trace is `.adt` version 2, whose full-rate series
/// store only their values).
pub const VERSION: u8 = 4;

/// The driver half of a checkpoint: whichever control loop was producing
/// commands when the snapshot was taken.
#[derive(Debug, Clone)]
pub enum DriverState {
    /// A bare control stack (the campaign configuration).
    Stack(Box<StackState>),
    /// A guardian-wrapped stack with its in-loop checkers and mode
    /// machine.
    Guardian(Box<GuardianState>),
}

/// A complete mid-run state capture, taken between two control cycles.
#[derive(Debug, Clone)]
pub struct SimCheckpoint {
    /// Completed cycles at capture time (the index of the next cycle).
    pub cycle: u64,
    /// The engine loop's state, including the trace recorded so far.
    pub sim: SimSnapshot,
    /// Per-entry attack injector states, in timeline order.
    pub injectors: Vec<InjectorState>,
    /// The online checker's state.
    pub checker: CheckerState,
    /// The driver's state.
    pub driver: DriverState,
}

impl SimCheckpoint {
    /// Serializes the checkpoint as a versioned `ADSIM` binary image.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        put_header(&mut out, MAGIC, VERSION);
        out.extend_from_slice(&self.cycle.to_le_bytes());
        put_sim(&mut out, &self.sim);
        put_count(&mut out, self.injectors.len());
        for inj in &self.injectors {
            put_injector(&mut out, inj);
        }
        codec::put_checker(&mut out, &self.checker);
        match &self.driver {
            DriverState::Stack(s) => {
                out.push(0);
                put_stack(&mut out, s);
            }
            DriverState::Guardian(g) => {
                out.push(1);
                put_guardian(&mut out, g);
            }
        }
        out
    }

    /// Parses an `ADSIM` image back into a checkpoint.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] for truncation, bad magic or invalid
    /// tags; [`CodecError::Incompatible`] for an unknown version.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut c = Cur::new(bytes);
        let version = c.header(MAGIC)?;
        if version != VERSION {
            return Err(CodecError::incompatible(format!(
                "ADSIM version {version} (this build reads {VERSION})"
            )));
        }
        let cycle = c.u64("cycle")?;
        let sim = read_sim(&mut c)?;
        let injector_count = c.count("injector count")?;
        let mut injectors = Vec::with_capacity(injector_count);
        for _ in 0..injector_count {
            injectors.push(read_injector(&mut c)?);
        }
        let checker = codec::read_checker(&mut c)?;
        let driver = match c.u8("driver tag")? {
            0 => DriverState::Stack(Box::new(read_stack(&mut c)?)),
            1 => DriverState::Guardian(Box::new(read_guardian(&mut c)?)),
            other => return Err(c.bad(format!("invalid driver tag {other}")).into()),
        };
        c.expect_end("checkpoint")?;
        Ok(SimCheckpoint {
            cycle,
            sim,
            injectors,
            checker,
            driver,
        })
    }
}

// ---------------------------------------------------------------------------
// Small shared pieces
// ---------------------------------------------------------------------------

fn put_vec2(out: &mut Vec<u8>, v: Vec2) {
    out.extend_from_slice(&v.x.to_le_bytes());
    out.extend_from_slice(&v.y.to_le_bytes());
}

fn read_vec2(c: &mut Cur<'_>, what: &str) -> Result<Vec2, CodecError> {
    Ok(Vec2 {
        x: c.f64(what)?,
        y: c.f64(what)?,
    })
}

fn put_rng(out: &mut Vec<u8>, rng: &[u64; 4]) {
    for &w in rng {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn read_rng(c: &mut Cur<'_>, what: &str) -> Result<[u64; 4], CodecError> {
    Ok([c.u64(what)?, c.u64(what)?, c.u64(what)?, c.u64(what)?])
}

fn put_time_fix_list(out: &mut Vec<u8>, list: &[(f64, Vec2)]) {
    put_count(out, list.len());
    for &(t, p) in list {
        out.extend_from_slice(&t.to_le_bytes());
        put_vec2(out, p);
    }
}

fn read_time_fix_list(c: &mut Cur<'_>, what: &str) -> Result<Vec<(f64, Vec2)>, CodecError> {
    let n = c.count(what)?;
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        list.push((c.f64(what)?, read_vec2(c, what)?));
    }
    Ok(list)
}

// ---------------------------------------------------------------------------
// Engine loop
// ---------------------------------------------------------------------------

fn put_sim(out: &mut Vec<u8>, s: &SimSnapshot) {
    put_rng(out, &s.rng);
    out.extend_from_slice(&s.sensor_cycle.to_le_bytes());
    out.extend_from_slice(&s.steering.to_le_bytes());
    out.extend_from_slice(&s.drivetrain.to_le_bytes());
    put_vec2(out, s.state.position);
    for v in [
        s.state.heading,
        s.state.speed,
        s.state.lateral_speed,
        s.state.yaw_rate,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    match s.last_fix {
        Some((t, p)) => {
            out.push(1);
            out.extend_from_slice(&t.to_le_bytes());
            put_vec2(out, p);
        }
        None => out.push(0),
    }
    put_time_fix_list(out, &s.fix_history);
    put_count(out, s.wheel_history.len());
    for &(t, v) in &s.wheel_history {
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&s.wheel_jitter.to_le_bytes());
    put_opt_f64(out, s.last_wheel);
    out.extend_from_slice(&s.actual_accel.to_le_bytes());
    out.extend_from_slice(&s.true_progress.to_le_bytes());
    out.extend_from_slice(&s.last_station.to_le_bytes());
    out.push(u8::from(s.reached_goal));
    out.extend_from_slice(&s.steps.to_le_bytes());
    // The trace rides along as a length-prefixed columnar image, so the
    // restored session appends to byte-identical history.
    let trace = ColumnarTrace::from_trace(&s.trace).encode();
    put_count(out, trace.len());
    out.extend_from_slice(&trace);
}

fn read_sim(c: &mut Cur<'_>) -> Result<SimSnapshot, CodecError> {
    let rng = read_rng(c, "sim rng")?;
    let sensor_cycle = c.u64("sensor cycle")?;
    let steering = c.f64("steering actuator")?;
    let drivetrain = c.f64("drivetrain actuator")?;
    let state = VehicleState {
        position: read_vec2(c, "vehicle position")?,
        heading: c.f64("vehicle heading")?,
        speed: c.f64("vehicle speed")?,
        lateral_speed: c.f64("vehicle lateral speed")?,
        yaw_rate: c.f64("vehicle yaw rate")?,
    };
    let last_fix = if c.bool("last fix flag")? {
        Some((c.f64("last fix time")?, read_vec2(c, "last fix")?))
    } else {
        None
    };
    let fix_history = read_time_fix_list(c, "fix history")?;
    let wheel_count = c.count("wheel history")?;
    let mut wheel_history = Vec::with_capacity(wheel_count);
    for _ in 0..wheel_count {
        wheel_history.push((c.f64("wheel history")?, c.f64("wheel history")?));
    }
    let wheel_jitter = c.f64("wheel jitter")?;
    let last_wheel = c.opt_f64("last wheel")?;
    let actual_accel = c.f64("actual accel")?;
    let true_progress = c.f64("true progress")?;
    let last_station = c.f64("last station")?;
    let reached_goal = c.bool("reached goal")?;
    let steps = c.u64("sim steps")?;
    let trace_len = c.count("trace length")?;
    let trace_bytes = c.take(trace_len, "trace image")?;
    let trace = ColumnarTrace::decode(trace_bytes)
        .map_err(|e| c.bad(format!("embedded trace: {e}")))?
        .to_trace();
    Ok(SimSnapshot {
        rng,
        sensor_cycle,
        steering,
        drivetrain,
        state,
        last_fix,
        fix_history,
        wheel_history,
        wheel_jitter,
        last_wheel,
        actual_accel,
        true_progress,
        last_station,
        reached_goal,
        steps,
        trace,
    })
}

// ---------------------------------------------------------------------------
// Attack injectors
// ---------------------------------------------------------------------------

fn put_injector(out: &mut Vec<u8>, s: &InjectorState) {
    put_rng(out, &s.rng);
    match s.frozen_fix {
        Some(p) => {
            out.push(1);
            put_vec2(out, p);
        }
        None => out.push(0),
    }
    put_opt_f64(out, s.frozen_speed);
    put_time_fix_list(out, &s.delay_buffer);
}

fn read_injector(c: &mut Cur<'_>) -> Result<InjectorState, CodecError> {
    let rng = read_rng(c, "injector rng")?;
    let frozen_fix = if c.bool("frozen fix flag")? {
        Some(read_vec2(c, "frozen fix")?)
    } else {
        None
    };
    let frozen_speed = c.opt_f64("frozen speed")?;
    let delay_buffer = read_time_fix_list(c, "delay buffer")?;
    Ok(InjectorState {
        rng,
        frozen_fix,
        frozen_speed,
        delay_buffer,
    })
}

// ---------------------------------------------------------------------------
// Controller stack
// ---------------------------------------------------------------------------

fn put_stack(out: &mut Vec<u8>, s: &StackState) {
    match &s.estimator {
        AnyEstimatorState::Complementary(e) => {
            out.push(0);
            put_vec2(out, e.position);
            for v in [e.heading, e.speed] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.push(u8::from(e.initialized));
            out.extend_from_slice(&e.last_innovation.to_le_bytes());
        }
        AnyEstimatorState::Ekf(e) => {
            out.push(1);
            for v in e.state {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for row in e.covariance {
                for v in row {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            out.push(u8::from(e.initialized));
            out.extend_from_slice(&e.last_innovation.to_le_bytes());
            out.extend_from_slice(&e.rejected_fixes.to_le_bytes());
        }
    }
    match &s.lateral {
        LateralState::Stateless => out.push(0),
        LateralState::Lqr(l) => {
            out.push(1);
            // Raw bits: cached_speed uses NaN as the never-solved sentinel.
            out.extend_from_slice(&l.cached_speed.to_le_bytes());
            for v in l.gains {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        LateralState::Mpc(m) => {
            out.push(2);
            put_count(out, m.plan.len());
            for &v in &m.plan {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&m.cycles_since_plan.to_le_bytes());
            out.extend_from_slice(&m.last_command.to_le_bytes());
        }
    }
    out.extend_from_slice(&s.pid.integral.to_le_bytes());
    put_opt_f64(out, s.pid.last_error);
    out.extend_from_slice(&s.progress.to_le_bytes());
    put_opt_f64(out, s.last_station);
}

fn read_stack(c: &mut Cur<'_>) -> Result<StackState, CodecError> {
    let estimator = match c.u8("estimator tag")? {
        0 => AnyEstimatorState::Complementary(EstimatorState {
            position: read_vec2(c, "estimator position")?,
            heading: c.f64("estimator heading")?,
            speed: c.f64("estimator speed")?,
            initialized: c.bool("estimator initialized")?,
            last_innovation: c.f64("estimator innovation")?,
        }),
        1 => {
            let mut state = [0.0; 4];
            for v in &mut state {
                *v = c.f64("ekf state")?;
            }
            let mut covariance = [[0.0; 4]; 4];
            for row in &mut covariance {
                for v in row.iter_mut() {
                    *v = c.f64("ekf covariance")?;
                }
            }
            AnyEstimatorState::Ekf(EkfState {
                state,
                covariance,
                initialized: c.bool("ekf initialized")?,
                last_innovation: c.f64("ekf innovation")?,
                rejected_fixes: c.u64("ekf rejected fixes")?,
            })
        }
        other => return Err(c.bad(format!("invalid estimator tag {other}")).into()),
    };
    let lateral = match c.u8("lateral tag")? {
        0 => LateralState::Stateless,
        1 => {
            let cached_speed = c.f64("lqr cached speed")?;
            let gains = [c.f64("lqr gain")?, c.f64("lqr gain")?];
            LateralState::Lqr(LqrState {
                cached_speed,
                gains,
            })
        }
        2 => {
            let n = c.count("mpc plan")?;
            let mut plan = Vec::with_capacity(n);
            for _ in 0..n {
                plan.push(c.f64("mpc plan")?);
            }
            LateralState::Mpc(MpcState {
                plan,
                cycles_since_plan: c.u64("mpc cycles since plan")?,
                last_command: c.f64("mpc last command")?,
            })
        }
        other => return Err(c.bad(format!("invalid lateral tag {other}")).into()),
    };
    let pid = PidState {
        integral: c.f64("pid integral")?,
        last_error: c.opt_f64("pid last error")?,
    };
    let progress = c.f64("stack progress")?;
    let last_station = c.opt_f64("stack last station")?;
    Ok(StackState {
        estimator,
        lateral,
        pid,
        progress,
        last_station,
    })
}

// ---------------------------------------------------------------------------
// Guardian
// ---------------------------------------------------------------------------

fn put_guardian(out: &mut Vec<u8>, g: &GuardianState) {
    put_stack(out, &g.stack);
    codec::put_checker(out, &g.primary);
    codec::put_checker(out, &g.widened);
    match g.state {
        GuardState::Nominal => out.push(0),
        GuardState::Degraded { since } => {
            out.push(1);
            out.extend_from_slice(&since.to_le_bytes());
        }
        GuardState::SafeStop { since, held_steer } => {
            out.push(2);
            out.extend_from_slice(&since.to_le_bytes());
            out.extend_from_slice(&held_steer.to_le_bytes());
        }
    }
    match &g.trigger {
        Some(v) => {
            out.push(1);
            codec::put_violation(out, v);
        }
        None => out.push(0),
    }
    out.extend_from_slice(&g.clean_streak.to_le_bytes());
    out.extend_from_slice(&g.degraded_cycles.to_le_bytes());
    match &g.fault {
        Some(f) => {
            out.push(1);
            put_fault(out, f);
        }
        None => out.push(0),
    }
    codec::put_grid(out, &g.guard_grid);
    out.extend_from_slice(&g.events_emitted.to_le_bytes());
}

fn read_guardian(c: &mut Cur<'_>) -> Result<GuardianState, CodecError> {
    let stack = read_stack(c)?;
    let primary = codec::read_checker(c)?;
    let widened = codec::read_checker(c)?;
    let state = match c.u8("guard state tag")? {
        0 => GuardState::Nominal,
        1 => GuardState::Degraded {
            since: c.f64("degraded since")?,
        },
        2 => GuardState::SafeStop {
            since: c.f64("safe stop since")?,
            held_steer: c.f64("held steer")?,
        },
        other => return Err(c.bad(format!("invalid guard state tag {other}")).into()),
    };
    let trigger = if c.bool("trigger flag")? {
        Some(codec::read_violation(c)?)
    } else {
        None
    };
    let clean_streak = c.u32("clean streak")?;
    let degraded_cycles = c.u64("degraded cycles")?;
    let fault = if c.bool("fault flag")? {
        Some(read_fault(c)?)
    } else {
        None
    };
    let guard_grid = codec::read_grid(c, "guard grid")?;
    let events_emitted = c.u64("guardian events")?;
    Ok(GuardianState {
        stack,
        primary,
        widened,
        state,
        trigger,
        clean_streak,
        degraded_cycles,
        fault,
        guard_grid,
        events_emitted,
    })
}

fn put_fault(out: &mut Vec<u8>, f: &FaultInjectorState) {
    put_rng(out, &f.rng);
    put_count(out, f.channels.len());
    for ch in &f.channels {
        put_u16_str(out, &ch.channel);
        put_opt_f64(out, ch.last_delivered);
        put_opt_f64(out, ch.pending);
        out.push(ch.burst_left);
    }
    out.extend_from_slice(&f.offered.to_le_bytes());
    out.extend_from_slice(&f.dropped.to_le_bytes());
    out.extend_from_slice(&f.corrupted.to_le_bytes());
}

fn read_fault(c: &mut Cur<'_>) -> Result<FaultInjectorState, CodecError> {
    let rng = read_rng(c, "fault rng")?;
    let n = c.count("fault channels")?;
    let mut channels = Vec::with_capacity(n);
    for _ in 0..n {
        channels.push(FaultChannelState {
            channel: c.str16("fault channel name")?,
            last_delivered: c.opt_f64("fault last delivered")?,
            pending: c.opt_f64("fault pending")?,
            burst_left: c.u8("fault burst")?,
        });
    }
    Ok(FaultInjectorState {
        rng,
        channels,
        offered: c.u64("fault offered")?,
        dropped: c.u64("fault dropped")?,
        corrupted: c.u64("fault corrupted")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adassure_core::online::{HealthState, OnlineChecker};

    fn sample_checker_state() -> CheckerState {
        let catalog =
            adassure_core::catalog::build(&adassure_core::catalog::CatalogConfig::default());
        let mut checker = OnlineChecker::new(catalog);
        checker.begin_cycle(0.0).expect("first cycle");
        checker.update("true_speed", 5.0);
        checker.end_cycle();
        checker.save_state()
    }

    fn sample_checkpoint() -> SimCheckpoint {
        let mut trace = adassure_trace::Trace::new();
        trace.record("x", 0.0, 1.0);
        trace.record("x", 0.01, f64::NAN);
        SimCheckpoint {
            cycle: 2,
            sim: SimSnapshot {
                rng: [1, 2, 3, 4],
                sensor_cycle: 2,
                steering: 0.02,
                drivetrain: 0.5,
                state: VehicleState {
                    position: Vec2 { x: 1.0, y: -2.0 },
                    heading: 0.3,
                    speed: 4.0,
                    lateral_speed: 0.0,
                    yaw_rate: 0.01,
                },
                last_fix: Some((0.0, Vec2 { x: 1.1, y: -2.2 })),
                fix_history: vec![(0.0, Vec2 { x: 1.1, y: -2.2 })],
                wheel_history: vec![(0.0, 3.9), (0.01, 4.0)],
                wheel_jitter: 0.05,
                last_wheel: Some(4.0),
                actual_accel: 0.7,
                true_progress: 3.0,
                last_station: 3.1,
                reached_goal: false,
                steps: 2,
                trace,
            },
            injectors: vec![InjectorState {
                rng: [9, 8, 7, 6],
                frozen_fix: None,
                frozen_speed: Some(4.0),
                delay_buffer: vec![(0.0, Vec2 { x: 0.0, y: 0.0 })],
            }],
            checker: sample_checker_state(),
            driver: DriverState::Stack(Box::new(StackState {
                estimator: AnyEstimatorState::Complementary(EstimatorState {
                    position: Vec2 { x: 1.0, y: -2.0 },
                    heading: 0.3,
                    speed: 4.0,
                    initialized: true,
                    last_innovation: 0.2,
                }),
                lateral: LateralState::Lqr(LqrState {
                    cached_speed: f64::NAN,
                    gains: [0.0, 0.0],
                }),
                pid: PidState {
                    integral: 0.4,
                    last_error: Some(-0.1),
                },
                progress: 3.0,
                last_station: Some(3.1),
            })),
        }
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let cp = sample_checkpoint();
        let bytes = cp.encode();
        let back = SimCheckpoint::decode(&bytes).expect("decodes");
        // SimSnapshot has no PartialEq (it embeds a Trace clone), so the
        // round-trip is asserted on the re-encoded bytes: decode must be a
        // lossless inverse of encode, NaN bit patterns included.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.cycle, 2);
        assert!(matches!(
            &back.driver,
            DriverState::Stack(s) if matches!(
                s.lateral,
                LateralState::Lqr(LqrState { cached_speed, .. }) if cached_speed.is_nan()
            )
        ));
    }

    #[test]
    fn guardian_checkpoints_round_trip() {
        let base = sample_checkpoint();
        let stack = match base.driver.clone() {
            DriverState::Stack(s) => *s,
            DriverState::Guardian(_) => unreachable!(),
        };
        let cp = SimCheckpoint {
            driver: DriverState::Guardian(Box::new(GuardianState {
                stack,
                primary: sample_checker_state(),
                widened: sample_checker_state(),
                state: GuardState::SafeStop {
                    since: 12.5,
                    held_steer: -0.04,
                },
                trigger: None,
                clean_streak: 3,
                degraded_cycles: 120,
                fault: Some(FaultInjectorState {
                    rng: [5, 5, 5, 5],
                    channels: vec![FaultChannelState {
                        channel: "wheel_speed".into(),
                        last_delivered: Some(4.0),
                        pending: None,
                        burst_left: 2,
                    }],
                    offered: 100,
                    dropped: 3,
                    corrupted: 7,
                }),
                guard_grid: [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
                events_emitted: 4,
            })),
            ..base
        };
        let bytes = cp.encode();
        let back = SimCheckpoint::decode(&bytes).expect("decodes");
        assert_eq!(back.encode(), bytes);
        match back.driver {
            DriverState::Guardian(g) => {
                assert_eq!(
                    g.state,
                    GuardState::SafeStop {
                        since: 12.5,
                        held_steer: -0.04
                    }
                );
                assert_eq!(g.fault.as_ref().map(|f| f.channels.len()), Some(1));
            }
            DriverState::Stack(_) => panic!("guardian driver expected"),
        }
    }

    #[test]
    fn truncation_bad_magic_and_bad_version_are_typed() {
        let bytes = sample_checkpoint().encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    SimCheckpoint::decode(&bytes[..cut]),
                    Err(CodecError::Malformed { .. })
                ),
                "truncation at {cut} must be malformed"
            );
        }
        // A flipped byte anywhere either still decodes or fails typed.
        let stride = if bytes.len() > 64 << 10 { 7 } else { 1 };
        for pos in (0..bytes.len()).step_by(stride) {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0xFF;
            assert!(
                matches!(
                    SimCheckpoint::decode(&flipped),
                    Ok(_) | Err(CodecError::Malformed { .. } | CodecError::Incompatible { .. })
                ),
                "byte flip at {pos}"
            );
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            SimCheckpoint::decode(&wrong_magic),
            Err(CodecError::Malformed { .. })
        ));
        // Version 3 images embed a version-1 `.adt` trace: they are
        // refused at the header, before the trace is read.
        for version in [2, 3, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[5] = version;
            assert!(matches!(
                SimCheckpoint::decode(&wrong_version),
                Err(CodecError::Incompatible { .. })
            ));
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(SimCheckpoint::decode(&trailing).is_err());
    }

    #[test]
    fn checker_section_preserves_monitor_health() {
        let cp = sample_checkpoint();
        let back = SimCheckpoint::decode(&cp.encode()).expect("decodes");
        assert_eq!(back.checker.monitors.len(), cp.checker.monitors.len());
        assert!(back
            .checker
            .monitors
            .iter()
            .all(|m| m.health == HealthState::Active));
    }
}
