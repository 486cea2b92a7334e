//! Checker-state encoding shared by the versioned checkpoint formats.
//!
//! Both the fleet checkpoints (`adassure-fleet`, `ADCKPT`) and the sim
//! debug checkpoints (`adassure-debug`, `ADSIM`) serialize checker state
//! into little-endian binary images. This module holds the one
//! [`CheckerState`] encoding and the typed [`CodecError`] surface they
//! share, so a checkpoint written by either side decodes checker state
//! with the exact same bit-for-bit semantics. The encoding holds no
//! wall-clock data, so equal checker states encode to equal bytes.
//!
//! Decoding reads through the workspace's one bounds-checked reader,
//! [`adassure_trace::binary::Cur`], which also owns the container header
//! and the conventions every binary format follows (little-endian, raw
//! float bits, `u16`-prefixed strings, counts capped by the bytes
//! remaining, typed errors — DESIGN.md, "Binary container conventions").
//! Its [`DecodeError`] converts into [`CodecError::Malformed`].

use adassure_obs::{AssertionStats, Verdict, VerdictCounts};
use adassure_trace::binary::{put_count, put_opt_f64, put_u16_str, Cur, DecodeError};

use crate::assertion::{AssertionId, Eval, Severity};
use crate::online::{CheckerState, HealthState, MonitorSnapshot, SignalSnapshot};
use crate::violation::Violation;

/// Typed encode/decode/restore failures shared by every checkpoint
/// format in the workspace.
#[derive(Debug)]
pub enum CodecError {
    /// Reading or writing the underlying file failed.
    Io(std::io::Error),
    /// The bytes are not structurally valid (bad magic, truncation,
    /// out-of-range tags).
    Malformed {
        /// What was wrong.
        message: String,
    },
    /// The bytes are valid but do not fit the supplied catalog, config
    /// or layout.
    Incompatible {
        /// What did not line up.
        message: String,
    },
}

impl CodecError {
    /// A [`CodecError::Malformed`] with the given message.
    pub fn malformed(message: impl Into<String>) -> Self {
        CodecError::Malformed {
            message: message.into(),
        }
    }

    /// A [`CodecError::Incompatible`] with the given message.
    pub fn incompatible(message: impl Into<String>) -> Self {
        CodecError::Incompatible {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CodecError::Malformed { message } => write!(f, "malformed checkpoint: {message}"),
            CodecError::Incompatible { message } => {
                write!(f, "incompatible checkpoint: {message}")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        CodecError::malformed(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

/// Appends a 3x3 transition grid.
pub fn put_grid(out: &mut Vec<u8>, grid: &[[u64; 3]; 3]) {
    for row in grid {
        for &cell in row {
            out.extend_from_slice(&cell.to_le_bytes());
        }
    }
}

/// The wire byte of a [`Severity`].
pub fn severity_byte(s: Severity) -> u8 {
    match s {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Critical => 2,
    }
}

/// The wire byte of a [`Verdict`].
pub fn verdict_byte(v: Verdict) -> u8 {
    match v {
        Verdict::Unknown => 0,
        Verdict::Pass => 1,
        Verdict::Inconclusive => 2,
        Verdict::Violated => 3,
    }
}

/// Appends one violation episode.
pub fn put_violation(out: &mut Vec<u8>, v: &Violation) {
    put_u16_str(out, v.assertion.as_str());
    out.push(severity_byte(v.severity));
    out.extend_from_slice(&v.onset.to_le_bytes());
    out.extend_from_slice(&v.detected.to_le_bytes());
    out.extend_from_slice(&v.value.to_le_bytes());
    out.extend_from_slice(&v.cycle.to_le_bytes());
    put_opt_f64(out, v.recovered);
}

/// Appends a complete [`CheckerState`] snapshot.
pub fn put_checker(out: &mut Vec<u8>, c: &CheckerState) {
    out.extend_from_slice(&c.now.to_le_bytes());
    put_count(out, c.signals.len());
    for s in &c.signals {
        out.push(u8::from(s.seen));
        out.extend_from_slice(&s.time.to_le_bytes());
        out.extend_from_slice(&s.value.to_le_bytes());
        match s.last_step {
            Some((delta, dt)) => {
                out.push(1);
                out.extend_from_slice(&delta.to_le_bytes());
                out.extend_from_slice(&dt.to_le_bytes());
            }
            None => out.push(0),
        }
    }
    put_count(out, c.monitors.len());
    for m in &c.monitors {
        match m.health {
            HealthState::Active => out.push(0),
            HealthState::Degraded(n) => {
                out.push(1);
                out.extend_from_slice(&n.to_le_bytes());
            }
            HealthState::Suspended => out.push(2),
        }
        out.extend_from_slice(&m.degraded_streak.to_le_bytes());
        out.extend_from_slice(&m.clean_streak.to_le_bytes());
        match m.cached {
            None => out.push(0),
            Some(Eval::Healthy) => out.push(1),
            Some(Eval::Violated(v)) => {
                out.push(2);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Some(Eval::Unknown) => out.push(3),
            Some(Eval::Inconclusive) => out.push(4),
        }
        put_opt_f64(out, m.episode_start);
        out.push(u8::from(m.alarmed_this_episode));
        out.push(u8::from(m.ever_healthy));
        out.push(u8::from(m.saw_first_sample));
        match m.open_violation {
            Some(idx) => {
                out.push(1);
                out.extend_from_slice(&idx.to_le_bytes());
            }
            None => out.push(0),
        }
        out.push(verdict_byte(m.last_verdict));
    }
    put_count(out, c.poisoned.len());
    for &p in &c.poisoned {
        out.push(u8::from(p));
    }
    out.extend_from_slice(&c.inconclusive_cycles.to_le_bytes());
    put_opt_f64(out, c.last_cycle);
    put_count(out, c.violations.len());
    for v in &c.violations {
        put_violation(out, v);
    }
    put_count(out, c.stats.len());
    for s in &c.stats {
        put_u16_str(out, &s.id);
        for v in [
            s.verdicts.unknown,
            s.verdicts.pass,
            s.verdicts.inconclusive,
            s.verdicts.violated,
            s.flips,
            s.episodes,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    put_grid(out, &c.health_grid);
    out.extend_from_slice(&c.cycles.to_le_bytes());
    out.extend_from_slice(&c.events_emitted.to_le_bytes());
    out.extend_from_slice(&c.run_id.to_le_bytes());
    out.push(u8::from(c.started));
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads a 3x3 transition grid (inverse of [`put_grid`]).
///
/// # Errors
///
/// [`CodecError::Malformed`] on truncation.
pub fn read_grid(c: &mut Cur<'_>, what: &str) -> Result<[[u64; 3]; 3], CodecError> {
    let mut grid = [[0u64; 3]; 3];
    for row in &mut grid {
        for cell in row.iter_mut() {
            *cell = c.u64(what)?;
        }
    }
    Ok(grid)
}

/// Decodes a [`Severity`] wire byte.
///
/// # Errors
///
/// [`CodecError::Malformed`] on an unknown byte.
pub fn severity_from(b: u8) -> Result<Severity, CodecError> {
    Ok(match b {
        0 => Severity::Info,
        1 => Severity::Warning,
        2 => Severity::Critical,
        other => {
            return Err(CodecError::malformed(format!(
                "invalid severity byte {other}"
            )))
        }
    })
}

/// Decodes a [`Verdict`] wire byte.
///
/// # Errors
///
/// [`CodecError::Malformed`] on an unknown byte.
pub fn verdict_from(b: u8) -> Result<Verdict, CodecError> {
    Ok(match b {
        0 => Verdict::Unknown,
        1 => Verdict::Pass,
        2 => Verdict::Inconclusive,
        3 => Verdict::Violated,
        other => {
            return Err(CodecError::malformed(format!(
                "invalid verdict byte {other}"
            )))
        }
    })
}

/// Reads one violation episode.
///
/// # Errors
///
/// [`CodecError::Malformed`] on truncation or invalid tags.
pub fn read_violation(c: &mut Cur<'_>) -> Result<Violation, CodecError> {
    let assertion = AssertionId::new(c.str16("violation assertion")?);
    let severity = severity_from(c.u8("violation severity")?)?;
    let onset = c.f64("violation onset")?;
    let detected = c.f64("violation detected")?;
    let value = c.f64("violation value")?;
    let cycle = c.u64("violation cycle")?;
    let recovered = c.opt_f64("violation recovered")?;
    Ok(Violation {
        assertion,
        severity,
        onset,
        detected,
        value,
        cycle,
        recovered,
    })
}

/// Reads a complete [`CheckerState`] snapshot (inverse of
/// [`put_checker`]).
///
/// # Errors
///
/// [`CodecError::Malformed`] on truncation or invalid tags.
pub fn read_checker(c: &mut Cur<'_>) -> Result<CheckerState, CodecError> {
    let now = c.f64("checker now")?;
    let signal_count = c.count("signal count")?;
    let mut signals = Vec::with_capacity(signal_count);
    for _ in 0..signal_count {
        let seen = c.bool("signal seen")?;
        let time = c.f64("signal time")?;
        let value = c.f64("signal value")?;
        let last_step = if c.bool("signal step flag")? {
            Some((c.f64("signal delta")?, c.f64("signal dt")?))
        } else {
            None
        };
        signals.push(SignalSnapshot {
            seen,
            time,
            value,
            last_step,
        });
    }
    let monitor_count = c.count("monitor count")?;
    let mut monitors = Vec::with_capacity(monitor_count);
    for _ in 0..monitor_count {
        let health = match c.u8("monitor health")? {
            0 => HealthState::Active,
            1 => HealthState::Degraded(c.u32("degraded count")?),
            2 => HealthState::Suspended,
            other => return Err(c.bad(format!("invalid health tag {other}")).into()),
        };
        let degraded_streak = c.u32("degraded streak")?;
        let clean_streak = c.u32("clean streak")?;
        let cached = match c.u8("cached verdict tag")? {
            0 => None,
            1 => Some(Eval::Healthy),
            2 => Some(Eval::Violated(c.f64("cached violated value")?)),
            3 => Some(Eval::Unknown),
            4 => Some(Eval::Inconclusive),
            other => return Err(c.bad(format!("invalid cached verdict tag {other}")).into()),
        };
        let episode_start = c.opt_f64("episode start")?;
        let alarmed_this_episode = c.bool("alarmed flag")?;
        let ever_healthy = c.bool("ever-healthy flag")?;
        let saw_first_sample = c.bool("first-sample flag")?;
        let open_violation = if c.bool("open violation flag")? {
            Some(c.u64("open violation index")?)
        } else {
            None
        };
        let last_verdict = verdict_from(c.u8("last verdict")?)?;
        monitors.push(MonitorSnapshot {
            health,
            degraded_streak,
            clean_streak,
            cached,
            episode_start,
            alarmed_this_episode,
            ever_healthy,
            saw_first_sample,
            open_violation,
            last_verdict,
        });
    }
    let poison_count = c.count("poison count")?;
    let mut poisoned = Vec::with_capacity(poison_count);
    for _ in 0..poison_count {
        poisoned.push(c.bool("poison flag")?);
    }
    let inconclusive_cycles = c.u64("inconclusive cycles")?;
    let last_cycle = c.opt_f64("last cycle")?;
    let violation_count = c.count("violation count")?;
    let mut violations = Vec::with_capacity(violation_count);
    for _ in 0..violation_count {
        violations.push(read_violation(c)?);
    }
    let stat_count = c.count("stat count")?;
    let mut stats = Vec::with_capacity(stat_count);
    for _ in 0..stat_count {
        let id = c.str16("stat id")?;
        let verdicts = VerdictCounts {
            unknown: c.u64("stat unknown")?,
            pass: c.u64("stat pass")?,
            inconclusive: c.u64("stat inconclusive")?,
            violated: c.u64("stat violated")?,
        };
        let flips = c.u64("stat flips")?;
        let episodes = c.u64("stat episodes")?;
        let mut stat = AssertionStats::new(&id);
        stat.verdicts = verdicts;
        stat.flips = flips;
        stat.episodes = episodes;
        stats.push(stat);
    }
    let health_grid = read_grid(c, "health grid")?;
    let cycles = c.u64("checker cycles")?;
    let events_emitted = c.u64("events emitted")?;
    let run_id = c.u64("run id")?;
    let started = c.bool("started flag")?;
    Ok(CheckerState {
        now,
        signals,
        monitors,
        poisoned,
        inconclusive_cycles,
        last_cycle,
        violations,
        stats,
        health_grid,
        cycles,
        events_emitted,
        run_id,
        started,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_round_trips_including_cycle() {
        let v = Violation {
            assertion: AssertionId::new("A7"),
            severity: Severity::Critical,
            onset: 12.5,
            detected: 12.8,
            value: f64::NAN,
            cycle: 1280,
            recovered: Some(14.0),
        };
        let mut bytes = Vec::new();
        put_violation(&mut bytes, &v);
        let mut c = Cur::new(&bytes);
        let back = read_violation(&mut c).expect("decodes");
        c.expect_end("violation").expect("fully consumed");
        assert_eq!(back.assertion, v.assertion);
        assert_eq!(back.cycle, 1280);
        assert_eq!(back.value.to_bits(), v.value.to_bits(), "NaN bits survive");
        assert_eq!(back.recovered, v.recovered);
    }

    #[test]
    fn truncation_and_bad_tags_are_typed() {
        let v = Violation {
            assertion: AssertionId::new("A1"),
            severity: Severity::Info,
            onset: 0.0,
            detected: 0.1,
            value: 1.0,
            cycle: 10,
            recovered: None,
        };
        let mut bytes = Vec::new();
        put_violation(&mut bytes, &v);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut c = Cur::new(&bytes[..cut]);
            assert!(
                matches!(read_violation(&mut c), Err(CodecError::Malformed { .. })),
                "truncation at {cut} must fail"
            );
        }
        let mut flipped = bytes.clone();
        flipped[4] = 99; // severity byte (after u16 len + "A1")
        let mut c = Cur::new(&flipped);
        assert!(read_violation(&mut c).is_err());
    }
}
