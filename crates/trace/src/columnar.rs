//! Columnar trace storage and the `.adt` binary format.
//!
//! A [`crate::Trace`] is row-oriented: per signal, a vector of
//! `(time, value)` samples. That shape is right for recording but wrong for
//! batch checking, where the evaluator wants each signal's values as one
//! contiguous `f64` run and a shared *cycle index* mapping every sample to
//! its replay cycle. [`ColumnarTrace`] is that shape, and `.adt` is its
//! on-disk serialisation — a flat, little-endian, 8-byte-aligned layout a
//! reader could `mmap` and index directly.
//!
//! # `.adt` layout (version 2)
//!
//! All integers and floats are little-endian; every numeric section starts
//! on an 8-byte boundary (the variable-length sections are zero-padded up
//! to a multiple of 8).
//!
//! | offset | field |
//! |--------|-------|
//! | 0      | magic `b"ADTRAC"` (6 bytes) |
//! | 6      | format version byte (`2`) |
//! | 7      | endianness byte (`1` = little-endian) |
//! | 8      | `u32` signal count |
//! | 12     | `u32` reserved (must be 0) |
//! | 16     | `u64` cycle count |
//! | 24     | `u64` total sample count |
//! | 32     | `u64` name-table byte length (before padding) |
//! | 40     | name table: signal names joined by `\n`, zero-padded to ×8 |
//! | …      | per-signal sample counts nᵢ: `u64` × signal count |
//! | …      | cycle times: `f64` × cycle count (strictly increasing) |
//! | …      | per signal, in name order: values `f64`×nᵢ if nᵢ is the cycle count, else times `f64`×nᵢ then values `f64`×nᵢ |
//! | …      | cycle indices of the signals whose nᵢ is not the cycle count, in name order: `u32` each, zero-padded to ×8 |
//!
//! The *cycle times* array is the merged grid of every distinct timestamp
//! across all signals — exactly the cycle boundaries the offline checker
//! replays — and each sample's cycle index points at the grid entry whose
//! time equals the sample's own. A *full-rate* series, one sample per
//! cycle, stores only its values: its timestamps strictly increase and all
//! lie on the grid, so with as many of them as there are cycles they are
//! the grid, and its cycle indices are `0..n`. Nothing is lost, and no flag
//! marks such a series; every other series stores its times and indices.
//!
//! Decoding reads through the workspace's shared bounds-checked reader
//! ([`crate::binary::Cur`], which also owns the `magic | version | endian`
//! header), validates every invariant (monotone finite times, index/time
//! agreement, exact section lengths, counts capped by the bytes remaining)
//! and returns a typed [`TraceError`] rather than panicking on corrupt
//! input. Version 1, which stored times and indices for full-rate series
//! too, is refused as an unsupported version.
//!
//! The per-value checks are folds over whole columns that never stop at
//! the first bad value, so the compiler vectorises them; the index/time
//! check folds the same way over each sample's grid entry. Only when it
//! fails does a scalar scan run, to name the first bad sample in the error.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

use crate::binary::{pad8, put_count, put_header, Cur, DecodeError};
use crate::{SignalId, Trace, TraceError};

/// `.adt` magic bytes.
const MAGIC: &[u8; 6] = b"ADTRAC";
/// Current format version.
const VERSION: u8 = 2;
/// Fixed-size header length in bytes (through `name_table_len`).
const HEADER_LEN: usize = 40;

/// A trace transposed into columnar form: per-signal contiguous sample
/// arrays plus a shared cycle grid.
///
/// A full-rate series (one sample per cycle) keeps only its values; its
/// times are the grid and its cycle indices the identity, both shared.
///
/// Conversion from and back to [`Trace`] is lossless
/// ([`ColumnarTrace::from_trace`] / [`ColumnarTrace::to_trace`]), and the
/// binary round-trip ([`ColumnarTrace::encode`] /
/// [`ColumnarTrace::decode`]) preserves every `f64` bit-for-bit.
///
/// # Example
///
/// ```
/// use adassure_trace::{ColumnarTrace, Trace};
///
/// let mut t = Trace::new();
/// t.record("speed", 0.0, 4.0);
/// t.record("speed", 0.1, 4.5);
/// let col = ColumnarTrace::from_trace(&t);
/// let bytes = col.encode();
/// let back = ColumnarTrace::decode(&bytes).unwrap();
/// assert_eq!(back.to_trace(), t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarTrace {
    /// Signal ids, sorted by name (the [`Trace`] iteration order).
    signals: Vec<SignalId>,
    /// Per signal, where its columns start.
    columns: Vec<Columns>,
    /// All sample values, signal-major (signal 0's samples, then 1's…).
    values: Vec<f64>,
    /// Sample timestamps of the series that are not full-rate,
    /// signal-major.
    times: Vec<f64>,
    /// Per entry of `times`: index into `cycle_times` of the replay cycle
    /// the sample lands on.
    cycle_idx: Vec<u32>,
    /// The merged, strictly increasing grid of distinct timestamps.
    cycle_times: Vec<f64>,
    /// `0..cycle_count`: the cycle indices of every full-rate series.
    identity: Vec<u32>,
}

/// Where one series' columns start, and its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Columns {
    /// Start in `values`.
    value: usize,
    /// Start in `times` and `cycle_idx` (unused by a full-rate series).
    sparse: usize,
    len: usize,
}

impl ColumnarTrace {
    /// Transposes a [`Trace`] into columnar form.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds more than `u32::MAX` distinct timestamps
    /// (far beyond any recorded run).
    pub fn from_trace(trace: &Trace) -> Self {
        // Each series is already strictly time-ordered (and finite, a
        // `Trace` invariant), so the grid is an incremental sorted merge —
        // no O(n log n) sort over the full sample count. Series sharing a
        // grid (the common fixed-rate case) reduce to an equality scan.
        let mut cycle_times: Vec<f64> = Vec::new();
        for series in trace.iter() {
            let samples = series.samples();
            if samples.len() <= cycle_times.len()
                && samples.iter().zip(&cycle_times).all(|(s, &t)| s.time == t)
            {
                continue;
            }
            let mut merged = Vec::with_capacity(cycle_times.len() + samples.len());
            let (mut i, mut j) = (0, 0);
            while i < cycle_times.len() && j < samples.len() {
                let (a, b) = (cycle_times[i], samples[j].time);
                merged.push(a.min(b));
                i += usize::from(a <= b);
                j += usize::from(b <= a);
            }
            merged.extend_from_slice(&cycle_times[i..]);
            merged.extend(samples[j..].iter().map(|s| s.time));
            cycle_times = merged;
        }
        #[allow(
            clippy::expect_used,
            reason = "documented panic: the cycle index is a u32 on disk"
        )]
        let n = u32::try_from(cycle_times.len()).expect("more than u32::MAX distinct timestamps");

        let mut signals = Vec::with_capacity(trace.signal_count());
        let mut columns = Vec::with_capacity(trace.signal_count());
        let mut values = Vec::with_capacity(trace.sample_count());
        let (mut times, mut cycle_idx) = (Vec::new(), Vec::new());
        for series in trace.iter() {
            let samples = series.samples();
            columns.push(Columns {
                value: values.len(),
                sparse: times.len(),
                len: samples.len(),
            });
            values.extend(samples.iter().map(|s| s.value));
            // A full-rate series' times are the grid: an equal-length
            // strictly increasing subset of it is all of it.
            if samples.len() != cycle_times.len() {
                // Series timestamps ascend, so one forward cursor over the
                // grid resolves every sample's cycle without a binary search.
                let mut grid = 0usize;
                for sample in samples {
                    while cycle_times[grid] < sample.time {
                        grid += 1;
                    }
                    debug_assert_eq!(cycle_times[grid], sample.time);
                    times.push(sample.time);
                    #[allow(clippy::cast_possible_truncation)] // bounded by `n`
                    cycle_idx.push(grid as u32);
                }
            }
            signals.push(series.id().clone());
        }
        ColumnarTrace {
            signals,
            columns,
            values,
            times,
            cycle_idx,
            cycle_times,
            identity: (0..n).collect(),
        }
    }

    /// Reconstructs the row-oriented [`Trace`]. Lossless: every sample's
    /// time and value come back bit-identical.
    pub fn to_trace(&self) -> Trace {
        let mut trace = Trace::new();
        for (i, id) in self.signals.iter().enumerate() {
            let (times, values, _) = self.series(i);
            #[allow(
                clippy::expect_used,
                reason = "decode and from_trace admit only strictly increasing finite series"
            )]
            let series = crate::Series::from_samples(
                id.clone(),
                times.iter().copied().zip(values.iter().copied()),
            )
            .expect("columnar invariants guarantee valid series");
            trace.insert_series(series);
        }
        trace
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of replay cycles (distinct timestamps).
    pub fn cycle_count(&self) -> usize {
        self.cycle_times.len()
    }

    /// Total number of samples across all signals.
    pub fn sample_count(&self) -> usize {
        self.values.len()
    }

    /// Signal ids in storage (name-sorted) order.
    pub fn signals(&self) -> &[SignalId] {
        &self.signals
    }

    /// The merged cycle grid, strictly increasing.
    pub fn cycle_times(&self) -> &[f64] {
        &self.cycle_times
    }

    /// Timestamp of the final cycle; `0.0` for an empty trace (matching
    /// [`Trace::span`]'s end as the offline checker uses it).
    pub fn end_time(&self) -> f64 {
        self.cycle_times.last().copied().unwrap_or(0.0)
    }

    /// The sample columns of signal `i` (storage order):
    /// `(times, values, cycle indices)`, all the same length. A full-rate
    /// series returns [`Self::cycle_times`] and the indices `0..n`.
    pub fn series(&self, i: usize) -> (&[f64], &[f64], &[u32]) {
        let Columns { value, sparse, len } = self.columns[i];
        let values = &self.values[value..value + len];
        if len == self.cycle_times.len() {
            (&self.cycle_times, values, &self.identity)
        } else {
            (
                &self.times[sparse..sparse + len],
                values,
                &self.cycle_idx[sparse..sparse + len],
            )
        }
    }

    /// Serialises to `.adt` bytes (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let name_table: Vec<u8> = self
            .signals
            .iter()
            .map(SignalId::as_str)
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes();

        let mut out = Vec::with_capacity(
            HEADER_LEN
                + pad8(name_table.len())
                + 8 * self.signals.len()
                + 8 * self.cycle_times.len()
                + 8 * self.values.len()
                + 8 * self.times.len()
                + pad8(4 * self.cycle_idx.len()),
        );
        put_header(&mut out, MAGIC, VERSION);
        put_count(&mut out, self.signals.len());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        out.extend_from_slice(&(self.cycle_times.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u64).to_le_bytes());
        out.extend_from_slice(&(name_table.len() as u64).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);

        out.extend_from_slice(&name_table);
        out.resize(pad8(out.len()), 0);
        for c in &self.columns {
            out.extend_from_slice(&(c.len as u64).to_le_bytes());
        }
        for &t in &self.cycle_times {
            out.extend_from_slice(&t.to_le_bytes());
        }
        for (i, c) in self.columns.iter().enumerate() {
            let (times, values, _) = self.series(i);
            if c.len != self.cycle_times.len() {
                for &t in times {
                    out.extend_from_slice(&t.to_le_bytes());
                }
            }
            for &v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        for &c in &self.cycle_idx {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.resize(pad8(out.len()), 0);
        out
    }

    /// Decodes `.adt` bytes, validating the full set of format invariants.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadBinary`] — never panics — on any corrupt,
    /// truncated or invariant-violating input: wrong magic/version, short
    /// sections, trailing garbage, unsorted names, non-monotone or
    /// non-finite times, or cycle indices that disagree with the grid.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = Cur::new(bytes);
        let version = r.header(MAGIC)?;
        if version != VERSION {
            return Err(bad(6, format!("unsupported format version {version}")));
        }
        let signal_count = r.u32("signal count")? as usize;
        if r.u32("reserved field")? != 0 {
            return Err(bad(12, "reserved field must be zero"));
        }
        // Cap each count by the bytes it needs before anything is sized
        // from it: 8 per cycle time, and at least 8 per sample (a
        // full-rate sample is its value alone).
        let cycle_count = r.usize64("cycle count")?;
        let cycle_count = r.fits(cycle_count, 8, "cycle count")?;
        // Cycle indices are `u32`, as in `from_trace`.
        let grid_len =
            u32::try_from(cycle_count).map_err(|_| bad(16, "more than u32::MAX cycles"))?;
        let total_samples = r.usize64("total sample count")?;
        let total_samples = r.fits(total_samples, 8, "total sample count")?;
        let name_table_len = r.usize64("name table length")?;

        let names = r.names(name_table_len, signal_count, "name table")?;
        if names.windows(2).any(|w| w[1] <= w[0]) {
            return Err(bad(HEADER_LEN, "signal names are not sorted and unique"));
        }
        r.align8("name table padding")?;

        let mut counts = Vec::with_capacity(signal_count);
        for _ in 0..signal_count {
            counts.push(r.usize64("per-signal sample count")?);
        }
        let declared: usize = counts.iter().try_fold(0usize, |acc, &n| {
            acc.checked_add(n)
                .filter(|&s| s <= total_samples)
                .ok_or_else(|| bad(24, "per-signal sample counts overflow the total"))
        })?;
        if declared != total_samples {
            return Err(bad(
                24,
                format!("per-signal counts sum to {declared}, header says {total_samples}"),
            ));
        }

        let cycle_times: Vec<f64> = r.f64s(cycle_count, "cycle times")?.collect();
        if !strictly_increasing(&cycle_times) {
            return Err(r.bad("cycle times are not strictly increasing").into());
        }
        if !all_finite(&cycle_times) {
            return Err(r.bad("non-finite cycle time").into());
        }

        let sparse_samples: usize = counts.iter().filter(|&&n| n != cycle_count).sum();
        let mut values = Vec::with_capacity(total_samples);
        let mut times = Vec::with_capacity(sparse_samples);
        let mut columns = Vec::with_capacity(signal_count);
        for (&n, name) in counts.iter().zip(&names) {
            let (value, sparse) = (values.len(), times.len());
            // A full-rate series' times are the grid, checked above.
            if n != cycle_count {
                times.extend(r.f64s(n, "signal times")?);
            }
            values.extend(r.f64s(n, "signal values")?);
            let (t, v) = (&times[sparse..], &values[value..]);
            if !strictly_increasing(t) {
                return Err(r
                    .bad(format!(
                        "timestamps of signal `{name}` are not strictly increasing"
                    ))
                    .into());
            }
            if !(all_finite(t) & all_finite(v)) {
                return Err(r
                    .bad(format!("non-finite sample on signal `{name}`"))
                    .into());
            }
            columns.push(Columns {
                value,
                sparse,
                len: n,
            });
        }

        let cycle_idx: Vec<u32> = r.u32s(sparse_samples, "cycle indices")?.collect();
        r.align8("cycle index padding")?;
        r.expect_end("the cycle index section")?;
        if !indices_agree(&times, &cycle_idx, &cycle_times) {
            // The fold only says that some sample disagrees; this
            // reference scan finds the first one, so the error names it.
            for (j, &c) in cycle_idx.iter().enumerate() {
                let Some(&grid_time) = cycle_times.get(c as usize) else {
                    return Err(r
                        .bad(format!("cycle index {c} out of range (sample {j})"))
                        .into());
                };
                if grid_time.to_bits() != times[j].to_bits() {
                    return Err(r
                        .bad(format!(
                            "cycle index of sample {j} points at a different timestamp"
                        ))
                        .into());
                }
            }
        }

        Ok(ColumnarTrace {
            signals: names.into_iter().map(SignalId::new).collect(),
            columns,
            values,
            times,
            cycle_idx,
            cycle_times,
            identity: (0..grid_len).collect(),
        })
    }

    /// Writes the encoded `.adt` document to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let path = path.as_ref();
        std::fs::write(path, self.encode())
            .map_err(|e| TraceError::Io(format!("write {}: {e}", path.display())))
    }

    /// Reads and decodes an `.adt` document from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failure and
    /// [`TraceError::BadBinary`] on a corrupt document.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| TraceError::Io(format!("read {}: {e}", path.display())))?;
        ColumnarTrace::decode(&bytes)
    }
}

// Validation passes. Each folds over every element instead of stopping at
// the first bad one: with no early exit the compiler can vectorise the loop,
// and a valid document, the common case, is read to the end either way.

/// Whether `xs` strictly increases. `!(b > a)` also flags NaN.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn strictly_increasing(xs: &[f64]) -> bool {
    let next = xs.get(1..).unwrap_or_default();
    !xs.iter()
        .zip(next)
        .fold(false, |bad, (a, b)| bad | !(b > a))
}

/// Whether every value is finite.
fn all_finite(xs: &[f64]) -> bool {
    !xs.iter().fold(false, |bad, x| bad | !x.is_finite())
}

/// Whether every sample has an in-range cycle index whose grid entry
/// equals its time, bit for bit.
fn indices_agree(times: &[f64], cycles: &[u32], grid: &[f64]) -> bool {
    let bad = times.iter().zip(cycles).fold(false, |bad, (t, &c)| {
        bad | grid
            .get(c as usize)
            .is_none_or(|g| g.to_bits() != t.to_bits())
    });
    !bad
}

/// A [`TraceError::BadBinary`] at a fixed header offset.
fn bad(offset: usize, message: impl Into<String>) -> TraceError {
    DecodeError::at(offset, message).into()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn mixed_rate_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..20 {
            let time = f64::from(i) * 0.05;
            t.record("fast", time, f64::from(i) * 0.5 - 3.0);
            if i % 3 == 0 {
                t.record("slow", time, -f64::from(i));
            }
        }
        t.record("offgrid", 0.013, 7.5); // timestamp no other signal shares
        t
    }

    #[test]
    fn trace_round_trips_losslessly() {
        let t = mixed_rate_trace();
        let col = ColumnarTrace::from_trace(&t);
        assert_eq!(col.to_trace(), t);
        assert_eq!(col.sample_count(), t.sample_count());
        // 20 shared cycles plus the off-grid one.
        assert_eq!(col.cycle_count(), 21);
        assert_eq!(col.end_time(), t.span().unwrap().1);
    }

    #[test]
    fn binary_round_trips_bit_identically() {
        let t = mixed_rate_trace();
        let col = ColumnarTrace::from_trace(&t);
        let bytes = col.encode();
        let back = ColumnarTrace::decode(&bytes).unwrap();
        assert_eq!(back, col);
        assert_eq!(back.to_trace(), t);
        // Re-encoding is deterministic down to the byte.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn empty_trace_round_trips() {
        let col = ColumnarTrace::from_trace(&Trace::new());
        assert_eq!(col.cycle_count(), 0);
        assert_eq!(col.end_time(), 0.0);
        let back = ColumnarTrace::decode(&col.encode()).unwrap();
        assert!(back.to_trace().is_empty());
    }

    #[test]
    fn cycle_index_points_at_shared_grid() {
        let t = mixed_rate_trace();
        let col = ColumnarTrace::from_trace(&t);
        for i in 0..col.signal_count() {
            let (times, _, cycles) = col.series(i);
            for (&time, &c) in times.iter().zip(cycles) {
                assert_eq!(col.cycle_times()[c as usize].to_bits(), time.to_bits());
            }
        }
    }

    #[test]
    fn sections_are_8_byte_aligned() {
        let bytes = ColumnarTrace::from_trace(&mixed_rate_trace()).encode();
        assert_eq!(bytes.len() % 8, 0);
        assert_eq!(&bytes[..6], MAGIC);
        assert_eq!(bytes[6], VERSION);
        assert_eq!(bytes[7], crate::binary::LITTLE_ENDIAN);
    }

    #[test]
    fn corrupt_header_yields_typed_error() {
        let mut bytes = ColumnarTrace::from_trace(&mixed_rate_trace()).encode();
        bytes[0] = b'X';
        assert!(matches!(
            ColumnarTrace::decode(&bytes),
            Err(TraceError::BadBinary { .. })
        ));
        let mut bytes = ColumnarTrace::from_trace(&mixed_rate_trace()).encode();
        bytes[6] = 99; // unknown version
        assert!(matches!(
            ColumnarTrace::decode(&bytes),
            Err(TraceError::BadBinary { .. })
        ));
    }

    #[test]
    fn truncated_file_yields_typed_error_never_panic() {
        let bytes = ColumnarTrace::from_trace(&mixed_rate_trace()).encode();
        for len in 0..bytes.len() {
            match ColumnarTrace::decode(&bytes[..len]) {
                Err(TraceError::BadBinary { .. }) => {}
                other => panic!("truncation at {len} gave {other:?}"),
            }
        }
    }

    #[test]
    fn header_counts_beyond_the_file_are_rejected_before_allocating() {
        // 64 bytes, internally consistent: one signal `x` whose sample
        // count equals the header's total of 2^40, one cycle at t = 0.
        // Sizing buffers from those counts would try to allocate 8 TiB.
        let mut bytes = Vec::new();
        put_header(&mut bytes, MAGIC, VERSION);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // signal count
        bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
        bytes.extend_from_slice(&1u64.to_le_bytes()); // cycle count
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes()); // total samples
        bytes.extend_from_slice(&1u64.to_le_bytes()); // name table length
        bytes.extend_from_slice(b"x\0\0\0\0\0\0\0"); // name table + padding
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes()); // count of `x`
        bytes.extend_from_slice(&0.0f64.to_le_bytes()); // cycle time
        assert_eq!(bytes.len(), 64);
        assert!(matches!(
            ColumnarTrace::decode(&bytes),
            Err(TraceError::BadBinary { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = ColumnarTrace::from_trace(&mixed_rate_trace()).encode();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            ColumnarTrace::decode(&bytes),
            Err(TraceError::BadBinary { .. })
        ));
    }

    /// A 21-cycle trace, so a pass vectorised eight wide sees two chunks
    /// and a tail: `dense` is full-rate, `sparse` samples every other cycle
    /// (11 samples).
    fn boundary_trace() -> ColumnarTrace {
        let mut t = Trace::new();
        for i in 0..21 {
            let time = f64::from(i) * 0.1;
            t.record("dense", time, f64::from(i));
            if i % 2 == 0 {
                t.record("sparse", time, -f64::from(i));
            }
        }
        let col = ColumnarTrace::from_trace(&t);
        assert_eq!((col.cycle_count(), col.sample_count()), (21, 32));
        // Only the lower-rate series keeps times and cycle indices.
        assert_eq!((col.times.len(), col.cycle_idx.len()), (11, 11));
        col
    }

    /// Positions at the edges of the chunks and the tail of an `n`-long column.
    fn edges(n: usize) -> [usize; 4] {
        [0, 7, 8, n - 1]
    }

    fn rejected(col: &ColumnarTrace) -> bool {
        matches!(
            ColumnarTrace::decode(&col.encode()),
            Err(TraceError::BadBinary { .. })
        )
    }

    /// Moves cycle `cycle` to time `t` in the grid, which full-rate series
    /// share, and in every lower-rate sample on it, so the cycle indices
    /// still agree with the grid.
    fn set_cycle_time(col: &mut ColumnarTrace, cycle: usize, t: f64) {
        col.cycle_times[cycle] = t;
        for (time, &c) in col.times.iter_mut().zip(&col.cycle_idx) {
            if c as usize == cycle {
                *time = t;
            }
        }
    }

    /// One ulp up.
    fn nudge(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() + 1);
    }

    #[test]
    fn non_finite_values_are_rejected_at_every_chunk_edge() {
        let base = boundary_trace();
        assert!(!rejected(&base));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (s, c) in base.columns.iter().enumerate() {
                let cycles = base.series(s).2;
                for p in edges(c.len) {
                    let mut col = base.clone();
                    col.values[c.value + p] = bad;
                    assert!(rejected(&col), "value {bad} at {p} of signal {s}");
                    // A sample's time moves with its grid entry, so only
                    // the finiteness and order passes can see it.
                    let mut col = base.clone();
                    set_cycle_time(&mut col, cycles[p] as usize, bad);
                    assert!(rejected(&col), "time {bad} at {p} of signal {s}");
                }
            }
            for p in edges(base.cycle_count()) {
                let mut col = base.clone();
                set_cycle_time(&mut col, p, bad);
                assert!(rejected(&col), "grid time {bad} at {p}");
            }
        }
    }

    #[test]
    fn repeated_timestamps_are_rejected() {
        let base = boundary_trace();
        let last = base.cycle_count() - 1;
        for (a, b) in [(7, 8), (last - 1, last)] {
            // In the grid, and in every series with a sample there.
            let mut col = base.clone();
            set_cycle_time(&mut col, b, base.cycle_times[a]);
            assert!(rejected(&col), "grid cycles {a} and {b}");
        }
        let sparse = base.columns[1];
        let last = sparse.len - 1;
        for (a, b) in [(7, 8), (last - 1, last)] {
            let (a, b) = (sparse.sparse + a, sparse.sparse + b);
            // In the lower-rate series alone, with its index still on the
            // grid entry, so only the order pass can see it.
            let mut col = base.clone();
            col.times[b] = col.times[a];
            col.cycle_idx[b] = col.cycle_idx[a];
            assert!(rejected(&col), "sparse samples {a} and {b}");
            // Two samples swapped together with their indices.
            let mut col = base.clone();
            col.times.swap(a, b);
            col.cycle_idx.swap(a, b);
            assert!(rejected(&col), "sparse samples {a} and {b} swapped");
        }
    }

    #[test]
    fn cycle_indices_that_disagree_with_the_grid_are_rejected() {
        let base = boundary_trace();
        let cycles = base.cycle_count();
        let (dense, sparse) = (base.columns[0], base.columns[1]);
        assert_eq!(dense.len, cycles, "signal 0 is the full-rate one");
        for p in edges(sparse.len) {
            let j = sparse.sparse + p;
            // A lower-rate index that swaps two entries.
            let q = if p + 1 < sparse.len { j + 1 } else { j - 1 };
            let mut col = base.clone();
            col.cycle_idx.swap(j, q);
            assert!(rejected(&col), "sparse swap {p} and {}", q - sparse.sparse);
            // An index pointing at the neighbouring grid entry.
            let c = base.cycle_idx[j] as usize;
            let neighbour = if c + 1 < cycles { c + 1 } else { c - 1 };
            let mut col = base.clone();
            col.cycle_idx[j] = neighbour as u32;
            assert!(rejected(&col), "sparse {p} points at cycle {neighbour}");
            // A time one ulp off its grid entry, still in order.
            let mut col = base.clone();
            nudge(&mut col.times[j]);
            assert!(rejected(&col), "sparse time {p} off the grid");
            // The grid entry one ulp off the sample on it, still in order.
            let mut col = base.clone();
            nudge(&mut col.cycle_times[c]);
            assert!(rejected(&col), "grid under sparse {p} off the sample");
            // Out of range, just past the grid.
            let mut col = base.clone();
            col.cycle_idx[j] = cycles as u32;
            assert!(rejected(&col), "sparse index {p} out of range");
        }
        // A grid entry no lower-rate sample sits on carries only the
        // full-rate series, whose times are the grid: moving it moves them.
        let mut col = base.clone();
        nudge(&mut col.cycle_times[7]);
        let back = ColumnarTrace::decode(&col.encode()).expect("still a valid trace");
        assert_eq!(back.series(0).0[7].to_bits(), col.cycle_times[7].to_bits());
    }

    #[test]
    fn version_1_documents_are_refused() {
        // The version-1 image of a full-rate `x` sampled at t = 0 and 1,
        // which stored its times and cycle indices as well as its values.
        let mut bytes = Vec::new();
        put_header(&mut bytes, MAGIC, 1);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // signal count
        bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
        bytes.extend_from_slice(&2u64.to_le_bytes()); // cycle count
        bytes.extend_from_slice(&2u64.to_le_bytes()); // total samples
        bytes.extend_from_slice(&1u64.to_le_bytes()); // name table length
        bytes.extend_from_slice(b"x\0\0\0\0\0\0\0"); // name table + padding
        bytes.extend_from_slice(&2u64.to_le_bytes()); // count of `x`
        for f in [0.0f64, 1.0, 0.0, 1.0, 5.0, 6.0] {
            bytes.extend_from_slice(&f.to_le_bytes()); // grid, times, values
        }
        for c in [0u32, 1] {
            bytes.extend_from_slice(&c.to_le_bytes()); // cycle indices
        }
        match ColumnarTrace::decode(&bytes) {
            Err(TraceError::BadBinary { offset, message }) => {
                assert_eq!(offset, 6);
                assert_eq!(message, "unsupported format version 1");
            }
            other => panic!("a version-1 document gave {other:?}"),
        }
    }

    #[test]
    fn sample_counts_beyond_8_bytes_each_are_rejected_before_allocating() {
        // One full-rate signal `x` with one sample: 40 bytes follow the
        // total sample count, room for at most 5 samples of 8 bytes, and
        // `slack` more bytes.
        let document = |total: u64, slack: usize| {
            let mut bytes = Vec::new();
            put_header(&mut bytes, MAGIC, VERSION);
            bytes.extend_from_slice(&1u32.to_le_bytes()); // signal count
            bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
            bytes.extend_from_slice(&1u64.to_le_bytes()); // cycle count
            bytes.extend_from_slice(&total.to_le_bytes()); // total samples
            bytes.extend_from_slice(&1u64.to_le_bytes()); // name table length
            bytes.extend_from_slice(b"x\0\0\0\0\0\0\0"); // name table + padding
            bytes.extend_from_slice(&total.to_le_bytes()); // count of `x`
            bytes.extend_from_slice(&0.0f64.to_le_bytes()); // cycle time
            bytes.extend_from_slice(&4.0f64.to_le_bytes()); // value
            assert_eq!(bytes.len(), 32 + 40);
            bytes.resize(bytes.len() + slack, 0);
            ColumnarTrace::decode(&bytes)
        };
        assert!(document(1, 0).is_ok());
        let message = |total, slack| match document(total, slack) {
            Err(TraceError::BadBinary { message, .. }) => message,
            other => panic!("total {total} gave {other:?}"),
        };
        // Six samples cannot fit in 47 bytes: refused at the header, before
        // the sample columns are sized from the count.
        assert!(message(6, 7).starts_with("total sample count: count 6 exceeds"));
        assert!(message(1 << 61, 0).starts_with("total sample count"));
        // Five fit 40 bytes and fail later, at the short value column.
        assert!(!message(5, 0).starts_with("total sample count"));
    }

    #[test]
    fn corrupted_sample_invariants_are_rejected() {
        // Flip each byte in turn: decode fails typed, or what it accepts
        // is a valid trace that re-encodes to the flipped bytes.
        for col in [
            ColumnarTrace::from_trace(&mixed_rate_trace()),
            boundary_trace(),
        ] {
            let base = col.encode();
            for pos in 0..base.len() {
                let mut bytes = base.clone();
                bytes[pos] ^= 0xFF;
                match ColumnarTrace::decode(&bytes) {
                    Err(TraceError::BadBinary { .. }) => {}
                    Ok(back) => {
                        assert_eq!(back.encode(), bytes, "flip at {pos} re-encodes");
                        assert_eq!(back.to_trace().sample_count(), back.sample_count());
                    }
                    other => panic!("byte flip at {pos} gave {other:?}"),
                }
            }
        }
    }
}
