//! The workspace's one bounds-checked binary reader, and the encode
//! primitives that write what it reads.
//!
//! Every binary container in ADAssure — `.adt` traces ([`crate::columnar`]),
//! ADWIRE frames, ADCKPT fleet checkpoints and ADSIM debugger checkpoints —
//! follows the same conventions (DESIGN.md, "Binary container
//! conventions"), is written with [`put_header`], [`put_count`],
//! [`put_u16_str`] and [`put_opt_f64`], and is decoded through [`Cur`]:
//!
//! - a header `magic | version:u8 | endian:u8` ([`put_header`] /
//!   [`Cur::header`]), where endianness `1` (little-endian) is the only
//!   defined value; each format applies its own version policy to the
//!   returned version byte,
//! - every integer and float little-endian, floats as raw IEEE-754 bits so
//!   NaNs round-trip exactly,
//! - strings as `u16` length + UTF-8, name tables as `\n`-joined UTF-8,
//! - every element count checked against the bytes remaining before
//!   anything is allocated for it, so a corrupt count fails typed instead
//!   of driving a huge allocation,
//! - decoding returns a typed [`DecodeError`], never panics.
//!
//! Each format converts [`DecodeError`] into its own public error type.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// The endianness marker byte: `1` = little-endian (the only defined value).
pub const LITTLE_ENDIAN: u8 = 1;

/// A structural decode failure: where it was detected and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the decoded input.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl DecodeError {
    /// A decode error at `offset`.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        DecodeError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Appends the shared container header: `magic | version | endian`.
pub fn put_header(out: &mut Vec<u8>, magic: &[u8], version: u8) {
    out.extend_from_slice(magic);
    out.push(version);
    out.push(LITTLE_ENDIAN);
}

/// Appends a `u16` length-prefixed UTF-8 string.
pub fn put_u16_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "oversized id string");
    #[allow(clippy::cast_possible_truncation)]
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a presence byte followed by the raw bits when `Some`.
pub fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Appends a `u32` element count or byte length (callers keep it under
/// 4 G, which every in-memory state and every capped frame satisfies).
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    debug_assert!(n <= u32::MAX as usize, "oversized section");
    #[allow(clippy::cast_possible_truncation)]
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// Rounds `n` up to the next multiple of 8.
pub(crate) fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// A bounds-checked little-endian cursor over a byte slice.
///
/// Every read fails with a [`DecodeError`] on truncation; the validating
/// reads (`bool`, `str16`, `count`, `names`, `header`, …) also fail on
/// content they reject. `what` names the field in the error message.
#[derive(Debug)]
pub struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cur { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A [`DecodeError`] at the current offset.
    pub fn bad(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::at(self.pos, message)
    }

    /// Reads the shared container header, checking the magic and the
    /// endianness byte, and returns the version byte for the caller's own
    /// version policy.
    pub fn header(&mut self, magic: &[u8]) -> Result<u8, DecodeError> {
        if self.take(magic.len(), "magic")? != magic {
            return Err(DecodeError::at(
                self.pos - magic.len(),
                format!("bad magic (not {})", String::from_utf8_lossy(magic)),
            ));
        }
        let version = self.u8("version byte")?;
        let endian = self.u8("endianness byte")?;
        if endian != LITTLE_ENDIAN {
            return Err(DecodeError::at(
                self.pos - 1,
                format!("unsupported endianness marker {endian}"),
            ));
        }
        Ok(version)
    }

    /// Errors unless the cursor consumed the input exactly.
    pub fn expect_end(&self, what: &str) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(self.bad(format!("{} trailing bytes after {what}", self.remaining())));
        }
        Ok(())
    }

    /// Consumes `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.bad(format!("truncated: {what} needs {n} bytes")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a strict boolean byte (0 or 1).
    pub fn bool(&mut self, what: &str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::at(
                self.pos - 1,
                format!("{what}: invalid bool byte {other}"),
            )),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64` as a `usize`.
    pub fn usize64(&mut self, what: &str) -> Result<usize, DecodeError> {
        let v = self.u64(what)?;
        usize::try_from(v)
            .map_err(|_| DecodeError::at(self.pos - 8, format!("{what} {v} exceeds usize")))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn f64(&mut self, what: &str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads an optional `f64` (presence byte + bits).
    pub fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, DecodeError> {
        Ok(if self.bool(what)? {
            Some(self.f64(what)?)
        } else {
            None
        })
    }

    /// Reads a `u16` length-prefixed UTF-8 string.
    pub fn str16(&mut self, what: &str) -> Result<String, DecodeError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.bad(format!("{what}: invalid UTF-8")))
    }

    /// Reads a `u32` element count, capped by the bytes remaining (every
    /// element takes at least one byte).
    pub fn count(&mut self, what: &str) -> Result<usize, DecodeError> {
        let n = self.u32(what)? as usize;
        self.fits(n, 1, what)
    }

    /// Checks that `n` elements of at least `size` bytes each can still
    /// follow, so `n` is safe to allocate for; returns `n`.
    pub fn fits(&self, n: usize, size: usize, what: &str) -> Result<usize, DecodeError> {
        if n.checked_mul(size).is_none_or(|b| b > self.remaining()) {
            return Err(self.bad(format!(
                "{what}: count {n} exceeds the remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads `n` little-endian `u32`s.
    pub fn u32s(
        &mut self,
        n: usize,
        what: &str,
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, DecodeError> {
        Ok(self
            .chunks::<4>(n, what)?
            .iter()
            .map(|&b| u32::from_le_bytes(b)))
    }

    /// Reads `n` `f64`s from raw IEEE-754 bits.
    pub fn f64s(
        &mut self,
        n: usize,
        what: &str,
    ) -> Result<impl ExactSizeIterator<Item = f64> + 'a, DecodeError> {
        Ok(self
            .chunks::<8>(n, what)?
            .iter()
            .map(|&b| f64::from_bits(u64::from_le_bytes(b))))
    }

    /// Consumes `n` elements of `N` bytes each and returns them undecoded,
    /// for a caller that reads the column in place later.
    pub fn chunks<const N: usize>(
        &mut self,
        n: usize,
        what: &str,
    ) -> Result<&'a [[u8; N]], DecodeError> {
        let (words, _) = self.take_n(n, N, what)?.as_chunks::<N>();
        Ok(words)
    }

    /// Skips padding up to the next 8-byte boundary, requiring zero bytes.
    pub fn align8(&mut self, what: &str) -> Result<(), DecodeError> {
        let start = self.pos;
        let pad = self.take(pad8(start) - start, what)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(DecodeError::at(start, format!("non-zero {what}")));
        }
        Ok(())
    }

    /// Reads a `len`-byte name table (`\n`-joined UTF-8) that must hold
    /// exactly `count` non-empty names. An empty table holds no names.
    pub fn names(
        &mut self,
        len: usize,
        count: usize,
        what: &str,
    ) -> Result<Vec<&'a str>, DecodeError> {
        let start = self.pos;
        let text = std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| DecodeError::at(start, format!("{what} is not valid UTF-8")))?;
        let names: Vec<&str> = if text.is_empty() {
            Vec::new()
        } else {
            text.split('\n').collect()
        };
        if names.len() != count {
            return Err(DecodeError::at(
                start,
                format!("{what} holds {} names, header says {count}", names.len()),
            ));
        }
        if names.iter().any(|n| n.is_empty()) {
            return Err(DecodeError::at(start, format!("empty name in {what}")));
        }
        Ok(names)
    }

    /// Consumes `N` bytes as an array.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DecodeError> {
        let Some(&bytes) = self.bytes[self.pos..].first_chunk::<N>() else {
            return Err(self.bad(format!("truncated: {what} needs {N} bytes")));
        };
        self.pos += N;
        Ok(bytes)
    }

    /// Consumes `n` elements of `size` bytes each.
    fn take_n(&mut self, n: usize, size: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        let len = n
            .checked_mul(size)
            .ok_or_else(|| self.bad(format!("{what}: length overflows")))?;
        self.take(len, what)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_rejects_magic_and_endianness() {
        let mut bytes = Vec::new();
        put_header(&mut bytes, b"ADTEST", 3);
        assert_eq!(Cur::new(&bytes).header(b"ADTEST"), Ok(3));
        assert_eq!(Cur::new(&bytes).header(b"ADOTHR").unwrap_err().offset, 0);
        bytes[7] = 2;
        assert_eq!(Cur::new(&bytes).header(b"ADTEST").unwrap_err().offset, 7);
        for cut in 0..bytes.len() {
            assert!(Cur::new(&bytes[..cut]).header(b"ADTEST").is_err());
        }
    }

    #[test]
    fn counts_are_capped_by_remaining_bytes() {
        let bytes = 1000u32.to_le_bytes();
        assert!(Cur::new(&bytes).count("huge section").is_err());
        let c = Cur::new(&[0u8; 16]);
        assert_eq!(c.fits(2, 8, "pair"), Ok(2));
        assert!(c.fits(3, 8, "triple").is_err());
        assert!(c.fits(usize::MAX, 8, "overflow").is_err());
    }

    #[test]
    fn bulk_reads_match_scalar_reads() {
        let mut bytes = Vec::new();
        for v in [1u32, 2, u32::MAX] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [0.5f64, f64::NAN] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let mut c = Cur::new(&bytes);
        assert_eq!(
            c.u32s(3, "ints").unwrap().collect::<Vec<_>>(),
            [1, 2, u32::MAX]
        );
        let floats: Vec<u64> = c.f64s(2, "floats").unwrap().map(f64::to_bits).collect();
        assert_eq!(floats, [0.5f64.to_bits(), f64::NAN.to_bits()]);
        c.expect_end("floats").unwrap();
        assert!(Cur::new(&bytes).f64s(usize::MAX, "overflow").is_err());
    }

    #[test]
    fn name_tables_and_padding_are_validated() {
        let mut c = Cur::new(b"a\nbc\0\0\0\0");
        assert_eq!(c.names(4, 2, "name table").unwrap(), ["a", "bc"]);
        c.align8("padding").unwrap();
        c.expect_end("padding").unwrap();
        assert!(Cur::new(b"a\nbc").names(4, 3, "t").is_err());
        assert!(Cur::new(b"a\n\nb").names(4, 3, "t").is_err());
        assert!(Cur::new(b"\xff").names(1, 1, "t").is_err());
        assert_eq!(Cur::new(b"").names(0, 0, "t").unwrap(), Vec::<&str>::new());
        let mut c = Cur::new(b"abc\x01\0\0\0\0");
        c.take(3, "abc").unwrap();
        assert_eq!(c.align8("padding").unwrap_err().offset, 3);
    }
}
