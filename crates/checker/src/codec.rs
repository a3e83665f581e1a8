//! The one bounded byte codec.
//!
//! Every byte format the workspace reads back is written with the `put_*`
//! helpers here and read through one [`Reader`]: portable checkpoints
//! ([`crate::ckpt`]), `ccserve`'s wire frames, parked jobs and verdict-log
//! payloads, and `cccore::wal`'s file and record headers.  Integers are
//! little-endian and fixed-width; strings and lists carry a `u32` count
//! (checkpoints) or a `u64` one (the wire and parked jobs).
//!
//! Reading a length field is *bounded*: the declared count times the
//! element's minimum encoded size must fit in the input that remains, so a
//! corrupt length fails typed before it can drive an allocation larger than
//! the input.  Decoding is total: every failure is a [`DecodeError`], never
//! a panic.

use std::fmt;

/// Decoding failure: the bytes are not a well-formed encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the structure was complete.
    Truncated,
    /// A field held a value outside its domain (bad version, unknown tag,
    /// a length exceeding the input, trailing bytes, ...).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated input"),
            DecodeError::Malformed(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string with a `u32` length prefix.
pub fn put_str_u32(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a string with a `u64` length prefix.
pub fn put_str_u64(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u32` element count, then each element with `put`.
pub fn put_list_u32<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    items.iter().for_each(|item| put(out, item));
}

/// Appends a `u64` element count, then each element with `put`.
pub fn put_list_u64<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u64(out, items.len() as u64);
    items.iter().for_each(|item| put(out, item));
}

/// Decodes the whole of `bytes` with `read`, rejecting trailing bytes.
pub fn decode_all<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// A cursor over input bytes.  Every read either consumes exactly the bytes
/// it decodes or fails typed.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `count` itself, if `count` elements of at least `min_size` bytes
    /// each fit in the remaining input.
    pub fn bound(&self, count: usize, min_size: usize) -> Result<usize, DecodeError> {
        if count > self.remaining() / min_size.max(1) {
            return Err(DecodeError::Malformed("length exceeds input"));
        }
        Ok(count)
    }

    /// A `u32` element count, [bounded](Reader::bound) by the remaining
    /// input at `min_size` bytes per element.
    pub fn len_u32(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        self.bound(n, min_size)
    }

    /// A `u64` element count, [bounded](Reader::bound) by the remaining
    /// input at `min_size` bytes per element.
    pub fn len_u64(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        self.bound(n, min_size)
    }

    /// A UTF-8 string with a `u32` length prefix.
    pub fn str_u32(&mut self) -> Result<String, DecodeError> {
        let n = self.len_u32(1)?;
        self.utf8(n)
    }

    /// A UTF-8 string with a `u64` length prefix.
    pub fn str_u64(&mut self) -> Result<String, DecodeError> {
        let n = self.len_u64(1)?;
        self.utf8(n)
    }

    /// A list with a `u32` element count, [bounded](Reader::bound) at
    /// `min_size` bytes per element, each element read by `read`.
    pub fn list_u32<T>(
        &mut self,
        min_size: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.len_u32(min_size)?;
        (0..n).map(|_| read(self)).collect()
    }

    /// A list with a `u64` element count, [bounded](Reader::bound) at
    /// `min_size` bytes per element, each element read by `read`.
    pub fn list_u64<T>(
        &mut self,
        min_size: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.len_u64(min_size)?;
        (0..n).map(|_| read(self)).collect()
    }

    fn utf8(&mut self, n: usize) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|_| DecodeError::Malformed("string is not UTF-8"))
    }

    /// Succeeds only if the whole input was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() > 0 {
            return Err(DecodeError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0x0102_0304);
        put_u64(&mut out, u64::MAX - 1);
        put_str_u32(&mut out, "ab");
        put_str_u64(&mut out, "ü");
        assert_eq!(out[..5], [7, 4, 3, 2, 1]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0x0102_0304));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str_u32().as_deref(), Ok("ab"));
        assert_eq!(r.str_u64().as_deref(), Ok("ü"));
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_are_truncated_and_leave_the_position() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.bytes(2), Ok(&[1, 2][..]));
        assert_eq!(r.bytes(usize::MAX), Err(DecodeError::Truncated));
        assert_eq!(r.rest(), &[3]);
        assert_eq!(r.rest(), &[] as &[u8]);
    }

    #[test]
    fn length_fields_are_bounded_by_the_remaining_input() {
        // two 8-byte elements fit in 16 remaining bytes, three do not
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&bytes).len_u64(8), Ok(2));
        assert_eq!(
            Reader::new(&bytes).len_u64(9),
            Err(DecodeError::Malformed("length exceeds input"))
        );
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).len_u64(1).is_err());
        assert!(Reader::new(&huge).str_u64().is_err());
        let mut bad_utf8 = Vec::new();
        put_u32(&mut bad_utf8, 1);
        bad_utf8.push(0xFF);
        assert_eq!(
            Reader::new(&bad_utf8).str_u32(),
            Err(DecodeError::Malformed("string is not UTF-8"))
        );
    }

    #[test]
    fn lists_round_trip_with_their_count_width() {
        let mut out = Vec::new();
        put_list_u32(&mut out, &[1u64, 2], |o, &v| put_u64(o, v));
        put_list_u64(&mut out, &["x", "yz"], |o, s| put_str_u64(o, s));
        assert_eq!(out[..4], [2, 0, 0, 0]);
        let mut r = Reader::new(&out);
        assert_eq!(r.list_u32(8, Reader::u64), Ok(vec![1, 2]));
        assert_eq!(
            r.list_u64(8, Reader::str_u64),
            Ok(vec!["x".to_string(), "yz".to_string()])
        );
        r.finish().unwrap();
        // a count the input cannot hold fails before any element is read
        assert_eq!(
            Reader::new(&[3, 0, 0, 0, 1, 2]).list_u32(1, Reader::u8),
            Err(DecodeError::Malformed("length exceeds input"))
        );
    }

    #[test]
    fn decode_all_rejects_trailing_bytes() {
        assert_eq!(decode_all(&[5], |r| r.u8()), Ok(5));
        assert_eq!(
            decode_all(&[5, 0], |r| r.u8()),
            Err(DecodeError::Malformed("trailing bytes"))
        );
    }
}
