//! The byte codec under the WAL and checkpoint formats: fixed-width
//! little-endian primitives over growable buffers, with a bounds-checked
//! reader that never trusts an on-disk length.
//!
//! Floats are always carried as their raw `f64` bit patterns so a
//! round trip is bit-for-bit lossless (NaN payloads included); `usize`
//! values travel as `u64` so the format is identical across word sizes.

use crate::error::{PersistError, Result};

/// Append-only encoder over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its raw bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends `slice.len()` as a `u64`, then every element.
    pub fn u32_slice(&mut self, slice: &[u32]) {
        self.usize(slice.len());
        for &v in slice {
            self.u32(v);
        }
    }

    /// Appends `slice.len()` as a `u64`, then every element.
    pub fn u64_slice(&mut self, slice: &[u64]) {
        self.usize(slice.len());
        for &v in slice {
            self.u64(v);
        }
    }

    /// Appends `slice.len()` as a `u64`, then every element's bit pattern.
    pub fn f64_slice(&mut self, slice: &[f64]) {
        self.usize(slice.len());
        for &v in slice {
            self.f64(v);
        }
    }

    /// Appends `slice.len()` as a `u64`, then every element as a `u64`.
    pub fn usize_slice(&mut self, slice: &[usize]) {
        self.usize(slice.len());
        for &v in slice {
            self.usize(v);
        }
    }

    /// Pads with zero bytes to the next multiple of `align`.
    pub fn pad_to(&mut self, align: usize) {
        while !self.buf.len().is_multiple_of(align) {
            self.buf.push(0);
        }
    }
}

/// Bounds-checked decoder over a byte slice. Every read validates the
/// remaining length first — a corrupt length can never panic, over-read,
/// or force an absurd allocation (element counts are checked against the
/// bytes actually present before any `Vec` is sized).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn short(&self, what: &str, need: usize) -> PersistError {
        PersistError::Corrupt(format!(
            "truncated {what}: need {need} bytes, {} remain at offset {}",
            self.remaining(),
            self.pos
        ))
    }

    /// Consumes `len` raw bytes.
    pub fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(self.short(what, len));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("{what} {v} overflows usize")))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn count(&mut self, what: &str, elem_size: usize) -> Result<usize> {
        let n = self.usize(what)?;
        match n.checked_mul(elem_size) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(PersistError::Corrupt(format!(
                "{what}: {n} elements of {elem_size} bytes exceed the {} remaining",
                self.remaining()
            ))),
        }
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32_vec(&mut self, what: &str) -> Result<Vec<u32>> {
        let n = self.count(what, 4)?;
        (0..n).map(|_| self.u32(what)).collect()
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64_vec(&mut self, what: &str) -> Result<Vec<u64>> {
        let n = self.count(what, 8)?;
        (0..n).map(|_| self.u64(what)).collect()
    }

    /// Reads a length-prefixed `f64` vector (raw bit patterns).
    pub fn f64_vec(&mut self, what: &str) -> Result<Vec<f64>> {
        let n = self.count(what, 8)?;
        (0..n).map(|_| self.f64(what)).collect()
    }

    /// Reads a length-prefixed `usize` vector (stored as `u64`s).
    pub fn usize_vec(&mut self, what: &str) -> Result<Vec<usize>> {
        let n = self.count(what, 8)?;
        (0..n).map(|_| self.usize(what)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        w.u32_slice(&[1, 2, 3]);
        w.usize_slice(&[0, usize::MAX]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("e").unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(r.u32_vec("f").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.usize_vec("g").unwrap(), vec![0, usize::MAX]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(r.u64("x"), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn absurd_length_prefix_does_not_allocate() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.f64_vec("v"), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn padding_aligns() {
        let mut w = Writer::new();
        w.u8(1);
        w.pad_to(8);
        assert_eq!(w.len(), 8);
        w.pad_to(8);
        assert_eq!(w.len(), 8);
    }
}
