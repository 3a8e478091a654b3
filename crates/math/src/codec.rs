//! Byte-level primitives for deterministic binary codecs.
//!
//! The model store's compact binary payload format (SSTM codec 1) is
//! built from three primitives:
//!
//! * **LEB128 varints** for lengths and indices — small values (the
//!   overwhelming majority in extracted models) cost one byte;
//! * **bit-exact `f64`s** — written as the IEEE-754 bit pattern in
//!   little-endian order, so a decode→encode round trip reproduces the
//!   input byte for byte, with no text-formatting loss;
//! * **length-prefixed strings and sequences** — every variable-sized
//!   field carries its element count up front, so a reader can never
//!   run past a corrupted length without noticing.
//!
//! [`ByteWriter`] produces such streams; [`ByteReader`] consumes them
//! with precise, offset-carrying errors ([`CodecError`]) instead of
//! panics, because store payloads cross trust boundaries (files written
//! by other processes, other machines, other versions).

use std::fmt;

/// Longest legal LEB128 encoding of a `u64` (10 × 7 bits ≥ 64 bits).
const MAX_VARINT_BYTES: usize = 10;

/// A decoding failure: what went wrong and where in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which the defect was detected.
    pub offset: usize,
    /// Human-readable description of the defect.
    pub reason: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte stream writer for deterministic binary encodings.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
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

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as a single `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u64` as an LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a `usize` as a varint.
    pub fn put_usize(&mut self, v: usize) {
        self.put_varint(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian
    /// (bit-exact; NaN payloads and signed zeros survive).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A cursor over an encoded byte stream with offset-carrying errors.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, reason: impl Into<String>) -> CodecError {
        CodecError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(self.err(format!("need {n} bytes, have {}", self.remaining())));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] at end of stream.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean byte, rejecting anything but `0`/`1`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] at end of stream or on a non-boolean byte.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => {
                self.pos -= 1;
                Err(self.err(format!("invalid boolean byte {b:#04x}")))
            }
        }
    }

    /// Reads an LEB128 varint `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or an encoding longer than
    /// ten bytes (no `u64` needs more).
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        let mut value: u64 = 0;
        for i in 0..MAX_VARINT_BYTES {
            let byte = self.get_u8().map_err(|_| CodecError {
                offset: start,
                reason: "truncated varint".into(),
            })?;
            let payload = u64::from(byte & 0x7f);
            if i == MAX_VARINT_BYTES - 1 && payload > 1 {
                return Err(CodecError {
                    offset: start,
                    reason: "varint overflows u64".into(),
                });
            }
            value |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError {
            offset: start,
            reason: "varint longer than 10 bytes".into(),
        })
    }

    /// Reads a varint and bounds-checks it as a collection length.
    ///
    /// `limit` guards against allocating gigabytes on a corrupted
    /// length prefix; pass the caller's own structural bound.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or a length above `limit`.
    pub fn get_len(&mut self, limit: usize) -> Result<usize, CodecError> {
        let start = self.pos;
        let v = self.get_varint()?;
        if v > limit as u64 {
            return Err(CodecError {
                offset: start,
                reason: format!("length {v} exceeds limit {limit}"),
            });
        }
        Ok(v as usize)
    }

    /// Reads a `usize` varint.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::get_varint`].
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let start = self.pos;
        let v = self.get_varint()?;
        usize::try_from(v).map_err(|_| CodecError {
            offset: start,
            reason: format!("value {v} does not fit usize"),
        })
    }

    /// Reads an `f64` from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        let bytes = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8 bytes"),
        )))
    }

    /// Reads a length-prefixed `f64` vector (length capped by the
    /// remaining stream size).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or an oversized length.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.get_len(self.remaining() / 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_len(self.remaining())?;
        let start = self.pos;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| CodecError {
                offset: start,
                reason: format!("invalid UTF-8 string: {e}"),
            })
    }

    /// Asserts the stream is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if trailing bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(self.err(format!("{} trailing bytes after payload", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_is_minimal_for_small_values() {
        let mut w = ByteWriter::new();
        w.put_varint(127);
        assert_eq!(w.len(), 1);
        w.put_varint(128);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes: longer than any u64 needs.
        let bytes = [0xffu8; 11];
        assert!(ByteReader::new(&bytes).get_varint().is_err());
        // Truncated mid-varint.
        let bytes = [0x80u8];
        assert!(ByteReader::new(&bytes).get_varint().is_err());
        // Tenth byte carrying more than the top u64 bit.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x02);
        assert!(ByteReader::new(&bytes).get_varint().is_err());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -1234.5678e-9,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let mut w = ByteWriter::new();
            w.put_f64(v);
            let bytes = w.into_bytes();
            let back = ByteReader::new(&bytes).get_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN payload survives too.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = ByteWriter::new();
        w.put_f64(nan);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).get_f64().unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn strings_and_slices_round_trip() {
        let mut w = ByteWriter::new();
        w.put_str("grüß-gott");
        w.put_f64_slice(&[1.0, -2.0, 3.25]);
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "grüß-gott");
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.0, -2.0, 3.25]);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn reader_errors_carry_offsets() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        let e = r.get_f64().unwrap_err();
        assert_eq!(e.offset, 1);
        assert!(e.reason.contains("need 8 bytes"));
    }

    #[test]
    fn bool_rejects_other_bytes() {
        let bytes = [2u8];
        let e = ByteReader::new(&bytes).get_bool().unwrap_err();
        assert!(e.reason.contains("boolean"));
    }

    #[test]
    fn length_limit_is_enforced() {
        let mut w = ByteWriter::new();
        w.put_usize(1_000_000);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).get_len(10).is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }
}
