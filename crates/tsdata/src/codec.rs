//! Hand-rolled binary codec for the persistent model store.
//!
//! The journal (`etsc_eval::journal`) established the framework's
//! serialization ground rules: no external serialization crates, exact
//! `f64` round-trips, and versioned headers that reject incompatible
//! files instead of misreading them. This module is the binary
//! counterpart used by `etsc-serve`'s model store: floats travel as
//! their IEEE-754 bit patterns (`f64::to_bits`, little-endian), so a
//! decoded model is *bit-identical* to the encoded one — including
//! NaNs, infinities and signed zeros, which the journal's textual
//! format has to special-case.
//!
//! The format is deliberately primitive: length-prefixed sequences of
//! little-endian scalars, no field names, no skipping. Every type's
//! `encode_state`/`decode_state` pair must write and read exactly the
//! same field sequence; the versioned container header (owned by the
//! model store) is what guards against schema drift between releases.

use std::fmt;

/// CRC-64/XZ (ECMA-182 polynomial, reflected) slicing-by-8 tables,
/// built at compile time. `CRC64_TABLES[0]` is the classic byte-wise
/// table; `CRC64_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so one lookup per byte of a little-endian word folds
/// eight bytes into the register at once.
static CRC64_TABLES: [[u64; 256]; 8] = {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-64/XZ checksum of `bytes` — the per-section integrity check the
/// model store appends so a flipped bit or torn write is detected as
/// corruption instead of being decoded into garbage weights, and the
/// checksum of every wire frame. Eight bytes per step (slicing-by-8),
/// then the tail byte by byte; the value is the byte-wise CRC's.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC64_TABLES;
    let byte = |w: u64, shift: u32| ((w >> shift) & 0xff) as usize;
    let mut crc = u64::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = crc ^ u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        crc = t7[byte(w, 0)]
            ^ t6[byte(w, 8)]
            ^ t5[byte(w, 16)]
            ^ t4[byte(w, 24)]
            ^ t3[byte(w, 32)]
            ^ t2[byte(w, 40)]
            ^ t1[byte(w, 48)]
            ^ t0[byte(w, 56)];
    }
    for &b in words.remainder() {
        crc = t0[byte(crc ^ u64::from(b), 0)] ^ (crc >> 8);
    }
    !crc
}

/// Decoding failure: the byte stream does not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the next scalar needs.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length or tag field holds an impossible value.
    Corrupt {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            CodecError::Corrupt { detail } => write!(f, "corrupt model payload: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An encoder that writes after `buf`'s bytes, keeping them and the
    /// allocation — lets a caller pack several messages into one buffer,
    /// or recycle a cleared buffer instead of allocating per message.
    pub fn appending(buf: Vec<u8>) -> Encoder {
        Encoder { buf }
    }

    /// Consumes the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a single tag byte (enum discriminants).
    pub fn tag(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn f64s(&mut self, xs: &[f64]) {
        self.buf.reserve(8 * (xs.len() + 1));
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn usizes(&mut self, xs: &[usize]) {
        self.usize(xs.len());
        for &x in xs {
            self.usize(x);
        }
    }

    /// Writes a length-prefixed vector of `f64` rows.
    pub fn f64_rows(&mut self, rows: &[Vec<f64>]) {
        self.usize(rows.len());
        for row in rows {
            self.f64s(row);
        }
    }

    /// Appends raw bytes verbatim (no length prefix) — used by the
    /// model store to embed pre-encoded, checksummed sections.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an `Option<f64>` as a presence byte plus the value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.f64(x);
            }
            None => self.bool(false),
        }
    }
}

/// Sequential binary decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` when every byte has been consumed — decoders should end
    /// exactly at the payload boundary.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { what });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let raw = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not
    /// fit the platform's pointer width.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Corrupt {
            detail: format!("length {v} exceeds the platform usize range"),
        })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Corrupt {
                detail: format!("invalid bool byte {other}"),
            }),
        }
    }

    /// Reads a tag byte.
    pub fn tag(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "tag")?[0])
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.bounded_len("string")?;
        let raw = self.take(len, "string bytes")?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Corrupt {
            detail: "string is not valid UTF-8".to_owned(),
        })
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.bounded_len("f64 vector")?;
        // All values in one take: a short input fails as the first
        // value read past the end would.
        let raw = self.take(len.saturating_mul(8), "u64")?;
        Ok(raw
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, CodecError> {
        let len = self.bounded_len("usize vector")?;
        let mut out = Vec::with_capacity(len.min(self.remaining() / 8));
        for _ in 0..len {
            out.push(self.usize()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed vector of `f64` rows.
    pub fn f64_rows(&mut self) -> Result<Vec<Vec<f64>>, CodecError> {
        let len = self.bounded_len("row vector")?;
        // Every row carries at least its 8-byte length prefix.
        let mut out = Vec::with_capacity(len.min(self.remaining() / 8));
        for _ in 0..len {
            out.push(self.f64s()?);
        }
        Ok(out)
    }

    /// Reads `n` raw bytes verbatim (the counterpart of
    /// [`Encoder::raw`]).
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        self.take(n, what)
    }

    /// Reads an `Option<f64>`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }

    /// A length prefix sanity-checked against the remaining bytes so a
    /// corrupt length cannot trigger a huge allocation.
    fn bounded_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = self.usize()?;
        // Every element of every sequence occupies at least one byte.
        if len > self.remaining() {
            return Err(CodecError::Corrupt {
                detail: format!(
                    "{what} length {len} exceeds the {} remaining bytes",
                    self.remaining()
                ),
            });
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        e.usize(42);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bool(true);
        e.tag(7);
        e.str("wörd");
        e.opt_f64(Some(1.5));
        e.opt_f64(None);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.tag().unwrap(), 7);
        assert_eq!(d.str().unwrap(), "wörd");
        assert_eq!(d.opt_f64().unwrap(), Some(1.5));
        assert_eq!(d.opt_f64().unwrap(), None);
        assert!(d.is_exhausted());
    }

    #[test]
    fn sequences_roundtrip_bit_exactly() {
        let values = vec![1.0, f64::INFINITY, f64::MIN_POSITIVE, -3.25e-200];
        let rows = vec![values.clone(), vec![], vec![f64::NEG_INFINITY]];
        let mut e = Encoder::new();
        e.f64s(&values);
        e.usizes(&[0, 1, usize::MAX]);
        e.f64_rows(&rows);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = d.f64s().unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(d.usizes().unwrap(), vec![0, 1, usize::MAX]);
        assert_eq!(d.f64_rows().unwrap(), rows);
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut e = Encoder::new();
        e.f64s(&[1.0, 2.0, 3.0]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..bytes.len() - 4]);
        assert!(d.f64s().is_err());
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut e = Encoder::new();
        e.usize(usize::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let err = d.f64s().unwrap_err();
        assert!(matches!(err, CodecError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn crc64_matches_reference_vector() {
        // The CRC-64/XZ check value for the standard "123456789" input.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // Sensitivity: one flipped bit changes the checksum.
        let a = crc64(b"model payload");
        let b = crc64(b"model pbyload");
        assert_ne!(a, b);
    }

    /// CRC-64/XZ one byte at a time, bit by bit: the reference the
    /// word-at-a-time [`crc64`] must equal, independent of its tables.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = u64::MAX;
        for &b in bytes {
            crc ^= u64::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xC96C_5795_D787_0F42
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn word_at_a_time_crc64_equals_the_bytewise_reference() {
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        // Seeded bytes (SplitMix64), read at every start offset 0..8 so
        // words straddle every alignment, for every length to 1 KiB.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let bytes: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc64(slice),
                    crc64_bytewise(slice),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut d = Decoder::new(&[9]);
        assert!(matches!(d.bool(), Err(CodecError::Corrupt { .. })));
    }
}
