//! A bounds-checked forward reader over a byte slice, and the writer
//! helpers for the framings it reads.
//!
//! Every byte-framed decoder in the workspace (codec and baseline headers,
//! matrix and tensor headers, the dataset cache, serve's cache entry, the
//! pattern encoding) reads through [`ByteCursor`], so bounding a length
//! claim read off untrusted bytes by the bytes that remain happens here
//! alone (rules R1 and R2, `DESIGN.md` §3.10).
//!
//! ```
//! use masc_bitio::cursor::{self, ByteCursor};
//! use masc_bitio::varint;
//!
//! let mut buf = Vec::new();
//! varint::write_u64(&mut buf, 2);
//! cursor::write_prefixed(&mut buf, b"abc");
//! cursor::write_f64s(&mut buf, &[1.5, -2.0]);
//!
//! let mut cur = ByteCursor::new(&buf);
//! let n = cur.read_varint()?;
//! assert_eq!(cur.read_prefixed()?, b"abc");
//! assert_eq!(cur.read_f64s(n as usize)?, [1.5, -2.0]);
//! assert_eq!(cur.remaining(), 0);
//! # Ok::<(), varint::VarintError>(())
//! ```

use crate::varint::{self, VarintError};

/// A forward reader over a byte slice that never reads past its end.
///
/// A read returns what it asked for and advances, or fails and consumes
/// nothing: [`VarintError::Truncated`] when the bytes it needs are not
/// there, [`VarintError::Overflow`] for a varint wider than 64 bits.
#[derive(Debug, Clone, Copy)]
pub struct ByteCursor<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> ByteCursor<'a> {
    /// A cursor at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// Bytes read so far.
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The unread bytes, left unread (for a coder that reads the rest of
    /// the frame on its own terms).
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// `Truncated` if the bytes end mid-varint, `Overflow` if it encodes
    /// more than 64 bits.
    pub fn read_varint(&mut self) -> Result<u64, VarintError> {
        let (value, used) = varint::read_u64(self.rest)?;
        self.read_bytes(used)?;
        Ok(value)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// `Truncated` if no byte remains.
    pub fn read_u8(&mut self) -> Result<u8, VarintError> {
        self.read_array().map(|[byte]| byte)
    }

    /// Reads `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// `Truncated` if fewer than `N` bytes remain.
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], VarintError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or(VarintError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads `n` bytes.
    ///
    /// # Errors
    ///
    /// `Truncated` if fewer than `n` bytes remain.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], VarintError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(VarintError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// Reads a varint length `n`, then `n` bytes (what [`write_prefixed`]
    /// writes).
    ///
    /// # Errors
    ///
    /// As [`read_varint`](Self::read_varint), or `Truncated` if fewer than
    /// `n` bytes follow the length.
    pub fn read_prefixed(&mut self) -> Result<&'a [u8], VarintError> {
        let mut ahead = *self;
        let len = usize::try_from(ahead.read_varint()?).map_err(|_| VarintError::Truncated)?;
        let bytes = ahead.read_bytes(len)?;
        *self = ahead;
        Ok(bytes)
    }

    /// Reads `n` little-endian `f64`s (what [`write_f64s`] writes),
    /// checking `n` against the bytes that remain before allocating.
    ///
    /// # Errors
    ///
    /// `Truncated` if fewer than `8 n` bytes remain.
    pub fn read_f64s(&mut self, n: usize) -> Result<Vec<f64>, VarintError> {
        let len = n.checked_mul(8).ok_or(VarintError::Truncated)?;
        let (words, _) = self.read_bytes(len)?.as_chunks::<8>();
        Ok(words.iter().map(|&w| f64::from_le_bytes(w)).collect())
    }
}

/// Appends `bytes` behind its varint length.
pub fn write_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends `values` as little-endian `f64`s, with no length.
pub fn write_f64s(out: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}
