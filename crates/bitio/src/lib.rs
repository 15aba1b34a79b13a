//! Bit-level I/O primitives for the MASC compression stack.
//!
//! Every coder in the workspace (the MASC residual coder, Huffman, rANS, the
//! range coder, LZSS, varint index compression) is built on the two central
//! types of this crate:
//!
//! - [`BitWriter`] — an append-only, MSB-first bit sink backed by `Vec<u8>`.
//! - [`BitReader`] — the matching MSB-first bit source over a byte slice.
//!
//! Byte-oriented helpers live in [`varint`] (LEB128 + ZigZag), used to
//! compress integer index arrays, and in [`cursor`]: [`cursor::ByteCursor`]
//! is the bounds-checked reader every byte-framed decoder reads through
//! (varints, bytes, arrays, length-prefixed slices, `f64` runs), and its
//! writer helpers frame what it reads. [`bounded`] checks decoded size
//! claims before allocating.
//!
//! # Examples
//!
//! ```
//! use masc_bitio::{BitReader, BitWriter};
//!
//! # fn main() -> Result<(), masc_bitio::BitReadError> {
//! let mut w = BitWriter::new();
//! w.write_bit(true);
//! w.write_bits(0b1011, 4);
//! w.write_u64(u64::MAX);
//! let bytes = w.into_bytes();
//!
//! let mut r = BitReader::new(&bytes);
//! assert!(r.read_bit()?);
//! assert_eq!(r.read_bits(4)?, 0b1011);
//! assert_eq!(r.read_u64()?, u64::MAX);
//! # Ok(())
//! # }
//! ```

// Hardened-surface rule R1 (DESIGN.md §3.10): shipping code never panics.
// An index that clippy cannot prove in bounds carries an
// `#[expect(clippy::indexing_slicing, reason = "<the guard>")]`.
#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod cursor;
pub mod varint;

use core::fmt;

/// Error returned when a [`BitReader`] runs out of input.
///
/// Carries the bit position at which the read was attempted, which makes
/// truncated-stream bugs in the coders easy to localize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitReadError {
    /// Bit offset (from the start of the stream) of the failed read.
    pub bit_pos: usize,
    /// Number of bits that the failed call asked for.
    pub requested: usize,
}

impl fmt::Display for BitReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit stream exhausted at bit {} (requested {} bits)",
            self.bit_pos, self.requested
        )
    }
}

impl std::error::Error for BitReadError {}

/// An append-only MSB-first bit sink.
///
/// Bits are packed most-significant-bit first into successive bytes; the
/// final byte is zero-padded. MSB-first order means a sequence of
/// `write_bits(v, n)` calls produces the same bytes as writing the binary
/// expansion of the concatenated values, which keeps encoded streams easy to
/// inspect in tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in `current`.
    nbits: u32,
    /// Pending bits, right-aligned within the low `nbits` bits.
    current: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bytes` output bytes.
    #[expect(
        clippy::disallowed_methods,
        reason = "encoder-side capacity hint chosen by the caller, not decoded from a stream"
    )]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            nbits: 0,
            current: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }

    /// Number of bytes the finished stream will occupy (including the
    /// partially-filled trailing byte, if any).
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + usize::from(self.nbits > 0)
    }

    /// Returns `true` if no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.bit_len() == 0
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.current = (self.current << 1) | u8::from(bit);
        self.nbits += 1;
        if self.nbits == 8 {
            self.bytes.push(self.current);
            self.current = 0;
            self.nbits = 0;
        }
    }

    /// Appends the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        if n == 0 {
            return;
        }
        // The pending bits and the low `n` bits of `value`, MSB-aligned in
        // one 128-bit word: `nbits + n ≤ 71` bits, of which every whole
        // byte is emitted and the rest stays pending.
        let total = self.nbits + n;
        let low = u128::from(value & (u64::MAX >> (64 - n)));
        let word = ((u128::from(self.current) << n) | low) << (128 - total);
        let bytes = word.to_be_bytes();
        let whole = (total / 8) as usize;
        self.bytes
            .extend_from_slice(bytes.get(..whole).unwrap_or_default());
        self.nbits = total % 8;
        self.current = bytes
            .get(whole)
            .map_or(0, |&b| b.checked_shr(8 - self.nbits).unwrap_or(0));
    }

    /// Appends a full 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.write_bits(value, 64);
    }

    /// Appends `n` zero bits.
    pub fn write_zeros(&mut self, n: u32) {
        let mut remaining = n;
        while remaining > 64 {
            self.write_bits(0, 64);
            remaining -= 64;
        }
        self.write_bits(0, remaining);
    }

    /// Pads with zero bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        while self.nbits != 0 {
            self.write_bit(false);
        }
    }

    /// Finishes the stream and returns the packed bytes.
    ///
    /// The trailing partial byte, if any, is zero-padded on the right.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.bytes.push(self.current << pad);
        }
        self.bytes
    }

    /// Appends every bit of another writer to this one.
    ///
    /// This is used by the parallel tensor compressor to stitch
    /// independently-encoded chunks together.
    pub fn append(&mut self, other: &BitWriter) {
        for &b in &other.bytes {
            self.write_bits(u64::from(b), 8);
        }
        if other.nbits > 0 {
            self.write_bits(u64::from(other.current), other.nbits);
        }
    }
}

/// An MSB-first bit source over a byte slice.
///
/// The reader borrows its input; it never copies the underlying bytes.
/// A failed read consumes nothing, so callers may retry with a smaller width.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit to read, as an absolute bit offset.
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, positioned at the first bit.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, bit_pos: 0 }
    }

    /// Creates a reader positioned at an absolute bit offset.
    ///
    /// Used by the parallel decompressor to jump to a chunk boundary.
    pub fn at_bit(bytes: &'a [u8], bit_pos: usize) -> Self {
        Self { bytes, bit_pos }
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.bit_pos
    }

    /// Number of bits remaining before exhaustion.
    pub fn remaining_bits(&self) -> usize {
        (self.bytes.len() * 8).saturating_sub(self.bit_pos)
    }

    fn error(&self, requested: usize) -> BitReadError {
        BitReadError {
            bit_pos: self.bit_pos,
            requested,
        }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`BitReadError`] if the stream is exhausted.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`byte < self.bytes.len()`, checked just above"
    )]
    pub fn read_bit(&mut self) -> Result<bool, BitReadError> {
        let byte = self.bit_pos / 8;
        if byte >= self.bytes.len() {
            return Err(self.error(1));
        }
        let shift = 7 - (self.bit_pos % 8);
        self.bit_pos += 1;
        Ok((self.bytes[byte] >> shift) & 1 != 0)
    }

    /// Reads `n` bits into the low bits of a `u64`, most significant first.
    ///
    /// # Errors
    ///
    /// Returns [`BitReadError`] if fewer than `n` bits remain; the position
    /// is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`n ≤ remaining_bits()` is checked on entry, so every byte read lies before the end of `bytes`"
    )]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, BitReadError> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if n == 0 {
            return Ok(0);
        }
        if self.remaining_bits() < n as usize {
            return Err(self.error(n as usize));
        }
        let mut value: u64 = 0;
        let mut remaining = n;
        // Unaligned head.
        while !self.bit_pos.is_multiple_of(8) && remaining > 0 {
            let byte = self.bytes[self.bit_pos / 8];
            let shift = 7 - (self.bit_pos % 8);
            value = (value << 1) | u64::from((byte >> shift) & 1);
            self.bit_pos += 1;
            remaining -= 1;
        }
        // Whole bytes.
        while remaining >= 8 {
            let byte = self.bytes[self.bit_pos / 8];
            value = (value << 8) | u64::from(byte);
            self.bit_pos += 8;
            remaining -= 8;
        }
        // Tail.
        while remaining > 0 {
            let byte = self.bytes[self.bit_pos / 8];
            let shift = 7 - (self.bit_pos % 8);
            value = (value << 1) | u64::from((byte >> shift) & 1);
            self.bit_pos += 1;
            remaining -= 1;
        }
        Ok(value)
    }

    /// Consumes a run of `1` bits, at most `max` of them, and returns its
    /// length, up to 64 bits per step.
    ///
    /// The run stops before the first `0` bit, after `max` ones, or at the
    /// end of the stream, so the next read sees — and fails at — the same
    /// position as after reading the run one bit at a time. Never fails.
    pub fn read_ones(&mut self, max: usize) -> usize {
        let mut run = 0;
        while run < max {
            let window = 64 - self.bit_pos % 8;
            let ones = (self.peek_word().leading_ones() as usize).min(max - run);
            self.bit_pos += ones;
            run += ones;
            if ones < window {
                break;
            }
        }
        run
    }

    /// The `64 - bit_pos % 8` bits from the current position, MSB-aligned;
    /// bits past the end of the stream read as zero.
    fn peek_word(&self) -> u64 {
        let tail = self.bytes.get(self.bit_pos / 8..).unwrap_or_default();
        let mut head = [0u8; 8];
        match tail.first_chunk::<8>() {
            Some(whole) => head = *whole,
            None => {
                for (dst, src) in head.iter_mut().zip(tail) {
                    *dst = *src;
                }
            }
        }
        u64::from_be_bytes(head) << (self.bit_pos % 8)
    }

    /// Reads a full 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`BitReadError`] if fewer than 64 bits remain.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, BitReadError> {
        self.read_bits(64)
    }

    /// Skips forward to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.bit_pos = self.bit_pos.div_ceil(8) * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn write_bits_matches_bit_by_bit() {
        let value: u64 = 0xDEAD_BEEF_0123_4567;
        for offset in 0..8u32 {
            for n in 0..=64u32 {
                let mut a = BitWriter::new();
                let mut b = BitWriter::new();
                for i in 0..offset {
                    a.write_bit(i % 3 == 0);
                    b.write_bit(i % 3 == 0);
                }
                a.write_bits(value, n);
                for i in (0..n).rev() {
                    b.write_bit((value >> i) & 1 != 0);
                }
                // A trailing write shows the pending bits were kept exact.
                a.write_bits(0b101, 3);
                for bit in [true, false, true] {
                    b.write_bit(bit);
                }
                assert_eq!(a.bit_len(), b.bit_len(), "offset {offset}, width {n}");
                assert_eq!(a.into_bytes(), b.into_bytes(), "offset {offset}, width {n}");
            }
        }
    }

    #[test]
    fn mixed_widths_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_u64(0x0123_4567_89AB_CDEF);
        w.write_bit(true);
        w.write_bits(0x7F, 7);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(7).unwrap(), 0x7F);
    }

    #[test]
    fn zero_width_operations_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 0);
        assert!(w.is_empty());
        w.write_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn exhaustion_reports_position() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        r.read_bits(8).unwrap();
        let err = r.read_bit().unwrap_err();
        assert_eq!(err.bit_pos, 8);
        assert_eq!(err.requested, 1);
        assert!(err.to_string().contains("bit 8"));
    }

    #[test]
    fn read_past_end_with_partial_remaining() {
        let bytes = [0xAB, 0xCD];
        let mut r = BitReader::new(&bytes);
        r.read_bits(10).unwrap();
        assert_eq!(r.remaining_bits(), 6);
        assert!(r.read_bits(7).is_err());
        // Failed read must not consume bits.
        assert_eq!(r.read_bits(6).unwrap(), 0b001101);
    }

    #[test]
    fn align_writer_and_reader() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_to_byte();
        w.write_bits(0xAA, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1100_0000, 0xAA]);
        let mut r = BitReader::new(&bytes);
        r.read_bits(2).unwrap();
        r.align_to_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xAA);
    }

    #[test]
    fn append_stitches_unaligned_streams() {
        let mut a = BitWriter::new();
        a.write_bits(0b101, 3);
        let mut b = BitWriter::new();
        b.write_bits(0x1FF, 9);
        b.write_bit(false);
        let mut combined = BitWriter::new();
        combined.append(&a);
        combined.append(&b);
        let bytes = combined.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(9).unwrap(), 0x1FF);
        assert!(!r.read_bit().unwrap());
    }

    #[test]
    fn write_zeros_bulk() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_zeros(130);
        w.write_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        for _ in 0..130 {
            assert!(!r.read_bit().unwrap());
        }
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn reader_at_bit_offset() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 8);
        w.write_bits(0b1010, 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::at_bit(&bytes, 8);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
    }

    #[test]
    fn byte_len_counts_partial_byte() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.write_bit(true);
        assert_eq!(w.byte_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.byte_len(), 1);
        w.write_bit(true);
        assert_eq!(w.byte_len(), 2);
    }
}
