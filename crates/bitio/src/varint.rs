//! Variable-length integer coding (LEB128) and ZigZag mapping.
//!
//! These are the primitives behind MASC's *shared indices* serialization:
//! CSR `row_ptr` and `col_idx` arrays are delta-encoded (producing small,
//! often-negative gaps), ZigZag-mapped to unsigned, then LEB128-packed.
//!
//! # Examples
//!
//! ```
//! use masc_bitio::varint;
//!
//! let mut buf = Vec::new();
//! varint::write_u64(&mut buf, 300);
//! let (value, used) = varint::read_u64(&buf).expect("valid varint");
//! assert_eq!(value, 300);
//! assert_eq!(used, 2);
//! ```

use crate::cursor::ByteCursor;
use core::fmt;

/// Error returned when a varint, or any [`ByteCursor`] read, cannot be
/// decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarintError {
    /// The buffer ended in the middle of a varint, or before the bytes a
    /// read needs.
    Truncated,
    /// The varint encoded a value wider than 64 bits.
    Overflow,
}

impl fmt::Display for VarintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "varint truncated"),
            VarintError::Overflow => write!(f, "varint exceeds 64 bits"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Appends `value` to `buf` in LEB128 form (7 bits per byte, high bit =
/// continuation). Returns the number of bytes written (1–10).
pub fn write_u64(buf: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            buf.push(byte);
            return n;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a LEB128 varint from the front of `buf`.
///
/// Returns the decoded value and the number of bytes consumed.
///
/// # Errors
///
/// [`VarintError::Truncated`] if the buffer ends mid-varint;
/// [`VarintError::Overflow`] if more than 64 bits are encoded.
pub fn read_u64(buf: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        let payload = u64::from(byte & 0x7F);
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(VarintError::Overflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(VarintError::Truncated)
}

/// Maps a signed integer to an unsigned one so small-magnitude values (of
/// either sign) get small codes: `0 → 0, -1 → 1, 1 → 2, -2 → 3, …`.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Delta + ZigZag + LEB128 encodes a slice of indices.
///
/// The first element is stored as-is (ZigZag of its value); each subsequent
/// element stores the gap to its predecessor. Sorted index arrays (CSR
/// `row_ptr`, per-row sorted `col_idx`) compress to roughly one byte per
/// entry.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: sized by `values.len()`, a held slice"
)]
pub fn encode_deltas(values: &[usize]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(values.len() + 8);
    write_u64(&mut buf, values.len() as u64);
    let mut prev: i64 = 0;
    for &v in values {
        let v = v as i64;
        write_u64(&mut buf, zigzag_encode(v - prev));
        prev = v;
    }
    buf
}

/// Inverse of [`encode_deltas`].
///
/// # Errors
///
/// Returns a [`VarintError`] if the buffer is truncated or malformed, or if
/// a decoded value is negative (sorted index arrays are non-negative).
pub fn decode_deltas(buf: &[u8]) -> Result<Vec<usize>, VarintError> {
    let mut cur = ByteCursor::new(buf);
    let len = cur.read_varint()?;
    // Every delta costs at least one byte, so a claimed count beyond the
    // remaining input is truncated garbage; reject it before trusting it
    // with an allocation.
    let mut out =
        crate::bounded::bounded_capacity("delta-coded index array", len as usize, cur.remaining())
            .map_err(|_| VarintError::Truncated)?;
    let mut prev: i64 = 0;
    for _ in 0..len {
        prev = prev
            .checked_add(zigzag_decode(cur.read_varint()?))
            .ok_or(VarintError::Overflow)?;
        if prev < 0 {
            return Err(VarintError::Overflow);
        }
        out.push(prev as usize);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            let written = write_u64(&mut buf, value);
            assert_eq!(written, buf.len());
            let (decoded, used) = read_u64(&buf).unwrap();
            assert_eq!(decoded, value);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_sizes() {
        let mut buf = Vec::new();
        assert_eq!(write_u64(&mut buf, 0), 1);
        buf.clear();
        assert_eq!(write_u64(&mut buf, 127), 1);
        buf.clear();
        assert_eq!(write_u64(&mut buf, 128), 2);
        buf.clear();
        assert_eq!(write_u64(&mut buf, u64::MAX), 10);
    }

    #[test]
    fn truncated_is_detected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 40);
        buf.pop();
        assert_eq!(read_u64(&buf), Err(VarintError::Truncated));
        assert_eq!(read_u64(&[]), Err(VarintError::Truncated));
    }

    #[test]
    fn overflow_is_detected() {
        // 11 continuation bytes encode > 64 bits.
        let buf = [0xFFu8; 11];
        assert_eq!(read_u64(&buf), Err(VarintError::Overflow));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn delta_round_trip_sorted() {
        let values: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        let buf = encode_deltas(&values);
        // Sorted with small gaps: ~1 byte per entry plus the length header.
        assert!(buf.len() < values.len() * 2);
        assert_eq!(decode_deltas(&buf).unwrap(), values);
    }

    #[test]
    fn delta_round_trip_unsorted() {
        let values = vec![5usize, 0, 1_000_000, 3, 3, 42];
        let buf = encode_deltas(&values);
        assert_eq!(decode_deltas(&buf).unwrap(), values);
    }

    #[test]
    fn delta_empty() {
        let buf = encode_deltas(&[]);
        assert_eq!(decode_deltas(&buf).unwrap(), Vec::<usize>::new());
    }
}
