//! Canonical Huffman coding over the byte alphabet.
//!
//! Code lengths are limited to [`MAX_CODE_LEN`] bits (package-merge style
//! length limiting via frequency flattening), and only the 256 code lengths
//! are stored in the header — codes are reconstructed canonically on decode,
//! exactly as DEFLATE does.
//!
//! # Examples
//!
//! ```
//! use masc_codec::huffman;
//!
//! # fn main() -> Result<(), masc_codec::CodecError> {
//! let data = vec![7u8; 1000];
//! let packed = huffman::encode(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(huffman::decode(&packed)?, data);
//! # Ok(())
//! # }
//! ```

use crate::CodecError;
use masc_bitio::cursor::ByteCursor;
use masc_bitio::{varint, BitReader, BitWriter};

/// Maximum Huffman code length in bits.
pub const MAX_CODE_LEN: u32 = 15;

/// Computes Huffman code lengths for the given symbol frequencies.
///
/// Returns one length per symbol; zero-frequency symbols get length 0.
/// Lengths are capped at [`MAX_CODE_LEN`] by iteratively flattening the
/// frequency distribution and rebuilding the tree.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let mut freqs = freqs.to_vec();
    loop {
        let lengths = unrestricted_code_lengths(&freqs);
        if lengths.iter().all(|&l| l <= MAX_CODE_LEN) {
            return lengths;
        }
        // Flatten: halving (and clamping at 1) shrinks the dynamic range,
        // which shortens the deepest leaves.
        for f in freqs.iter_mut().filter(|f| **f > 0) {
            *f = (*f / 2).max(1);
        }
    }
}

/// Plain Huffman tree construction producing code lengths (no length cap).
#[expect(
    clippy::disallowed_methods,
    reason = "sized by `freqs.len()`, the caller's held frequency table"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "arena indices are `arena.len() - 1` at push time, and `symbol < freqs.len() = lengths.len()`"
)]
fn unrestricted_code_lengths(freqs: &[u64]) -> Vec<u32> {
    #[derive(Clone, Copy)]
    struct Node {
        // Index of left/right child in the arena, or usize::MAX for leaves.
        left: usize,
        right: usize,
        symbol: usize,
    }

    let mut arena: Vec<Node> = Vec::new();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            arena.push(Node {
                left: usize::MAX,
                right: usize::MAX,
                symbol: sym,
            });
            heap.push(std::cmp::Reverse((f, arena.len() - 1)));
        }
    }
    let mut lengths = vec![0u32; freqs.len()];
    match heap.len() {
        0 => return lengths,
        1 => {
            // A single distinct symbol still needs a 1-bit code.
            if let Some(std::cmp::Reverse((_, idx))) = heap.pop() {
                lengths[arena[idx].symbol] = 1;
            }
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let (Some(std::cmp::Reverse((fa, a))), Some(std::cmp::Reverse((fb, b)))) =
            (heap.pop(), heap.pop())
        else {
            break;
        };
        arena.push(Node {
            left: a,
            right: b,
            symbol: usize::MAX,
        });
        heap.push(std::cmp::Reverse((fa + fb, arena.len() - 1)));
    }
    let Some(std::cmp::Reverse((_, root))) = heap.pop() else {
        return lengths;
    };
    // Iterative DFS assigning depths.
    let mut stack = vec![(root, 0u32)];
    while let Some((idx, depth)) = stack.pop() {
        let node = arena[idx];
        if node.left == usize::MAX {
            lengths[node.symbol] = depth;
        } else {
            stack.push((node.left, depth + 1));
            stack.push((node.right, depth + 1));
        }
    }
    lengths
}

/// Assigns canonical codes from code lengths.
///
/// Symbols are ordered by (length, symbol value); codes are consecutive
/// integers within each length, shifted as length increases.
#[expect(
    clippy::disallowed_methods,
    reason = "`max_len ≤ MAX_CODE_LEN` by the clamp above; `codes` is sized by `lengths.len()`, a held slice"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "every length index is `≤ max_len` and the tables hold `max_len + 2` entries; `sym` enumerates `lengths`"
)]
pub fn canonical_codes(lengths: &[u32]) -> Vec<u64> {
    // Every in-repo caller caps lengths at MAX_CODE_LEN first; clamp here
    // too so hostile lengths fed directly to this pub fn cannot size the
    // per-length tables at up to u32::MAX entries.
    let max_len = lengths.iter().copied().max().unwrap_or(0).min(MAX_CODE_LEN);
    let mut bl_count = vec![0u64; max_len as usize + 1];
    for &l in lengths {
        // Lengths beyond the clamp get no code (they are invalid input).
        if l > 0 && l <= max_len {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u64; max_len as usize + 2];
    let mut code = 0u64;
    for bits in 1..=max_len as usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    let mut codes = vec![0u64; lengths.len()];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 && l <= max_len {
            codes[sym] = next_code[l as usize];
            next_code[l as usize] += 1;
        }
    }
    codes
}

/// A decoding table for canonical Huffman codes.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// `(first_code, first_index, count)` per code length 1..=max.
    per_len: Vec<(u64, usize, u64)>,
    /// Symbols ordered by (length, symbol).
    symbols: Vec<u16>,
}

impl Decoder {
    /// Builds a decoder from per-symbol code lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the lengths do not form a valid
    /// prefix code (oversubscribed Kraft sum).
    #[expect(
        clippy::disallowed_methods,
        reason = "`max_len ≤ MAX_CODE_LEN`, checked on entry"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`s < lengths.len()` by the range; `idx < order.len()` when `count > 0`; `codes` holds `lengths.len()` entries"
    )]
    pub fn from_lengths(lengths: &[u32]) -> Result<Self, CodecError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("huffman code length too long"));
        }
        let mut order: Vec<u16> = (0..lengths.len() as u16)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));
        let codes = canonical_codes(lengths);
        // Kraft inequality check.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum();
        if kraft > 1 << MAX_CODE_LEN {
            return Err(CodecError::Corrupt("oversubscribed huffman code"));
        }
        let mut per_len = Vec::with_capacity(max_len as usize);
        let mut idx = 0usize;
        for bits in 1..=max_len {
            let count = order
                .iter()
                .skip(idx)
                .take_while(|&&s| lengths[s as usize] == bits)
                .count() as u64;
            let first_code = if count > 0 {
                codes[order[idx] as usize]
            } else {
                0
            };
            per_len.push((first_code, idx, count));
            idx += count as usize;
        }
        Ok(Self {
            per_len,
            symbols: order,
        })
    }

    /// Decodes one symbol from the reader.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on stream exhaustion,
    /// [`CodecError::Corrupt`] if no code matches.
    #[expect(
        clippy::indexing_slicing,
        reason = "`code < first_code + count` is tested first, so the index is below `first_index + count ≤ symbols.len()`"
    )]
    pub fn decode_symbol(&self, reader: &mut BitReader<'_>) -> Result<u16, CodecError> {
        let mut code = 0u64;
        for (first_code, first_index, count) in self.per_len.iter().copied() {
            code = (code << 1) | u64::from(reader.read_bit()?);
            if count > 0 && code >= first_code && code < first_code + count {
                return Ok(self.symbols[first_index + (code - first_code) as usize]);
            }
        }
        Err(CodecError::Corrupt("invalid huffman code"))
    }
}

/// Compresses `data` with a one-shot canonical Huffman code.
///
/// Stream layout: varint original length; 256 code lengths packed two per
/// byte (4 bits each, lengths ≤ 15); then the bit-packed payload.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: a constant 136-byte header"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`u8` symbols index 256-entry tables; `chunks(2)` never yields an empty chunk"
)]
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lengths = code_lengths(&freqs);
    let codes = canonical_codes(&lengths);

    let mut header = Vec::with_capacity(8 + 128);
    varint::write_u64(&mut header, data.len() as u64);
    let mut w = BitWriter::with_capacity(data.len() / 2 + 160);
    for chunk in lengths.chunks(2) {
        let hi = chunk[0] as u64;
        let lo = *chunk.get(1).unwrap_or(&0) as u64;
        w.write_bits((hi << 4) | lo, 8);
    }
    for &b in data {
        w.write_bits(codes[b as usize], lengths[b as usize]);
    }
    header.extend_from_slice(&w.into_bytes());
    header
}

/// Decompresses a stream produced by [`encode`].
///
/// # Errors
///
/// Returns [`CodecError`] if the stream is truncated or inconsistent.
#[expect(
    clippy::disallowed_methods,
    reason = "the length table is a constant 256 entries; `orig_len ≤ payload_bits`, checked just above"
)]
pub fn decode(packed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(packed);
    let orig_len = cur.read_varint()?;
    let mut reader = BitReader::new(cur.rest());
    let mut lengths = vec![0u32; 256];
    for [hi, lo] in lengths.as_chunks_mut().0 {
        let byte = reader.read_bits(8)?;
        (*hi, *lo) = ((byte >> 4) as u32, (byte & 0xF) as u32);
    }
    if orig_len == 0 {
        return Ok(Vec::new());
    }
    // Every symbol costs at least one payload bit, so a claimed length
    // beyond the remaining bits cannot be satisfied; reject it before
    // trusting it with an allocation.
    let payload_bits = (cur.remaining().saturating_sub(128) as u64).saturating_mul(8);
    if orig_len > payload_bits {
        return Err(CodecError::Truncated);
    }
    let decoder = Decoder::from_lengths(&lengths)?;
    let mut out = Vec::with_capacity(orig_len as usize);
    for _ in 0..orig_len {
        out.push(decoder.decode_symbol(&mut reader)? as u8);
    }
    Ok(out)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trip() {
        let packed = encode(&[]);
        assert_eq!(decode(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_symbol_round_trip() {
        let data = vec![42u8; 500];
        let packed = encode(&data);
        // 500 symbols at 1 bit each ≈ 63 bytes payload + 129-byte header.
        assert!(packed.len() < 250, "packed {} bytes", packed.len());
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn two_symbols_round_trip() {
        let mut data = vec![0u8; 100];
        data.extend(vec![255u8; 300]);
        let packed = encode(&data);
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn all_bytes_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let packed = encode(&data);
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90 % zeros, 10 % mixed — entropy well below 8 bits/byte.
        let mut data = Vec::new();
        for i in 0..10_000u32 {
            if i % 10 == 0 {
                data.push((i % 251) as u8);
            } else {
                data.push(0);
            }
        }
        let packed = encode(&data);
        assert!(
            packed.len() < data.len() / 2,
            "packed {} of {}",
            packed.len(),
            data.len()
        );
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn lengths_respect_cap() {
        // Exponential frequencies would produce very deep trees uncapped.
        let freqs: Vec<u64> = (0..64u32).map(|i| 1u64 << i.min(62)).collect();
        let lengths = code_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        // Still a valid prefix code.
        Decoder::from_lengths(&lengths).unwrap();
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = [5u64, 9, 12, 13, 16, 45];
        let lengths = code_lengths(&freqs);
        let codes = canonical_codes(&lengths);
        for a in 0..freqs.len() {
            for b in 0..freqs.len() {
                if a == b {
                    continue;
                }
                let (la, lb) = (lengths[a], lengths[b]);
                if la <= lb {
                    // code a must not be a prefix of code b
                    assert_ne!(codes[a], codes[b] >> (lb - la), "{a} prefixes {b}");
                }
            }
        }
    }

    #[test]
    fn truncated_stream_is_error() {
        let data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut packed = encode(&data);
        packed.truncate(packed.len() - 1);
        assert!(decode(&packed).is_err());
    }

    #[test]
    fn corrupt_header_is_error() {
        // Claim a huge length with an empty payload.
        let mut packed = Vec::new();
        varint::write_u64(&mut packed, 1_000_000);
        packed.extend(vec![0u8; 128]); // all-zero lengths: no valid code
        assert!(decode(&packed).is_err());
    }
}
