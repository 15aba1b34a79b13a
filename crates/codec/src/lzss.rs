//! LZSS dictionary compression (LZ77 family) with hash-chain matching.
//!
//! This is the dictionary half of the GZIP-style baseline: a 32 KiB sliding
//! window, minimum match length 3, maximum 258 (DEFLATE's limits), greedy
//! parsing with a bounded hash-chain search. Tokens are emitted as a flat
//! token stream; the `masc-baselines` GZIP-style compressor entropy-codes
//! that stream with Huffman, mirroring DEFLATE's architecture.
//!
//! # Examples
//!
//! ```
//! use masc_codec::lzss;
//!
//! # fn main() -> Result<(), masc_codec::CodecError> {
//! let data = b"a long string with a long string repeated".to_vec();
//! let tokens = lzss::compress(&data);
//! assert_eq!(lzss::decompress(&tokens)?, data);
//! # Ok(())
//! # }
//! ```

use crate::CodecError;

/// Sliding-window size (32 KiB, as in DEFLATE).
pub const WINDOW_SIZE: usize = 1 << 15;
/// Minimum back-reference length worth emitting.
pub const MIN_MATCH: usize = 3;
/// Maximum back-reference length.
pub const MAX_MATCH: usize = 258;
/// Hash-chain search depth (quality/speed trade-off).
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One LZSS token: either a literal byte or a back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte copied verbatim.
    Literal(u8),
    /// Copy `len` bytes starting `dist` bytes back from the current output
    /// position. `1 <= dist <= WINDOW_SIZE`, `MIN_MATCH <= len <= MAX_MATCH`.
    Match {
        /// Backwards distance in bytes.
        dist: u32,
        /// Match length in bytes.
        len: u32,
    },
}

#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers hold `pos + MIN_MATCH ≤ data.len()`, asserted in debug builds"
)]
fn hash3(data: &[u8], pos: usize) -> usize {
    debug_assert!(pos + 2 < data.len(), "hash3 reads 3 bytes at pos");
    let h = u32::from(data[pos])
        .wrapping_mul(506_832_829)
        .wrapping_add(u32::from(data[pos + 1]).wrapping_mul(2_654_435_761))
        .wrapping_add(u32::from(data[pos + 2]).wrapping_mul(40_503));
    (h >> (32 - HASH_BITS)) as usize & (HASH_SIZE - 1)
}

/// Greedy LZSS parse of `data` into a token stream.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: sized by `data.len()`, a held slice, and the constants `HASH_SIZE`, `WINDOW_SIZE`"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`pos < data.len()`; match probes stay below `pos + limit ≤ data.len()`; `hash3` masks to `HASH_SIZE`; `% WINDOW_SIZE` bounds `prev`"
)]
pub fn compress(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 4 + 16);
    if data.len() < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    // head[h] = most recent position with hash h; prev[i % WINDOW] = chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW_SIZE];
    let mut pos = 0usize;
    while pos < data.len() {
        if pos + MIN_MATCH > data.len() {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let h = hash3(data, pos);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut candidate = head[h];
        let mut chain = 0usize;
        let limit = (data.len() - pos).min(MAX_MATCH);
        while candidate != usize::MAX && chain < MAX_CHAIN {
            let dist = pos - candidate;
            if dist > WINDOW_SIZE {
                break;
            }
            // Quick reject using the current best's tail byte.
            if best_len == 0 || data[candidate + best_len] == data[pos + best_len] {
                let mut l = 0usize;
                while l < limit && data[candidate + l] == data[pos + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == limit {
                        break;
                    }
                }
            }
            candidate = prev[candidate % WINDOW_SIZE];
            chain += 1;
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                dist: best_dist as u32,
                len: best_len as u32,
            });
            // Insert every covered position into the hash chains.
            let end = (pos + best_len).min(data.len() - MIN_MATCH + 1);
            for p in pos..end {
                let h = hash3(data, p);
                prev[p % WINDOW_SIZE] = head[h];
                head[h] = p;
            }
            pos += best_len;
        } else {
            tokens.push(Token::Literal(data[pos]));
            prev[pos % WINDOW_SIZE] = head[h];
            head[h] = pos;
            pos += 1;
        }
    }
    tokens
}

/// Expands a token stream back into bytes.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] if a match refers before the start of the
/// output or has an out-of-range distance/length.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by `tokens.len()`, a held slice"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`dist ≤ out.len()` is checked and every copied byte is pushed, so `start + i < out.len()`"
)]
pub fn decompress(tokens: &[Token]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { dist, len } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > WINDOW_SIZE || dist > out.len() {
                    return Err(CodecError::Corrupt("lzss distance out of range"));
                }
                if !(MIN_MATCH..=MAX_MATCH).contains(&len) {
                    return Err(CodecError::Corrupt("lzss length out of range"));
                }
                // Byte-by-byte copy: overlapping matches (dist < len) must
                // replicate already-written bytes, RLE-style.
                let start = out.len() - dist;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<Token> {
        let tokens = compress(data);
        assert_eq!(decompress(&tokens).unwrap(), data, "round trip failed");
        tokens
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn no_repetition_all_literals() {
        let data: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
        let tokens = round_trip(&data);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
    }

    #[test]
    fn repeated_text_finds_matches() {
        let data = b"the quick brown fox. the quick brown fox. the quick brown fox.".to_vec();
        let tokens = round_trip(&data);
        let matched: u32 = tokens
            .iter()
            .filter_map(|t| match t {
                Token::Match { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        // The two repeats (2 × 21 bytes) should be covered by matches.
        assert!(matched >= 40, "expected back-references, got {tokens:?}");
    }

    #[test]
    fn run_of_identical_bytes_overlapping_match() {
        let data = vec![0xAAu8; 10_000];
        let tokens = round_trip(&data);
        // A run compresses to a literal plus overlapping matches.
        assert!(
            tokens.len() < 60,
            "runs should compress, got {} tokens",
            tokens.len()
        );
    }

    #[test]
    fn long_distance_within_window() {
        let mut data = b"unique-prefix-block".to_vec();
        data.extend(vec![b'x'; WINDOW_SIZE - 100]);
        data.extend_from_slice(b"unique-prefix-block");
        round_trip(&data);
    }

    #[test]
    fn repeats_beyond_window_are_not_matched_wrongly() {
        let mut data = b"needle".to_vec();
        data.extend((0..WINDOW_SIZE + 500).map(|i| (i % 251) as u8));
        data.extend_from_slice(b"needle");
        round_trip(&data);
    }

    #[test]
    fn max_match_cap_respected() {
        let data = vec![7u8; MAX_MATCH * 5];
        let tokens = compress(&data);
        for t in &tokens {
            if let Token::Match { len, .. } = t {
                assert!(*len as usize <= MAX_MATCH);
            }
        }
        assert_eq!(decompress(&tokens).unwrap(), data);
    }

    #[test]
    fn corrupt_distance_rejected() {
        let tokens = [Token::Match { dist: 5, len: 4 }];
        assert!(decompress(&tokens).is_err());
        let tokens = [Token::Literal(1), Token::Match { dist: 0, len: 4 }];
        assert!(decompress(&tokens).is_err());
    }

    #[test]
    fn corrupt_length_rejected() {
        let tokens = [
            Token::Literal(1),
            Token::Literal(2),
            Token::Match { dist: 1, len: 2 },
        ];
        assert!(decompress(&tokens).is_err());
        let tokens = [
            Token::Literal(1),
            Token::Match {
                dist: 1,
                len: MAX_MATCH as u32 + 1,
            },
        ];
        assert!(decompress(&tokens).is_err());
    }

    #[test]
    fn float_like_binary_data_round_trips() {
        // Slowly-varying doubles, like a Jacobian value stream.
        let mut data = Vec::new();
        let mut x = 1.0f64;
        for _ in 0..4000 {
            x += 1e-9;
            data.extend_from_slice(&x.to_le_bytes());
        }
        round_trip(&data);
    }
}
