//! GZIP-architecture baseline: LZSS dictionary coding + canonical Huffman.
//!
//! DEFLATE's two stages over the raw little-endian bytes of the value
//! stream. Token serialization: groups of 8 tokens share a control byte
//! (bit set = back-reference), literals are 1 byte, matches are 3 bytes
//! (15-bit distance, 8-bit length − 3); the serialized token stream is then
//! Huffman-coded as a whole.

use crate::Compressor;
use masc_bitio::cursor::ByteCursor;
use masc_bitio::varint;
use masc_codec::lzss::{self, Token};
use masc_codec::{huffman, CodecError};

/// The GZIP-style baseline compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct GzipLike;

impl GzipLike {
    /// Creates the compressor.
    pub fn new() -> Self {
        Self
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: sized by `tokens.len()`, a held slice"
)]
fn serialize_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    varint::write_u64(&mut out, tokens.len() as u64);
    for group in tokens.chunks(8) {
        let mut control = 0u8;
        for (i, t) in group.iter().enumerate() {
            if matches!(t, Token::Match { .. }) {
                control |= 1 << i;
            }
        }
        out.push(control);
        for t in group {
            match *t {
                Token::Literal(b) => out.push(b),
                Token::Match { dist, len } => {
                    debug_assert!(dist <= 1 << 15);
                    debug_assert!((3..=258).contains(&len));
                    out.push((dist & 0xFF) as u8);
                    out.push((dist >> 8) as u8);
                    out.push((len - 3) as u8);
                }
            }
        }
    }
    out
}

#[expect(
    clippy::disallowed_methods,
    reason = "`count ≤ 8 × bytes.len()`, checked just above"
)]
fn deserialize_tokens(bytes: &[u8]) -> Result<Vec<Token>, CodecError> {
    let mut cur = ByteCursor::new(bytes);
    let count = cur.read_varint()?;
    // Eight tokens cost at least nine serialized bytes (control byte plus
    // one byte each), so a claimed count beyond eight tokens per input byte
    // is truncated garbage; reject it before trusting it with an
    // allocation.
    if count > (bytes.len() as u64).saturating_mul(8) {
        return Err(CodecError::Truncated);
    }
    let mut tokens = Vec::with_capacity(count as usize);
    while (tokens.len() as u64) < count {
        let control = cur.read_u8()?;
        let in_group = ((count - tokens.len() as u64) as usize).min(8);
        for i in 0..in_group {
            if control & (1 << i) != 0 {
                let [lo, hi, len] = cur.read_array()?;
                let dist = u32::from(lo) | (u32::from(hi) << 8);
                let len = u32::from(len) + 3;
                tokens.push(Token::Match { dist, len });
            } else {
                tokens.push(Token::Literal(cur.read_u8()?));
            }
        }
    }
    Ok(tokens)
}

impl Compressor for GzipLike {
    fn name(&self) -> &'static str {
        "GzipLike"
    }

    fn compress(&self, values: &[f64]) -> Vec<u8> {
        let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let tokens = lzss::compress(&raw);
        huffman::encode(&serialize_tokens(&tokens))
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        let serialized = huffman::decode(bytes)?;
        let tokens = deserialize_tokens(&serialized)?;
        let raw = lzss::decompress(&tokens)?;
        if raw.len() % 8 != 0 {
            return Err(CodecError::Corrupt("byte count not a multiple of 8"));
        }
        Ok(raw
            .chunks_exact(8)
            // chunks_exact yields exactly 8 bytes; the default arm is dead.
            .map(|c| f64::from_le_bytes(c.try_into().unwrap_or_default()))
            .collect())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn round_trip(values: &[f64]) -> usize {
        let c = GzipLike::new();
        let packed = c.compress(values);
        let out = c.decompress(&packed).unwrap();
        assert_eq!(out.len(), values.len());
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        packed.len()
    }

    #[test]
    fn empty_and_single() {
        round_trip(&[]);
        round_trip(&[42.0]);
        round_trip(&[f64::NAN, f64::INFINITY, -0.0]);
    }

    #[test]
    fn repetitive_data_compresses_strongly() {
        let values = vec![1.2345e-6; 10_000];
        let packed = round_trip(&values);
        assert!(
            packed * 20 < values.len() * 8,
            "constant stream should compress > 20x, got {packed} bytes"
        );
    }

    #[test]
    fn periodic_pattern_uses_dictionary() {
        // A repeating 16-value motif: LZSS should find long matches.
        let motif: Vec<f64> = (0..16).map(|i| (i as f64) * 0.37 - 2.0).collect();
        let values: Vec<f64> = motif.iter().cycle().take(8000).copied().collect();
        let packed = round_trip(&values);
        assert!(packed * 10 < values.len() * 8, "got {packed} bytes");
    }

    #[test]
    fn random_like_data_does_not_explode() {
        let values: Vec<f64> = (0..2000u64)
            .map(|i| f64::from_bits(i.wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        let packed = round_trip(&values);
        // At worst a few percent overhead.
        assert!(packed < values.len() * 8 + values.len() * 8 / 4 + 1024);
    }

    #[test]
    fn truncated_is_error() {
        let c = GzipLike::new();
        let packed = c.compress(&[1.0, 2.0, 3.0]);
        assert!(c.decompress(&packed[..packed.len() / 2]).is_err());
    }

    #[test]
    fn token_serialization_round_trips() {
        let tokens = vec![
            Token::Literal(7),
            Token::Match { dist: 1, len: 3 },
            Token::Literal(0),
            Token::Match {
                dist: 32768,
                len: 258,
            },
            Token::Literal(255),
            Token::Literal(1),
            Token::Match { dist: 300, len: 17 },
            Token::Literal(2),
            Token::Literal(3), // crosses a control-byte boundary
        ];
        let bytes = serialize_tokens(&tokens);
        assert_eq!(deserialize_tokens(&bytes).unwrap(), tokens);
    }
}
