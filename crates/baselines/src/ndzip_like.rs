//! NDZIP-architecture baseline: block decorrelation + bit-plane
//! transposition + zero-word suppression.
//!
//! NDZIP splits the input into fixed hypercubes, applies an integer
//! Lorenzo transform, transposes bits within each block so that the mostly
//! -zero high-order planes become whole zero words, and elides those with
//! a bitmap. This re-implementation uses 64-value blocks, a wrapping
//! integer delta as the 1-D Lorenzo transform, the 64×64 bit transposition
//! from [`masc_codec::transform`], and zero-run coding from
//! [`masc_codec::rle`]. Like NDZIP it is built for *throughput*, not
//! maximum ratio — the paper measures it near 1.0–1.1× on Jacobian data.

use crate::Compressor;
use masc_bitio::cursor::ByteCursor;
use masc_bitio::varint;
use masc_codec::{rle, transform, CodecError};

/// The NDZIP-style baseline compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct NdzipLike;

impl NdzipLike {
    /// Creates the compressor.
    pub fn new() -> Self {
        Self
    }
}

impl Compressor for NdzipLike {
    fn name(&self) -> &'static str {
        "NdzipLike"
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "encoder side: sized by `values.len()`, a held slice"
    )]
    fn compress(&self, values: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 8 + 16);
        varint::write_u64(&mut out, values.len() as u64);
        let mut words = transform::to_bits(values);
        // Delta-decorrelate the whole stream (carry across blocks: the
        // first word of each block still deltas against its predecessor).
        transform::delta_previous(&mut words);
        // Transpose full blocks; the ragged tail stays un-transposed.
        for block in words.chunks_exact_mut(transform::BLOCK) {
            transform::transpose_bits(block);
        }
        out.extend_from_slice(&rle::encode_words(&words));
        out
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        let mut cur = ByteCursor::new(bytes);
        let count = cur.read_varint()?;
        let mut words = rle::decode_words(cur.rest())?;
        if words.len() != count as usize {
            return Err(CodecError::Corrupt("word count mismatch"));
        }
        for block in words.chunks_exact_mut(transform::BLOCK) {
            transform::transpose_bits(block);
        }
        transform::undo_delta_previous(&mut words);
        Ok(transform::from_bits(&words))
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn round_trip(values: &[f64]) -> usize {
        let c = NdzipLike::new();
        let packed = c.compress(values);
        let out = c.decompress(&packed).unwrap();
        assert_eq!(out.len(), values.len());
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        packed.len()
    }

    #[test]
    fn empty_small_and_ragged() {
        round_trip(&[]);
        round_trip(&[1.0]);
        round_trip(&vec![2.5; 63]); // below one block
        round_trip(&vec![2.5; 65]); // one block + ragged tail
        round_trip(&[f64::NAN, f64::INFINITY, -0.0]);
    }

    #[test]
    fn constant_stream_collapses() {
        let values = vec![-7.5e3; 64 * 100];
        let packed = round_trip(&values);
        // Deltas all zero after the first → nearly everything elided.
        assert!(packed * 50 < values.len() * 8, "packed {packed}");
    }

    #[test]
    fn linear_ramp_compresses() {
        // Constant bit-pattern deltas in long runs compress via the
        // transposed zero planes.
        let values: Vec<f64> = (0..6400).map(|i| i as f64).collect();
        let packed = round_trip(&values);
        assert!(packed * 2 < values.len() * 8, "packed {packed}");
    }

    #[test]
    fn incompressible_data_bounded_overhead() {
        let values: Vec<f64> = (0..4096u64)
            .map(|i| f64::from_bits(i.wrapping_mul(0x9E3779B97F4A7C15) | 1))
            .collect();
        let packed = round_trip(&values);
        assert!(packed < values.len() * 8 + values.len() / 2 + 64);
    }

    #[test]
    fn truncated_is_error() {
        let c = NdzipLike::new();
        let packed = c.compress(&[1.0, 2.0, 3.0, 4.0]);
        assert!(c.decompress(&packed[..packed.len() - 4]).is_err());
        assert!(c.decompress(&[]).is_err());
    }
}
