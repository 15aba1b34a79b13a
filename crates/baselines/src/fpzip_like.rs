//! FPZIP-architecture baseline: predictive decorrelation + arithmetic-family
//! entropy coding.
//!
//! FPZIP predicts each value with a Lorenzo predictor over the sample's
//! neighborhood, XORs the prediction with the truth, and entropy-codes the
//! position of the leading one while storing the remaining mantissa bits
//! verbatim. The entropy stage here is an adaptive binary range coder with
//! a context tree over the 7-bit leading-zero count, with the significant
//! bits sent as direct (uncoded) bits — the same high/low split FPZIP
//! uses.
//!
//! Like the real tool, the caller declares the array shape: with
//! [`FpzipLike::with_row_len`] the stream is treated as a 2-D array (rows =
//! timesteps, columns = matrix positions) and the 2-D Lorenzo predictor
//! `v[i−1,j] + v[i,j−1] − v[i−1,j−1]` applies — which is how the paper's
//! evaluation feeds Jacobian tensors to FPZIP and why FPZIP lands mid-pack
//! there (it gets the temporal correlation but none of the stamp
//! structure). The default is a 1-D stream (previous-value prediction).

use crate::Compressor;
use masc_bitio::cursor::ByteCursor;
use masc_bitio::varint;
use masc_codec::range::{BitModel, RangeDecoder, RangeEncoder};
use masc_codec::CodecError;

/// The FPZIP-style baseline compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpzipLike {
    /// Row length for 2-D Lorenzo prediction (`0` = 1-D stream).
    row_len: usize,
}

impl FpzipLike {
    /// Creates the compressor in 1-D mode.
    pub fn new() -> Self {
        Self { row_len: 0 }
    }

    /// Declares a 2-D array shape: rows of `row_len` values (e.g. one
    /// Jacobian's non-zeros per timestep) enable the 2-D Lorenzo
    /// predictor.
    pub fn with_row_len(row_len: usize) -> Self {
        Self { row_len }
    }

    /// Lorenzo prediction for element `i` given everything before it.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "every read lands before `i ≤ values.len()`, asserted in debug builds"
    )]
    fn predict(&self, values: &[f64], i: usize) -> u64 {
        // On decode `values` holds exactly the `i` already-reconstructed
        // elements; every read below lands strictly before `i`.
        debug_assert!(i <= values.len(), "prediction context must cover i");
        if self.row_len == 0 || i < self.row_len {
            // 1-D / first row: previous value.
            return if i == 0 { 0 } else { values[i - 1].to_bits() };
        }
        let up = values[i - self.row_len];
        if i.is_multiple_of(self.row_len) {
            // First column: same position in the previous row.
            return up.to_bits();
        }
        let left = values[i - 1];
        let diag = values[i - self.row_len - 1];
        (up + left - diag).to_bits()
    }
}

/// Context count for the 7-bit leading-zero tree.
const LZ_TREE: usize = 127;

/// Upper bound on a stream's claimed value count (see `decompress`).
const MAX_DECODE_VALUES: u64 = 1 << 24;

impl Compressor for FpzipLike {
    fn name(&self) -> &'static str {
        "FpzipLike"
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "encoder side: sized by `values.len()`, a held slice, and the constant `LZ_TREE`"
    )]
    fn compress(&self, values: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 4 + 16);
        varint::write_u64(&mut out, values.len() as u64);
        varint::write_u64(&mut out, self.row_len as u64);
        let mut models = vec![BitModel::new(); LZ_TREE];
        let mut enc = RangeEncoder::new();
        for (i, v) in values.iter().enumerate() {
            let bits = v.to_bits();
            let residual = bits ^ self.predict(values, i);
            let lz = residual.leading_zeros(); // 0..=64
            enc.encode_bits_tree(&mut models, 7, lz.min(64));
            if lz < 64 {
                // Everything after the leading one, plus the one itself is
                // implicit: send the remaining 63−lz bits directly.
                let sig = 63 - lz;
                let tail = residual & !(1u64 << (63 - lz));
                if sig > 32 {
                    enc.encode_direct_bits((tail >> 32) as u32, sig - 32);
                    enc.encode_direct_bits(tail as u32, 32);
                } else {
                    enc.encode_direct_bits(tail as u32, sig);
                }
            }
        }
        out.extend_from_slice(&enc.finish());
        out
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "`count ≤ MAX_DECODE_VALUES`, checked just above; `LZ_TREE` is a constant"
    )]
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        let mut cur = ByteCursor::new(bytes);
        let count = cur.read_varint()?;
        // The range decoder zero-pads past the input tail instead of
        // reporting truncation, so the claimed count is not bounded by the
        // input length; cap it so an adversarial header cannot demand
        // unbounded allocation and decode work.
        if count > MAX_DECODE_VALUES {
            return Err(CodecError::Corrupt("implausible value count"));
        }
        let shape = FpzipLike::with_row_len(cur.read_varint()? as usize);
        let mut models = vec![BitModel::new(); LZ_TREE];
        let mut dec = RangeDecoder::new(cur.rest())?;
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let lz = dec.decode_bits_tree(&mut models, 7)?;
            if lz > 64 {
                return Err(CodecError::Corrupt("leading-zero count out of range"));
            }
            let residual = if lz == 64 {
                0
            } else {
                let sig = 63 - lz;
                let tail = if sig > 32 {
                    let hi = u64::from(dec.decode_direct_bits(sig - 32)?);
                    let lo = u64::from(dec.decode_direct_bits(32)?);
                    (hi << 32) | lo
                } else {
                    u64::from(dec.decode_direct_bits(sig)?)
                };
                (1u64 << (63 - lz)) | tail
            };
            let value = f64::from_bits(shape.predict(&out, i) ^ residual);
            out.push(value);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn round_trip(values: &[f64]) -> usize {
        let c = FpzipLike::new();
        let packed = c.compress(values);
        let out = c.decompress(&packed).unwrap();
        assert_eq!(out.len(), values.len());
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        packed.len()
    }

    #[test]
    fn empty_and_specials() {
        round_trip(&[]);
        round_trip(&[0.0]);
        round_trip(&[f64::NAN, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE]);
    }

    #[test]
    fn constant_stream_is_tiny() {
        let values = vec![3.25e-9; 20_000];
        let packed = round_trip(&values);
        // lz=64 every time, strongly-adapted models: well under a bit/value.
        assert!(packed < 2000, "constant stream packed to {packed} bytes");
    }

    #[test]
    fn smooth_stream_beats_half_size() {
        let values: Vec<f64> = (0..20_000)
            .map(|i| 1.0 + 1e-9 * (i as f64 * 0.001).sin())
            .collect();
        let packed = round_trip(&values);
        assert!(
            packed * 2 < values.len() * 8,
            "smooth stream packed to {packed} of {}",
            values.len() * 8
        );
    }

    #[test]
    fn random_data_overhead_is_bounded() {
        let values: Vec<f64> = (0..5000u64)
            .map(|i| f64::from_bits(i.wrapping_mul(0x2545F4914F6CDD1D) | 1))
            .collect();
        let packed = round_trip(&values);
        assert!(packed < values.len() * 9, "packed {packed}");
    }

    #[test]
    fn two_d_mode_round_trips_and_beats_one_d_on_tensors() {
        // A 40×50 "tensor": rows vary slowly in time, columns wiggle.
        let row = 50usize;
        let values: Vec<f64> = (0..40 * row)
            .map(|i| {
                let (t, j) = (i / row, i % row);
                (1.0 + 0.3 * (j as f64)) * (1.0 + 1e-6 * t as f64)
            })
            .collect();
        let flat = FpzipLike::new().compress(&values);
        let c2 = FpzipLike::with_row_len(row);
        let shaped = c2.compress(&values);
        let out = c2.decompress(&shaped).unwrap();
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(
            shaped.len() < flat.len(),
            "2-D Lorenzo {shaped:?} should beat 1-D {flat:?}",
            shaped = shaped.len(),
            flat = flat.len()
        );
    }

    #[test]
    fn truncated_is_error_or_wrong_but_no_panic() {
        let c = FpzipLike::new();
        let packed = c.compress(&[1.0; 100]);
        // Range-coded tails may decode from padding; just require no panic.
        let _ = c.decompress(&packed[..4]);
        assert!(c.decompress(&[]).is_err());
    }
}
