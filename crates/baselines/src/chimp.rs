//! Chimp-style time-series baseline (VLDB'22, cited by the paper as the
//! state of the art in time-series float compression).
//!
//! XOR against the previous value, then a 2-bit control code:
//!
//! ```text
//! 00  residual == 0
//! 01  reuse the previous (lz, sig) window; write sig bits
//! 10  new window: 3-bit lz class + 6-bit significant length − 1 + bits
//! 11  raw 64-bit residual (escape for incompressible values)
//! ```
//!
//! Close cousin of MASC's residual stage — but with only the temporal
//! predictor and no stamp/spatial information, which is exactly the gap
//! the paper's evaluation quantifies.

use crate::Compressor;
use masc_bitio::cursor::ByteCursor;
use masc_bitio::{varint, BitReader, BitWriter};
use masc_codec::CodecError;

/// The Chimp-style baseline compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChimpLike;

impl ChimpLike {
    /// Creates the compressor.
    pub fn new() -> Self {
        Self
    }
}

impl Compressor for ChimpLike {
    fn name(&self) -> &'static str {
        "ChimpLike"
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "encoder side: sized by `values.len()`, a held slice"
    )]
    fn compress(&self, values: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 4 + 8);
        varint::write_u64(&mut out, values.len() as u64);
        let mut w = BitWriter::with_capacity(values.len() * 4);
        let mut prev = 0u64;
        let mut window: Option<(u32, u32)> = None; // (start, len)
        for v in values {
            let bits = v.to_bits();
            let residual = bits ^ prev;
            prev = bits;
            if residual == 0 {
                w.write_bits(0b00, 2);
                continue;
            }
            let lz = residual.leading_zeros();
            let tz = residual.trailing_zeros();
            if let Some((start, len)) = window {
                // Fits inside the previous window?
                if tz >= start && 64 - lz <= start + len {
                    w.write_bits(0b01, 2);
                    w.write_bits(residual >> start, len);
                    continue;
                }
            }
            let class = (lz / 8).min(7);
            let eff_lz = class * 8;
            let sig_len = 64 - eff_lz - tz;
            if sig_len >= 58 {
                // Escape: the window encoding would cost more than raw.
                w.write_bits(0b11, 2);
                w.write_u64(residual);
                window = None;
            } else {
                w.write_bits(0b10, 2);
                w.write_bits(u64::from(class), 3);
                w.write_bits(u64::from(sig_len - 1), 6);
                w.write_bits(residual >> tz, sig_len);
                window = Some((tz, sig_len));
            }
        }
        out.extend_from_slice(&w.into_bytes());
        out
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "`count ≤ 4 × remaining bytes`, checked just above"
    )]
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        let mut cur = ByteCursor::new(bytes);
        let count = cur.read_varint()?;
        // Every value costs at least its 2 control bits, so a claimed count
        // beyond the remaining payload cannot be satisfied; reject it
        // before trusting it with an allocation.
        if count > (cur.remaining() as u64).saturating_mul(4) {
            return Err(CodecError::Truncated);
        }
        let mut r = BitReader::new(cur.rest());
        let mut out = Vec::with_capacity(count as usize);
        let mut prev = 0u64;
        let mut window: Option<(u32, u32)> = None;
        for _ in 0..count {
            let control = r.read_bits(2)?;
            let residual = match control {
                0b00 => 0,
                0b01 => {
                    let (start, len) =
                        window.ok_or(CodecError::Corrupt("window reuse with no window"))?;
                    r.read_bits(len)? << start
                }
                0b10 => {
                    let class = r.read_bits(3)? as u32;
                    let sig_len = r.read_bits(6)? as u32 + 1;
                    let eff_lz = class * 8;
                    if eff_lz + sig_len > 64 {
                        return Err(CodecError::Corrupt("window exceeds 64 bits"));
                    }
                    let start = 64 - eff_lz - sig_len;
                    window = Some((start, sig_len));
                    r.read_bits(sig_len)? << start
                }
                _ => {
                    window = None;
                    r.read_u64()?
                }
            };
            prev ^= residual;
            out.push(f64::from_bits(prev));
        }
        Ok(out)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn round_trip(values: &[f64]) -> usize {
        let c = ChimpLike::new();
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
        round_trip(&[f64::NAN, f64::INFINITY, -0.0, 1e-308]);
    }

    #[test]
    fn constant_stream_is_quarter_bit_per_value() {
        let values = vec![9.81; 40_000];
        let packed = round_trip(&values);
        // 2 bits/value + header.
        assert!(packed <= 40_000 / 4 + 16, "packed {packed}");
    }

    #[test]
    fn stepwise_sensor_data_compresses() {
        // Values that hold for several samples (typical sampled sensor/
        // waveform data): most residuals are zero.
        let values: Vec<f64> = (0..10_000)
            .map(|i| 20.0 + 0.01 * ((i / 10) as f64 * 0.01).sin())
            .collect();
        let packed = round_trip(&values);
        assert!(packed * 4 < values.len() * 8, "packed {packed}");
    }

    #[test]
    fn incompressible_uses_escape_without_blowup() {
        let values: Vec<f64> = (0..4000u64)
            .map(|i| f64::from_bits(i.wrapping_mul(0xD1342543DE82EF95) | 1))
            .collect();
        let packed = round_trip(&values);
        // ≤ 66 bits per value + header.
        assert!(packed <= values.len() * 9 + 16, "packed {packed}");
    }

    #[test]
    fn truncated_is_error() {
        let c = ChimpLike::new();
        let packed = c.compress(&vec![1.5; 100]);
        assert!(c.decompress(&packed[..1]).is_err());
        assert!(c.decompress(&[]).is_err());
    }
}
