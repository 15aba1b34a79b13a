//! SpiceMate-style baseline: error-bounded *lossy* waveform compression
//! from the EDA domain.
//!
//! SpiceMate (Li & Yu, TCAD'21) compresses transient waveforms with an
//! accuracy guarantee. This re-implementation captures that contract with
//! a predictive error-bounded quantizer (the SZ family's core loop): each
//! value is predicted from the previously *reconstructed* value, the
//! prediction error is quantized to `2·eb` bins, and bin indices are
//! entropy-coded with rANS; unpredictable values fall back to exact bits.
//! Decompression reproduces every value within the absolute error bound.
//!
//! The paper's motivation section notes exactly why this family is
//! unsuitable for Jacobian storage: lossy reconstruction feeds cumulative
//! errors back into the adjoint integration — hence MASC's insistence on
//! lossless compression.

use crate::Compressor;
use masc_bitio::cursor::{self, ByteCursor};
use masc_bitio::varint;
use masc_codec::{rans, CodecError};

/// Quantization codes reserved: 0 = exact fallback; bins are offset by
/// `BIAS` so small signed indices map to small codes.
const BIAS: i64 = 1 << 20;

/// The SpiceMate-style lossy compressor.
#[derive(Debug, Clone, Copy)]
pub struct SpiceMate {
    /// Absolute error bound.
    error_bound: f64,
}

impl SpiceMate {
    /// Creates a compressor with the given absolute error bound.
    ///
    /// # Panics
    ///
    /// Panics if `error_bound <= 0` or is not finite.
    pub fn new(error_bound: f64) -> Self {
        assert!(
            error_bound > 0.0 && error_bound.is_finite(),
            "error bound must be positive and finite"
        );
        Self { error_bound }
    }

    /// The configured error bound.
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }
}

impl Compressor for SpiceMate {
    fn name(&self) -> &'static str {
        "SpiceMate"
    }

    fn is_lossless(&self) -> bool {
        false
    }

    fn max_error(&self) -> f64 {
        self.error_bound
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "encoder side: sized by `values.len()` and the held code and exact buffers"
    )]
    fn compress(&self, values: &[f64]) -> Vec<u8> {
        let eb = self.error_bound;
        // Quantization-code stream (varint-packed) + exact-value bytes.
        let mut codes = Vec::with_capacity(values.len() * 2);
        let mut exact = Vec::new();
        let mut prev_recon = 0.0f64;
        for &v in values {
            let err = v - prev_recon;
            let bin = (err / (2.0 * eb)).round();
            let recon = prev_recon + bin * 2.0 * eb;
            let quantizable = bin.is_finite()
                && bin.abs() < (BIAS - 1) as f64
                && (v - recon).abs() <= eb
                && recon.is_finite();
            if quantizable {
                let code = (bin as i64) + BIAS;
                debug_assert!(code > 0);
                varint::write_u64(&mut codes, code as u64);
                prev_recon = recon;
            } else {
                varint::write_u64(&mut codes, 0);
                exact.extend_from_slice(&v.to_le_bytes());
                prev_recon = v;
            }
        }
        let packed_codes = rans::encode(&codes);
        let mut out = Vec::with_capacity(packed_codes.len() + exact.len() + 24);
        varint::write_u64(&mut out, values.len() as u64);
        varint::write_u64(&mut out, self.error_bound.to_bits());
        cursor::write_prefixed(&mut out, &packed_codes);
        out.extend_from_slice(&exact);
        out
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "`count ≤ codes.len()`, checked just above"
    )]
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        let mut cur = ByteCursor::new(bytes);
        let count = cur.read_varint()?;
        let eb = f64::from_bits(cur.read_varint()?);
        if !(eb > 0.0 && eb.is_finite()) {
            return Err(CodecError::Corrupt("bad error bound"));
        }
        let codes = rans::decode(cur.read_prefixed()?)?;
        // Every value consumes at least one code byte, so a claimed count
        // beyond the decoded code stream cannot be satisfied; reject it
        // before trusting it with an allocation.
        if count > codes.len() as u64 {
            return Err(CodecError::Truncated);
        }
        let mut out = Vec::with_capacity(count as usize);
        let mut prev = 0.0f64;
        let mut code_cur = ByteCursor::new(&codes);
        for _ in 0..count {
            let code = code_cur.read_varint()?;
            if code == 0 {
                // The exact values follow the code stream.
                prev = f64::from_le_bytes(cur.read_array()?);
            } else {
                let bin = code as i64 - BIAS;
                prev += (bin as f64) * 2.0 * eb;
            }
            out.push(prev);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn check_bound(values: &[f64], eb: f64) -> usize {
        let c = SpiceMate::new(eb);
        let packed = c.compress(values);
        let out = c.decompress(&packed).unwrap();
        assert_eq!(out.len(), values.len());
        for (i, (a, b)) in values.iter().zip(&out).enumerate() {
            if a.is_finite() {
                assert!(
                    (a - b).abs() <= eb * (1.0 + 1e-12),
                    "value {i}: {a} vs {b} exceeds bound {eb}"
                );
            }
        }
        packed.len()
    }

    #[test]
    fn error_bound_honored_on_smooth_waveform() {
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64 * 1e-3).sin() * 2.5).collect();
        for eb in [1e-3, 1e-6, 1e-9] {
            check_bound(&values, eb);
        }
    }

    #[test]
    fn loose_bound_compresses_hard() {
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64 * 1e-3).sin() * 2.5).collect();
        let loose = check_bound(&values, 1e-2);
        let tight = check_bound(&values, 1e-10);
        assert!(loose < tight, "loose {loose} should beat tight {tight}");
        assert!(loose * 4 < values.len() * 8);
    }

    #[test]
    fn jumps_fall_back_to_exact() {
        let mut values = vec![0.0; 100];
        values.extend([1e30, -1e30, 1e-30]);
        values.extend(vec![5.0; 100]);
        check_bound(&values, 1e-6);
    }

    #[test]
    fn non_finite_values_pass_through() {
        let values = [1.0, f64::INFINITY, 2.0, f64::NAN, 3.0];
        let c = SpiceMate::new(1e-6);
        let out = c.decompress(&c.compress(&values)).unwrap();
        assert!(out[1].is_infinite());
        assert!(out[3].is_nan());
        assert!((out[4] - 3.0).abs() <= 1e-6);
    }

    #[test]
    fn empty_stream() {
        check_bound(&[], 1e-6);
    }

    #[test]
    fn invalid_bound_panics() {
        assert!(std::panic::catch_unwind(|| SpiceMate::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| SpiceMate::new(-1.0)).is_err());
        assert!(std::panic::catch_unwind(|| SpiceMate::new(f64::NAN)).is_err());
    }

    #[test]
    fn truncated_is_error() {
        let c = SpiceMate::new(1e-6);
        let packed = c.compress(&[1.0, 1e40, 3.0]);
        assert!(c.decompress(&packed[..packed.len() - 4]).is_err());
    }

    #[test]
    fn reports_lossy_contract() {
        let c = SpiceMate::new(1e-4);
        assert!(!c.is_lossless());
        assert_eq!(c.max_error(), 1e-4);
        assert_eq!(c.error_bound(), 1e-4);
    }
}
