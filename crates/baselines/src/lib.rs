//! Comparator compressors for the MASC evaluation (paper Table 3).
//!
//! The paper compares against GZIP, FPZIP, NDZIP and SpiceMate. None of
//! those is available as a pure-Rust offline dependency, so this crate
//! re-implements each tool's *core algorithm* from scratch on top of
//! [`masc_codec`]:
//!
//! - [`GzipLike`] — LZSS (32 KiB window) + canonical Huffman, DEFLATE's
//!   architecture;
//! - [`FpzipLike`] — predictive coding (1-D Lorenzo = previous value) with
//!   a context-modeled range coder on the XOR residual's magnitude class,
//!   FPZIP's architecture specialized to 1-D streams;
//! - [`NdzipLike`] — block delta transform + bit-plane transposition +
//!   zero-word suppression, NDZIP's fixed-rate pipeline;
//! - [`SpiceMate`] — an *error-bounded lossy* predictive quantizer with an
//!   entropy-coded quantization stream (the EDA-domain waveform compressor
//!   the paper cites);
//! - [`ChimpLike`] — the Chimp time-series XOR coder the paper cites as
//!   the typical time-series approach.
//!
//! All baselines operate on plain `f64` streams (the non-zero value stream
//! `S_NZ` of paper Table 2): unlike MASC, they have no access to the
//! sparsity pattern or stamp structure — that asymmetry is the paper's
//! point.

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

pub mod chimp;
pub mod fpzip_like;
pub mod gzip_like;
pub mod ndzip_like;
pub mod spicemate;

pub use chimp::ChimpLike;
pub use fpzip_like::FpzipLike;
pub use gzip_like::GzipLike;
pub use ndzip_like::NdzipLike;
pub use spicemate::SpiceMate;

pub use masc_codec::CodecError;

/// A floating-point stream compressor.
///
/// Object-safe so benchmark harnesses can iterate over a
/// `Vec<Box<dyn Compressor>>`.
pub trait Compressor {
    /// Short display name (matches the paper's table rows).
    fn name(&self) -> &'static str;

    /// Compresses a value stream.
    fn compress(&self, values: &[f64]) -> Vec<u8>;

    /// Decompresses a stream produced by [`compress`](Self::compress).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for truncated or corrupt input.
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError>;

    /// Whether decompression reproduces inputs bit-exactly.
    fn is_lossless(&self) -> bool {
        true
    }

    /// Maximum absolute error guaranteed by a lossy compressor (`0.0` for
    /// lossless ones).
    fn max_error(&self) -> f64 {
        0.0
    }
}

/// Every baseline, boxed, for sweep harnesses.
pub fn all_baselines() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(GzipLike::new()),
        Box::new(FpzipLike::new()),
        Box::new(NdzipLike::new()),
        Box::new(SpiceMate::new(1e-6)),
        Box::new(ChimpLike::new()),
    ]
}

/// Helper: bytes of a value stream (`8 × len`).
pub fn raw_bytes(values: &[f64]) -> usize {
    values.len() * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_five() {
        let all = all_baselines();
        let names: Vec<_> = all.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "GzipLike",
                "FpzipLike",
                "NdzipLike",
                "SpiceMate",
                "ChimpLike"
            ]
        );
        assert_eq!(all.iter().filter(|c| !c.is_lossless()).count(), 1);
    }

    #[test]
    fn every_baseline_round_trips_a_smooth_stream() {
        let values: Vec<f64> = (0..5000)
            .map(|i| 1e-3 * (1.0 + 1e-5 * (i as f64 * 0.01).sin()))
            .collect();
        for c in all_baselines() {
            let packed = c.compress(&values);
            let out = c.decompress(&packed).unwrap();
            assert_eq!(out.len(), values.len(), "{}", c.name());
            if c.is_lossless() {
                for (a, b) in values.iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", c.name());
                }
            } else {
                let eb = c.max_error();
                for (a, b) in values.iter().zip(&out) {
                    assert!((a - b).abs() <= eb, "{}: {a} vs {b}", c.name());
                }
            }
        }
    }
}
