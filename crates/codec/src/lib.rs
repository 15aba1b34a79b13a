//! General-purpose lossless coders built from scratch.
//!
//! The MASC paper compares its spatiotemporal compressor against
//! general-purpose baselines (GZIP = LZ77 + Huffman) and discusses both
//! dictionary coding (LZ77/LZW) and entropy coding (Huffman, ANS) in its
//! background section. This crate provides from-scratch implementations of
//! those building blocks so the `masc-baselines` crate can assemble faithful
//! comparator compressors without any third-party compression dependency:
//!
//! - [`huffman`] — canonical Huffman coding over byte alphabets.
//! - [`rans`] — range asymmetric numeral systems (rANS), order-0.
//! - [`range`] — an adaptive binary range coder (arithmetic-coding family).
//! - [`lzss`] — LZ77-family dictionary compression with greedy hash-chain
//!   matching.
//! - [`rle`] — zero-run-length coding for sparse bit-plane data.
//! - [`transform`] — delta / XOR decorrelation transforms.
//!
//! # Examples
//!
//! ```
//! use masc_codec::huffman;
//!
//! # fn main() -> Result<(), masc_codec::CodecError> {
//! let data = b"abracadabra abracadabra";
//! let packed = huffman::encode(data);
//! assert_eq!(huffman::decode(&packed)?, data);
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

pub mod huffman;
pub mod lzss;
pub mod range;
pub mod rans;
pub mod rle;
pub mod transform;

use core::fmt;

/// Error produced when decoding a corrupt or truncated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before decoding finished.
    Truncated,
    /// The stream contents are inconsistent (bad header, invalid symbol, …).
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::Corrupt(what) => write!(f, "compressed stream corrupt: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<masc_bitio::BitReadError> for CodecError {
    fn from(_: masc_bitio::BitReadError) -> Self {
        CodecError::Truncated
    }
}

impl From<masc_bitio::varint::VarintError> for CodecError {
    fn from(e: masc_bitio::varint::VarintError) -> Self {
        match e {
            masc_bitio::varint::VarintError::Truncated => CodecError::Truncated,
            masc_bitio::varint::VarintError::Overflow => CodecError::Corrupt("varint overflow"),
        }
    }
}
