//! MASC: lossless spatiotemporal compression of Jacobian tensors.
//!
//! This crate is the paper's primary contribution — a lossless
//! floating-point compressor specialized for the sparse Jacobian matrices
//! a SPICE transient simulation produces at every timestep:
//!
//! - **Shared indices** (paper §4.1): the CSR index arrays live once in a
//!   shared [`masc_sparse::Pattern`]; only float values are compressed.
//! - **Spatiotemporal prediction** (paper §4.2, [`predictor`]): each value
//!   is predicted from the temporally adjacent matrix, from its MNA
//!   *matrix-stamp* partners (transpose element, negated diagonals — the
//!   sign-bit inversion), or from the last value in its row; the best fit
//!   is recorded in 1–2 bits, or predicted outright by a per-matrix
//!   [`markov`] model ("MASC w/ Markov") that eliminates the selection
//!   bits.
//! - **Residual coding** (paper §4.3, Fig. 5a, [`residual`]): XOR residuals
//!   with a 1-bit all-zero case, 3-bit 8-granular leading-zero classes, and
//!   shared significant-bit windows.
//! - **Chunked matrix codec** (paper Algorithm 1, [`matrix`]): one wire
//!   format, the era-2 chunked stream, whose chunks are encoded and
//!   decoded one after another by the caller.
//! - **Tensor streaming** (paper Algorithm 2, [`tensor`]): matrices are
//!   compressed one step late against their successor during the forward
//!   sweep and decompressed newest-first during the adjoint reverse sweep.
//!
//! # Examples
//!
//! ```
//! use masc_compress::{MascConfig, TensorCompressor};
//! use masc_sparse::TripletMatrix;
//!
//! # fn main() -> Result<(), masc_compress::CompressError> {
//! let mut t = TripletMatrix::new(2, 2);
//! t.add(0, 0, 1.0);
//! t.add(0, 1, -1.0);
//! t.add(1, 0, -1.0);
//! t.add(1, 1, 1.0);
//! let pattern = t.to_csr().pattern().clone();
//!
//! let mut tensor = TensorCompressor::new(pattern, MascConfig::default());
//! tensor.push(&[1.0, -1.0, -1.0, 1.0]);
//! tensor.push(&[1.1, -1.1, -1.1, 1.1]);
//! let compressed = tensor.finish();
//!
//! let mut backward = compressed.into_backward();
//! let (step, newest) = backward.next_matrix()?.expect("two matrices stored");
//! assert_eq!(step, 1);
//! assert_eq!(newest, vec![1.1, -1.1, -1.1, 1.1]);
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

pub mod config;
pub mod lanes;
pub mod markov;
pub mod matrix;
pub mod predictor;
pub mod residual;
pub mod stats;
pub mod tensor;

#[cfg(feature = "mutation-hooks")]
pub mod mutation;

pub use config::MascConfig;
pub use matrix::{
    compress_matrix, compress_matrix_cross, compress_matrix_seeded, decompress_matrix,
};
pub use predictor::{Region, StampMaps};
pub use stats::{CompressStats, ModelClass};
pub use tensor::{BackwardDecompressor, CompressedTensor, TensorCompressor};

use crate::residual::ResidualError;
use core::fmt;

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The compressed stream ended early.
    Truncated,
    /// The stream is internally inconsistent.
    Corrupt(&'static str),
    /// The embedded checksum did not match the decoded values.
    ChecksumMismatch,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed matrix truncated"),
            CompressError::Corrupt(what) => write!(f, "compressed matrix corrupt: {what}"),
            CompressError::ChecksumMismatch => {
                write!(f, "decoded values fail the integrity checksum")
            }
        }
    }
}

impl std::error::Error for CompressError {}

impl From<masc_bitio::BitReadError> for CompressError {
    fn from(_: masc_bitio::BitReadError) -> Self {
        CompressError::Truncated
    }
}

impl From<masc_bitio::varint::VarintError> for CompressError {
    fn from(e: masc_bitio::varint::VarintError) -> Self {
        match e {
            masc_bitio::varint::VarintError::Truncated => CompressError::Truncated,
            masc_bitio::varint::VarintError::Overflow => CompressError::Corrupt("varint overflow"),
        }
    }
}

impl From<ResidualError> for CompressError {
    fn from(e: ResidualError) -> Self {
        match e {
            ResidualError::Truncated(_) => CompressError::Truncated,
            ResidualError::OrphanSharedWindow { .. } => {
                CompressError::Corrupt("orphan shared-window flag")
            }
            ResidualError::ImpossibleWindow { .. } => {
                CompressError::Corrupt("residual window wider than 64 bits")
            }
        }
    }
}
