//! Sparse linear-algebra substrate for the MASC stack.
//!
//! Circuit simulation via Modified Nodal Analysis produces a sequence of
//! sparse Jacobian matrices that all share one sparsity pattern (the union
//! of all device stamps, fixed after netlist elaboration). This crate models
//! that directly:
//!
//! - [`Pattern`] — an immutable, shareable CSR sparsity pattern. This *is*
//!   the paper's "shared indices" object: one allocation of `row_ptr` /
//!   `col_idx` serves every timestep's matrix, and the stamp-partner maps
//!   (transpose map, diagonal map) that the spatiotemporal predictor needs
//!   are precomputed here once.
//! - [`CsrMatrix`] — numeric values over an `Arc<Pattern>`.
//! - [`TripletMatrix`] — a COO assembly buffer for stamping.
//! - [`lu`] — sparse LU factorization (Gilbert–Peierls, partial pivoting)
//!   with forward and **transpose** solves; the adjoint pass is built on
//!   `solve_transpose`.
//! - [`dense`] — small dense matrices used as reference implementations in
//!   tests and for tiny systems.
//! - [`amd`] — the approximate-minimum-degree column ordering the LU uses
//!   to keep fill low.
//!
//! # Examples
//!
//! ```
//! use masc_sparse::TripletMatrix;
//!
//! let mut t = TripletMatrix::new(2, 2);
//! t.add(0, 0, 2.0);
//! t.add(0, 1, -1.0);
//! t.add(1, 0, -1.0);
//! t.add(1, 1, 2.0);
//! let m = t.to_csr();
//! assert_eq!(m.nnz(), 4);
//! let y = m.mul_vec(&[1.0, 1.0]);
//! assert_eq!(y, vec![1.0, 1.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amd;
pub mod csr;
pub mod dense;
pub mod lu;
pub mod pattern;
pub mod triplet;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use lu::{LuError, LuFactors, LuWorkspace, SymbolicLu};
pub use pattern::Pattern;
pub use triplet::TripletMatrix;

use core::fmt;

/// Errors produced by sparse-matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A row or column index was outside the matrix dimensions.
    IndexOutOfBounds {
        /// Offending row.
        row: usize,
        /// Offending column.
        col: usize,
        /// Number of matrix rows.
        rows: usize,
        /// Number of matrix columns.
        cols: usize,
    },
    /// Two operands had incompatible shapes or patterns.
    ShapeMismatch(&'static str),
    /// A serialized pattern failed validation.
    InvalidPattern(&'static str),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {rows}x{cols} matrix"
            ),
            SparseError::ShapeMismatch(what) => write!(f, "shape mismatch: {what}"),
            SparseError::InvalidPattern(what) => write!(f, "invalid pattern: {what}"),
        }
    }
}

impl std::error::Error for SparseError {}
