//! The shared CSR sparsity pattern ("shared indices").
//!
//! MASC's first technique: because every Jacobian of a transient run has the
//! same structure, the integer index arrays are stored **once**, in a
//! long-lived heap allocation, and every per-timestep matrix holds only its
//! float values plus an `Arc` to the pattern. The pattern also precomputes
//! the structural maps the spatiotemporal predictor needs:
//!
//! - `transpose_map[k]` — the value index of entry `(j, i)` for entry `k` at
//!   `(i, j)` (or `NONE` if the symmetric slot is structurally absent);
//! - `diag_index[r]` — the value index of `(r, r)`;
//! - a triangular partition of value indices into the paper's `U`, `L`, `D`
//!   regions.

// Hardened-surface rule R1 (DESIGN.md §3.10): this module decodes the
// shared-index wire format, so it never panics. An index that clippy cannot
// prove in bounds carries an
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

use crate::SparseError;
use masc_bitio::cursor::{self, ByteCursor};
use masc_bitio::varint;

/// Sentinel for "no such entry" in structural maps.
pub const NONE: usize = usize::MAX;

/// An immutable CSR sparsity pattern, shared between all matrices of a
/// transient run.
///
/// Construct with [`Pattern::new`] (validated) or via
/// [`TripletMatrix::to_csr`](crate::TripletMatrix::to_csr).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// For nz `k` at (i, j): value index of (j, i), or `NONE`.
    transpose_map: Vec<usize>,
    /// For row `r`: value index of (r, r), or `NONE`.
    diag_index: Vec<usize>,
}

impl Pattern {
    /// Builds a validated pattern from CSR index arrays.
    ///
    /// `col_idx` must be sorted and duplicate-free within each row.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPattern`] if the arrays are
    /// inconsistent (bad lengths, unsorted or out-of-range columns, or a
    /// non-monotone `row_ptr`).
    #[expect(
        clippy::indexing_slicing,
        reason = "`row_ptr` has `rows + 1` entries, runs from 0 to `col_idx.len()` and is monotone, all checked before the row walk"
    )]
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::InvalidPattern(
                "row_ptr length must be rows + 1",
            ));
        }
        if row_ptr.first() != Some(&0) || row_ptr.last() != Some(&col_idx.len()) {
            return Err(SparseError::InvalidPattern(
                "row_ptr endpoints inconsistent",
            ));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::InvalidPattern("row_ptr not monotone"));
            }
        }
        for r in 0..rows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidPattern(
                        "columns not strictly increasing within a row",
                    ));
                }
            }
            if let Some(&last) = row.last() {
                if last >= cols {
                    return Err(SparseError::InvalidPattern("column index out of range"));
                }
            }
        }
        Ok(Self::new_unchecked(rows, cols, row_ptr, col_idx))
    }

    /// Builds a pattern without validation (inputs known-good, e.g. from
    /// triplet assembly).
    pub(crate) fn new_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
    ) -> Self {
        let mut pattern = Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            transpose_map: Vec::new(),
            diag_index: Vec::new(),
        };
        pattern.build_maps();
        pattern
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "`rows + 1 == row_ptr.len()` and `nnz == col_idx.len()`, both held arrays"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`row_ptr` was validated by `new` (or built by triplet assembly): `r < rows` and every `k < nnz`"
    )]
    fn build_maps(&mut self) {
        let nnz = self.col_idx.len();
        self.diag_index = vec![NONE; self.rows];
        self.transpose_map = vec![NONE; nnz];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                if c == r {
                    self.diag_index[r] = k;
                }
                // Locate (c, r) by binary search in row c (if square).
                if c < self.rows {
                    if let Some(t) = self.find(c, r) {
                        self.transpose_map[k] = t;
                    }
                }
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// CSR row pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// CSR column index array (length `nnz`).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value index of entry `(row, col)`, if structurally present.
    #[expect(
        clippy::indexing_slicing,
        reason = "`row < rows` is checked first and `row_ptr` is validated"
    )]
    pub fn find(&self, row: usize, col: usize) -> Option<usize> {
        if row >= self.rows {
            return None;
        }
        let span = &self.col_idx[self.row_ptr[row]..self.row_ptr[row + 1]];
        span.binary_search(&col).ok().map(|i| self.row_ptr[row] + i)
    }

    /// Row of the `k`-th non-zero (linear scan over `row_ptr` via binary
    /// search).
    pub fn row_of(&self, k: usize) -> usize {
        debug_assert!(k < self.nnz());
        // partition_point gives the first row whose row_ptr exceeds k.
        self.row_ptr.partition_point(|&p| p <= k) - 1
    }

    /// Value index of the transpose partner of non-zero `k`, if present.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass a non-zero `k` of this pattern, so `k < nnz = transpose_map.len()`"
    )]
    pub fn transpose_of(&self, k: usize) -> Option<usize> {
        match self.transpose_map[k] {
            NONE => None,
            t => Some(t),
        }
    }

    /// Value index of the diagonal entry of `row`, if present.
    pub fn diag_of(&self, row: usize) -> Option<usize> {
        match self.diag_index.get(row) {
            Some(&NONE) | None => None,
            Some(&d) => Some(d),
        }
    }

    /// Returns `true` if the structural pattern is symmetric (every `(i,j)`
    /// has a matching `(j,i)`). MNA matrices are structurally symmetric.
    pub fn is_structurally_symmetric(&self) -> bool {
        self.transpose_map.iter().all(|&t| t != NONE)
    }

    /// Partitions the value indices into the paper's three regions:
    /// strictly-upper `U`, strictly-lower `L`, and diagonal `D`.
    ///
    /// Returned vectors list value indices in row-major order.
    #[expect(
        clippy::indexing_slicing,
        reason = "`r < rows` and `row_ptr` is validated, so every `k < nnz`"
    )]
    pub fn partition_uld(&self) -> Partition {
        let mut upper = Vec::new();
        let mut lower = Vec::new();
        let mut diag = Vec::new();
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                if c > r {
                    upper.push(k);
                } else if c < r {
                    lower.push(k);
                } else {
                    diag.push(k);
                }
            }
        }
        Partition { upper, lower, diag }
    }

    /// Heap bytes used by the index arrays (the cost "shared indices"
    /// amortizes over all timesteps).
    pub fn index_bytes(&self) -> usize {
        (self.row_ptr.len() + self.col_idx.len()) * std::mem::size_of::<usize>()
    }

    /// Serializes the pattern with delta + varint coding (the paper's
    /// optional further index compression).
    pub fn to_compressed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, self.rows as u64);
        varint::write_u64(&mut out, self.cols as u64);
        cursor::write_prefixed(&mut out, &varint::encode_deltas(&self.row_ptr));
        out.extend_from_slice(&varint::encode_deltas(&self.col_idx));
        out
    }

    /// Deserializes a pattern written by [`Pattern::to_compressed_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPattern`] on truncation or if the
    /// decoded arrays fail validation.
    pub fn from_compressed_bytes(bytes: &[u8]) -> Result<Self, SparseError> {
        let truncated = |_| SparseError::InvalidPattern("truncated pattern bytes");
        let mut cur = ByteCursor::new(bytes);
        let rows = cur.read_varint().map_err(truncated)?;
        let cols = cur.read_varint().map_err(truncated)?;
        let rp = cur.read_prefixed().map_err(truncated)?;
        let row_ptr = varint::decode_deltas(rp).map_err(truncated)?;
        let col_idx = varint::decode_deltas(cur.rest()).map_err(truncated)?;
        Self::new(rows as usize, cols as usize, row_ptr, col_idx)
    }
}

/// The U/L/D partition of a pattern's value indices (paper Algorithm 1,
/// line 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Value indices with `col > row`.
    pub upper: Vec<usize>,
    /// Value indices with `col < row`.
    pub lower: Vec<usize>,
    /// Value indices with `col == row`.
    pub diag: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×3 pattern:
    /// ```text
    /// [x x .]
    /// [x x x]
    /// [. x x]
    /// ```
    fn tridiag3() -> Pattern {
        Pattern::new(3, 3, vec![0, 2, 5, 7], vec![0, 1, 0, 1, 2, 1, 2]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let p = tridiag3();
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 3);
        assert_eq!(p.nnz(), 7);
        assert_eq!(p.find(0, 0), Some(0));
        assert_eq!(p.find(1, 2), Some(4));
        assert_eq!(p.find(0, 2), None);
        assert_eq!(p.row_of(0), 0);
        assert_eq!(p.row_of(4), 1);
        assert_eq!(p.row_of(6), 2);
    }

    #[test]
    fn transpose_map_is_consistent() {
        let p = tridiag3();
        assert!(p.is_structurally_symmetric());
        for k in 0..p.nnz() {
            let t = p.transpose_of(k).unwrap();
            // transpose of transpose is self
            assert_eq!(p.transpose_of(t).unwrap(), k);
            let (i, j) = (p.row_of(k), p.col_idx()[k]);
            let (ti, tj) = (p.row_of(t), p.col_idx()[t]);
            assert_eq!((i, j), (tj, ti));
        }
    }

    #[test]
    fn diag_map() {
        let p = tridiag3();
        for r in 0..3 {
            let d = p.diag_of(r).unwrap();
            assert_eq!(p.row_of(d), r);
            assert_eq!(p.col_idx()[d], r);
        }
    }

    #[test]
    fn asymmetric_pattern_detected() {
        // (0,1) present, (1,0) absent.
        let p = Pattern::new(2, 2, vec![0, 2, 3], vec![0, 1, 1]).unwrap();
        assert!(!p.is_structurally_symmetric());
        assert_eq!(p.transpose_of(1), None);
        assert_eq!(p.transpose_of(0), Some(0)); // diagonal maps to itself
    }

    #[test]
    fn missing_diagonal() {
        let p = Pattern::new(2, 2, vec![0, 1, 2], vec![1, 0]).unwrap();
        assert_eq!(p.diag_of(0), None);
        assert_eq!(p.diag_of(1), None);
    }

    #[test]
    fn partition_uld_covers_everything() {
        let p = tridiag3();
        let part = p.partition_uld();
        assert_eq!(part.upper, vec![1, 4]);
        assert_eq!(part.lower, vec![2, 5]);
        assert_eq!(part.diag, vec![0, 3, 6]);
        let total = part.upper.len() + part.lower.len() + part.diag.len();
        assert_eq!(total, p.nnz());
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(Pattern::new(2, 2, vec![0, 1], vec![0]).is_err()); // row_ptr short
        assert!(Pattern::new(2, 2, vec![0, 2, 1], vec![0, 1]).is_err()); // not monotone
        assert!(Pattern::new(2, 2, vec![0, 2, 2], vec![1, 0]).is_err()); // unsorted row
        assert!(Pattern::new(2, 2, vec![0, 1, 2], vec![0, 5]).is_err()); // col range
        assert!(Pattern::new(2, 2, vec![0, 2, 2], vec![0, 0]).is_err()); // duplicate col
        assert!(Pattern::new(2, 2, vec![1, 2, 2], vec![0, 0]).is_err()); // row_ptr[0] != 0
    }

    #[test]
    fn compressed_round_trip() {
        let p = tridiag3();
        let bytes = p.to_compressed_bytes();
        let q = Pattern::from_compressed_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn compressed_is_smaller_than_raw_for_sorted_indices() {
        // A banded 1000×1000 pattern.
        let n = 1000usize;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        for r in 0..n {
            for c in r.saturating_sub(1)..(r + 2).min(n) {
                col_idx.push(c);
            }
            row_ptr.push(col_idx.len());
        }
        let p = Pattern::new(n, n, row_ptr, col_idx).unwrap();
        let bytes = p.to_compressed_bytes();
        assert!(
            bytes.len() * 4 < p.index_bytes(),
            "{} vs {}",
            bytes.len(),
            p.index_bytes()
        );
        assert_eq!(Pattern::from_compressed_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let bytes = tridiag3().to_compressed_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Pattern::from_compressed_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn empty_pattern() {
        let p = Pattern::new(0, 0, vec![0], vec![]).unwrap();
        assert_eq!(p.nnz(), 0);
        let bytes = p.to_compressed_bytes();
        assert_eq!(Pattern::from_compressed_bytes(&bytes).unwrap(), p);
    }
}
