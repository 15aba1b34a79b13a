//! COO (triplet) assembly buffer for MNA stamping.
//!
//! Devices stamp contributions as `(row, col, value)` triplets; duplicate
//! coordinates accumulate, exactly like SPICE matrix stamping. The buffer is
//! converted once to CSR (establishing the shared [`Pattern`]); subsequent
//! timesteps restamp values directly into a [`CsrMatrix`] over the same
//! pattern.

use crate::{CsrMatrix, Pattern, SparseError};
use std::sync::Arc;

/// A mutable COO assembly buffer.
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows`×`cols` buffer.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
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

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulates `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds; stamping code indexes with
    /// compiler-verified node ids, so a violation is a programming error.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Fallible variant of [`add`](Self::add) for externally-supplied data.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for a bad coordinate.
    pub fn try_add(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Converts to CSR, summing duplicate coordinates.
    ///
    /// The resulting matrix owns a freshly-built shared [`Pattern`].
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `rows`, the assembler's own dimension"
    )]
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut current_row = 0usize;
        let mut prev: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if prev == Some((r, c)) {
                *values.last_mut().expect("duplicate follows a value") += v;
                continue;
            }
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            col_idx.push(c);
            values.push(v);
            prev = Some((r, c));
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        let pattern = Pattern::new_unchecked(self.rows, self.cols, row_ptr, col_idx);
        CsrMatrix::from_parts(Arc::new(pattern), values)
            .expect("triplet assembly produces matching value count")
    }
}

impl FromIterator<(usize, usize, f64)> for TripletMatrix {
    /// Collects triplets, inferring dimensions from the maximum indices.
    fn from_iter<I: IntoIterator<Item = (usize, usize, f64)>>(iter: I) -> Self {
        let entries: Vec<_> = iter.into_iter().collect();
        let rows = entries.iter().map(|&(r, _, _)| r + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|&(_, c, _)| c + 1).max().unwrap_or(0);
        Self {
            rows,
            cols,
            entries,
        }
    }
}

impl Extend<(usize, usize, f64)> for TripletMatrix {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.add(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_accumulate() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.5);
        t.add(1, 1, -1.0);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), Some(3.5));
        assert_eq!(m.get(1, 1), Some(-1.0));
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(2, 1, 5.0);
        t.add(0, 2, 1.0);
        t.add(1, 0, 2.0);
        t.add(0, 0, 3.0);
        let m = t.to_csr();
        assert_eq!(m.pattern().col_idx(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[3.0, 1.0, 2.0, 5.0]);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut t = TripletMatrix::new(4, 4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 2.0);
        let m = t.to_csr();
        assert_eq!(m.pattern().row_ptr(), &[0, 1, 1, 1, 2]);
    }

    #[test]
    fn fully_empty_matrix() {
        let t = TripletMatrix::new(3, 3);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.pattern().row_ptr(), &[0, 0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2, 2);
        assert!(t.try_add(2, 0, 1.0).is_err());
        assert!(t.try_add(0, 2, 1.0).is_err());
        assert!(t.try_add(1, 1, 1.0).is_ok());
        let result = std::panic::catch_unwind(move || {
            let mut t = TripletMatrix::new(2, 2);
            t.add(5, 0, 1.0);
        });
        assert!(result.is_err());
    }

    #[test]
    fn from_iterator_infers_shape() {
        let t: TripletMatrix = vec![(0, 0, 1.0), (4, 2, 2.0)].into_iter().collect();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    fn cancellation_keeps_structural_zero() {
        // +1 and -1 at the same slot: value 0 but structurally present,
        // as required for a stable shared pattern across timesteps.
        let mut t = TripletMatrix::new(1, 1);
        t.add(0, 0, 1.0);
        t.add(0, 0, -1.0);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), Some(0.0));
    }
}
