//! Numeric CSR matrices over a shared [`Pattern`].
//!
//! A [`CsrMatrix`] is just a `Vec<f64>` of non-zero values plus an
//! `Arc<Pattern>`; cloning a run's thousandth Jacobian costs one `Vec`
//! clone and one reference-count bump — this is the memory layout the MASC
//! paper's shared-indices technique prescribes.

use crate::{Pattern, SparseError};
use std::sync::Arc;

/// A sparse matrix in CSR form with a shared sparsity pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    pattern: Arc<Pattern>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates a matrix from a pattern and matching value array.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `values.len() != nnz`.
    pub fn from_parts(pattern: Arc<Pattern>, values: Vec<f64>) -> Result<Self, SparseError> {
        if values.len() != pattern.nnz() {
            return Err(SparseError::ShapeMismatch(
                "value count does not match pattern nnz",
            ));
        }
        Ok(Self { pattern, values })
    }

    /// Creates an all-zero matrix over `pattern`.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `nnz` of the held pattern"
    )]
    pub fn zeros(pattern: Arc<Pattern>) -> Self {
        let values = vec![0.0; pattern.nnz()];
        Self { pattern, values }
    }

    /// The shared sparsity pattern.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pattern.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pattern.cols()
    }

    /// Number of structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zero values in row-major order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable non-zero values (for in-place restamping).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consumes the matrix, returning its value array.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Value at `(row, col)`, if structurally present.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        self.pattern.find(row, col).map(|k| self.values[k])
    }

    /// Sets all values to zero, keeping the structure.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if the slot is not in the
    /// pattern — stamping must stay within the pre-elaborated structure.
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        match self.pattern.find(row, col) {
            Some(k) => {
                self.values[k] += value;
                Ok(())
            }
            None => Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows(),
                cols: self.cols(),
            }),
        }
    }

    /// Dense matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `rows()` of the held matrix"
    )]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols(), "mul_vec dimension mismatch");
        let mut y = vec![0.0; self.rows()];
        let rp = self.pattern.row_ptr();
        let ci = self.pattern.col_idx();
        for r in 0..self.rows() {
            let mut acc = 0.0;
            for k in rp[r]..rp[r + 1] {
                acc += self.values[k] * x[ci[k]];
            }
            y[r] = acc;
        }
        y
    }

    /// Transposed product `y = Aᵀ x` without materializing the transpose.
    ///
    /// The adjoint recursion needs `Cᵀ w` at every step; doing it directly
    /// on CSR keeps the shared-pattern layout intact.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `cols()` of the held matrix"
    )]
    pub fn mul_vec_transpose(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols()];
        self.mul_vec_transpose_into(x, &mut y);
        y
    }

    /// [`CsrMatrix::mul_vec_transpose`] into a caller-owned buffer: `y` is
    /// zeroed, then accumulated in the same order, so the result is
    /// bit-identical to the allocating form.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn mul_vec_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows(), "mul_vec_transpose dimension mismatch");
        assert_eq!(y.len(), self.cols(), "mul_vec_transpose output mismatch");
        y.fill(0.0);
        let rp = self.pattern.row_ptr();
        let ci = self.pattern.col_idx();
        for r in 0..self.rows() {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for k in rp[r]..rp[r + 1] {
                y[ci[k]] += self.values[k] * xr;
            }
        }
    }

    /// In-place `self += alpha * other` for matrices sharing one pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if the patterns differ.
    pub fn add_scaled(&mut self, alpha: f64, other: &CsrMatrix) -> Result<(), SparseError> {
        if !Arc::ptr_eq(&self.pattern, &other.pattern) && self.pattern != other.pattern {
            return Err(SparseError::ShapeMismatch("patterns differ in add_scaled"));
        }
        for (a, &b) in self.values.iter_mut().zip(&other.values) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Builds `J = G + (1/h) C` over the common pattern — the transient
    /// Newton matrix. `self` is `G`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if the patterns differ.
    pub fn combine_jacobian(&self, c: &CsrMatrix, h: f64) -> Result<CsrMatrix, SparseError> {
        let mut j = self.clone();
        j.add_scaled(1.0 / h, c)?;
        Ok(j)
    }

    /// Converts to a dense row-major matrix (testing / tiny systems only).
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.rows(), self.cols());
        let rp = self.pattern.row_ptr();
        let ci = self.pattern.col_idx();
        for r in 0..self.rows() {
            for k in rp[r]..rp[r + 1] {
                d[(r, ci[k])] = self.values[k];
            }
        }
        d
    }

    /// Iterator over `(row, col, value)` of all structural non-zeros.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let rp = self.pattern.row_ptr();
        let ci = self.pattern.col_idx();
        (0..self.rows())
            .flat_map(move |r| (rp[r]..rp[r + 1]).map(move |k| (r, ci[k], self.values[k])))
    }

    /// Heap bytes of the value array (what MASC compresses per timestep).
    pub fn value_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn sample() -> CsrMatrix {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 4.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 4.0);
        t.add(1, 2, -1.0);
        t.add(2, 1, -1.0);
        t.add(2, 2, 4.0);
        t.to_csr()
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let y = m.mul_vec(&x);
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn transpose_product_matches_explicit_transpose() {
        let mut t = TripletMatrix::new(2, 3);
        t.add(0, 0, 1.0);
        t.add(0, 2, 2.0);
        t.add(1, 1, 3.0);
        let m = t.to_csr();
        let x = [5.0, 7.0];
        let y = m.mul_vec_transpose(&x);
        // Aᵀ is 3×2: rows [1,0],[0,3],[2,0]
        assert_eq!(y, vec![5.0, 21.0, 10.0]);
    }

    #[test]
    fn add_scaled_and_combine() {
        let g = sample();
        let mut c = CsrMatrix::zeros(g.pattern().clone());
        for v in c.values_mut() {
            *v = 2.0;
        }
        let j = g.combine_jacobian(&c, 0.5).unwrap();
        for (k, &v) in j.values().iter().enumerate() {
            assert_eq!(v, g.values()[k] + 4.0);
        }
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let a = sample();
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 1.0);
        let b = t.to_csr();
        let mut a2 = a.clone();
        assert!(a2.add_scaled(1.0, &b).is_err());
    }

    #[test]
    fn equal_patterns_in_different_arcs_are_compatible() {
        let a = sample();
        let b = sample(); // separate Arc, identical structure
        let mut a2 = a.clone();
        assert!(a2.add_scaled(1.0, &b).is_ok());
    }

    #[test]
    fn add_at_respects_structure() {
        let mut m = sample();
        assert!(m.add_at(0, 0, 1.0).is_ok());
        assert_eq!(m.get(0, 0), Some(5.0));
        assert!(m.add_at(0, 2, 1.0).is_err()); // not in pattern
    }

    #[test]
    fn clear_keeps_structure() {
        let mut m = sample();
        m.clear();
        assert_eq!(m.nnz(), 7);
        assert!(m.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = sample();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets[0], (0, 0, 4.0));
        assert_eq!(triplets.len(), 7);
        assert!(triplets
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn to_dense_round_trip_values() {
        let m = sample();
        let d = m.to_dense();
        for (r, c, v) in m.iter() {
            assert_eq!(d[(r, c)], v);
        }
        assert_eq!(d[(0, 2)], 0.0);
    }

    #[test]
    fn cloning_shares_the_pattern() {
        let m = sample();
        let m2 = m.clone();
        assert!(Arc::ptr_eq(m.pattern(), m2.pattern()));
    }

    #[test]
    fn value_count_validated() {
        let m = sample();
        let p = m.pattern().clone();
        assert!(CsrMatrix::from_parts(p, vec![0.0; 3]).is_err());
    }
}
