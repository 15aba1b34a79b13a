//! Small dense matrices: the reference implementation used by tests and a
//! fallback solver for tiny systems.
//!
//! The dense LU here (partial pivoting, `O(n³)`) is the oracle that the
//! sparse Gilbert–Peierls factorization in [`crate::lu`] is verified
//! against.

use core::fmt;
use core::ops::{Index, IndexMut};

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero-filled `rows`×`cols` matrix.
    #[expect(
        clippy::disallowed_methods,
        reason = "dense reference solver: the caller's own dimensions, never decoded"
    )]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| self.data[r * self.cols + c] * x[c])
                    .sum()
            })
            .collect()
    }

    /// Solves `A x = b` by LU with partial pivoting.
    ///
    /// Returns `None` if the matrix is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `rows` of the held matrix"
    )]
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot.
            let (mut pmax, mut prow) = (a[piv[k] * n + k].abs(), k);
            for r in (k + 1)..n {
                let v = a[piv[r] * n + k].abs();
                if v > pmax {
                    pmax = v;
                    prow = r;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                return None;
            }
            piv.swap(k, prow);
            let pk = piv[k];
            let diag = a[pk * n + k];
            for &pr in &piv[(k + 1)..n] {
                let factor = a[pr * n + k] / diag;
                if factor == 0.0 {
                    continue;
                }
                a[pr * n + k] = factor;
                for c in (k + 1)..n {
                    a[pr * n + c] -= factor * a[pk * n + c];
                }
            }
        }
        // Forward substitution (L has unit diagonal, stored in-place).
        let mut y = vec![0.0; n];
        for r in 0..n {
            let mut acc = x[piv[r]];
            for c in 0..r {
                acc -= a[piv[r] * n + c] * y[c];
            }
            y[r] = acc;
        }
        // Backward substitution with U.
        for r in (0..n).rev() {
            let mut acc = y[r];
            for c in (r + 1)..n {
                acc -= a[piv[r] * n + c] * x[c];
            }
            let d = a[piv[r] * n + r];
            if d == 0.0 || !d.is_finite() {
                return None;
            }
            x[r] = acc / d;
        }
        Some(x)
    }

    /// Solves `Aᵀ x = b` (via an explicit transpose; dense path is for
    /// testing only).
    ///
    /// Returns `None` if the matrix is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve_transpose(&self, b: &[f64]) -> Option<Vec<f64>> {
        self.transpose().solve(b)
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Maximum absolute entry (for error norms in tests).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.4e} ", self.data[r * self.cols + c])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_trivially() {
        let a = DenseMatrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn known_system() {
        // [2 1; 1 3] x = [3; 5] → x = [4/5, 7/5]
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn transpose_solve_matches_transposed_system() {
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 0.0, 3.0]);
        let x = a.solve_transpose(&[2.0, 7.0]).unwrap();
        // Aᵀ = [2 0; 1 3]; x = [1, 2]
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_is_small_for_random_system() {
        let n = 20;
        let mut a = DenseMatrix::zeros(n, n);
        let mut seed = 0x1234_5678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (1u64 << 31) as f64 - 0.5
        };
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = next();
            }
            a[(r, r)] += (n as f64) * 2.0; // diagonally dominant
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = a.solve(&b).unwrap();
        let ax = a.mul_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-9, "{l} vs {r}");
        }
    }
}
