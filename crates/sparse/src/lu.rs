//! Sparse LU factorization (left-looking Gilbert–Peierls) with threshold
//! partial pivoting, transpose solves, and a symbolic/numeric split.
//!
//! Transient circuit simulation solves `J Δx = -r` at every Newton
//! iteration, and the adjoint pass solves `Jᵀ w = v` at every reverse step
//! — both on the same factorization, and every one of those matrices shares
//! one sparsity pattern. The factorization here follows the classic CSparse
//! `cs_lu` structure: per-column symbolic reachability via depth-first
//! search on the partially-built `L`, a sparse triangular solve, then
//! threshold partial pivoting with a preference for the diagonal entry
//! (KLU-style), which keeps MNA matrices stable without destroying the
//! fill-reducing column ordering. That ordering is always the approximate
//! minimum degree of [`crate::amd`], computed on the pattern of `A + Aᵀ`;
//! the storage of `L`/`U` and the work of every forward and transpose solve
//! scale with the fill it leaves.
//!
//! The expensive parts of that pipeline — the ordering, the per-column
//! reachability DFS, and pivot search — depend only on the pattern and the
//! chosen pivot sequence, so they are captured once in a [`SymbolicLu`]:
//! the permutations and the `L`/`U` fill skeletons, held nowhere else.
//! [`LuFactors`] are that analysis behind its `Arc` plus the values of `L`
//! and `U`. [`LuWorkspace`] is the one entry point that factors: it
//! analyzes the first matrix of a pattern, then replays the recorded
//! elimination with each later matrix's values into the storage it holds
//! (KLU's *refactorization*), falls back to a fresh analysis when the
//! recorded pivot sequence goes numerically bad, and skips the elimination
//! altogether when a matrix is bit for bit the one it factored last (a
//! linear circuit's `J = G + C/h` on a fixed grid never changes).
//!
//! # Examples
//!
//! ```
//! use masc_sparse::{lu::LuWorkspace, TripletMatrix};
//!
//! # fn main() -> Result<(), masc_sparse::LuError> {
//! let mut t = TripletMatrix::new(2, 2);
//! t.add(0, 0, 4.0);
//! t.add(0, 1, 1.0);
//! t.add(1, 0, 2.0);
//! t.add(1, 1, 3.0);
//! let mut a = t.to_csr();
//! let mut ws = LuWorkspace::new();
//! let x0 = ws.factor(&a)?.solve(&[9.0, 11.0]); // full analysis
//! assert!((x0[0] - 1.6).abs() < 1e-12 && (x0[1] - 2.6).abs() < 1e-12);
//! ws.factor(&a)?; // same values: the held factors, no elimination
//! a.values_mut()[0] = 5.0;
//! let x1 = ws.factor(&a)?.solve(&[9.0, 11.0]); // values-only refactor
//! assert!(x1[0] < x0[0]);
//! assert_eq!(ws.factorizations(), 2);
//! # Ok(())
//! # }
//! ```

use crate::{amd, CsrMatrix, Pattern};
use core::fmt;
use std::sync::Arc;

/// Sentinel for "not yet pivotal".
const UNPIVOTED: usize = usize::MAX;

/// Errors from sparse LU factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum LuError {
    /// The matrix is not square.
    NotSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// No acceptable pivot was found for a column (matrix is singular to
    /// working precision). Carries the failing column (in factor order).
    Singular(usize),
    /// A non-finite value (NaN/∞) appeared during factorization.
    NotFinite,
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, LU requires square")
            }
            LuError::Singular(col) => {
                write!(f, "matrix numerically singular at column {col}")
            }
            LuError::NotFinite => write!(f, "non-finite value during factorization"),
        }
    }
}

impl std::error::Error for LuError {}

/// Threshold for accepting the diagonal pivot: the diagonal is used if
/// `|a_diag| >= DIAG_PREFERENCE * max_col` (`1.0` would be strict partial
/// pivoting). KLU's default: prefer the structural diagonal unless it is
/// more than 1000× smaller than the column maximum. MNA chains (gm ≫ 1/R)
/// are destroyed by strict partial pivoting: the anti-triangular pivot
/// cascade underflows after a few hundred stages.
const DIAG_PREFERENCE: f64 = 0.001;

/// Absolute magnitude below which a pivot is declared singular.
const PIVOT_EPSILON: f64 = 1e-300;

/// A computed LU factorization `P·A·Q = L·U`.
///
/// `L` is unit-lower-triangular (unit diagonal implied), `U` upper
/// triangular; `P` is the row pivot permutation, `Q` the fill-reducing
/// column permutation. The permutations and the compressed-column
/// skeletons of `L` and `U` are the [`SymbolicLu`] the factors were
/// eliminated on, read through its shared `Arc`; the factors own only the
/// values. Produced by [`LuWorkspace::factor`].
#[derive(Debug, Clone)]
pub struct LuFactors {
    sym: Arc<SymbolicLu>,
    /// Values of `L`, parallel to the skeleton's `l_rows`.
    l_values: Vec<f64>,
    /// Values of `U`, parallel to the skeleton's `u_rows`.
    u_values: Vec<f64>,
}

impl LuFactors {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Non-zeros in `L` (excluding the implied unit diagonal).
    pub fn l_nnz(&self) -> usize {
        self.sym.l_rows.len()
    }

    /// Non-zeros in `U` (including the diagonal).
    pub fn u_nnz(&self) -> usize {
        self.sym.u_rows.len()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut work = Vec::new();
        let mut out = Vec::new();
        self.solve_into(b, &mut work, &mut out);
        out
    }

    /// Solves `A x = b` into caller-provided buffers, allocating nothing
    /// once `work` and `out` have grown to `dim()` elements.
    ///
    /// The transient Newton loop and the adjoint reverse pass call a solve
    /// every iteration; this is the allocation-free variant they reuse
    /// buffers through. Produces bit-identical results to [`solve`].
    ///
    /// [`solve`]: LuFactors::solve
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `n` of the held factors"
    )]
    pub fn solve_into(&self, b: &[f64], work: &mut Vec<f64>, out: &mut Vec<f64>) {
        let s = &*self.sym;
        // Slices bound once: indexing the `Vec`s behind the `Arc` inside
        // the loops would reload their pointers after every store to `y`.
        let (n, p, q) = (s.n, &s.p[..], &s.q[..]);
        let (lp, li, lx) = (&s.l_colptr[..], &s.l_rows[..], &self.l_values[..]);
        let (up, ui, ux) = (&s.u_colptr[..], &s.u_rows[..], &self.u_values[..]);
        assert_eq!(b.len(), n, "solve dimension mismatch");
        // c = P b
        work.clear();
        work.extend((0..n).map(|i| b[p[i]]));
        let y = &mut work[..];
        // L y' = c (unit lower, column-oriented forward substitution)
        for j in 0..n {
            let yj = y[j];
            if yj == 0.0 {
                continue;
            }
            for t in lp[j]..lp[j + 1] {
                y[li[t]] -= lx[t] * yj;
            }
        }
        // U z = y' (column-oriented backward substitution; diagonal entry
        // is the last element of each column).
        for j in (0..n).rev() {
            let start = up[j];
            let end = up[j + 1];
            let diag = ux[end - 1];
            let zj = y[j] / diag;
            y[j] = zj;
            if zj != 0.0 {
                for t in start..end - 1 {
                    y[ui[t]] -= ux[t] * zj;
                }
            }
        }
        // x = Q z
        out.clear();
        out.resize(n, 0.0);
        for j in 0..n {
            out[q[j]] = y[j];
        }
    }

    /// Solves `Aᵀ x = b` on the same factorization.
    ///
    /// This is the workhorse of the adjoint reverse pass: one transpose
    /// solve per timestep per objective.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        let mut work = Vec::new();
        let mut out = Vec::new();
        self.solve_transpose_into(b, &mut work, &mut out);
        out
    }

    /// Solves `Aᵀ x = b` into caller-provided buffers, allocating nothing
    /// once `work` and `out` have grown to `dim()` elements. Produces
    /// bit-identical results to [`solve_transpose`].
    ///
    /// [`solve_transpose`]: LuFactors::solve_transpose
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `n` of the held factors"
    )]
    pub fn solve_transpose_into(&self, b: &[f64], work: &mut Vec<f64>, out: &mut Vec<f64>) {
        let s = &*self.sym;
        // Slices bound once: indexing the `Vec`s behind the `Arc` inside
        // the loops would reload their pointers after every store to `y`.
        let (n, p, q) = (s.n, &s.p[..], &s.q[..]);
        let (lp, li, lx) = (&s.l_colptr[..], &s.l_rows[..], &self.l_values[..]);
        let (up, ui, ux) = (&s.u_colptr[..], &s.u_rows[..], &self.u_values[..]);
        assert_eq!(b.len(), n, "solve_transpose dimension mismatch");
        // c = Qᵀ b
        work.clear();
        work.extend((0..n).map(|j| b[q[j]]));
        let y = &mut work[..];
        // Uᵀ w = c : Uᵀ is lower triangular; row-oriented over U's columns.
        for j in 0..n {
            let start = up[j];
            let end = up[j + 1];
            let mut acc = y[j];
            for t in start..end - 1 {
                acc -= ux[t] * y[ui[t]];
            }
            y[j] = acc / ux[end - 1];
        }
        // Lᵀ z = w : Lᵀ is unit upper triangular.
        for j in (0..n).rev() {
            let mut acc = y[j];
            for t in lp[j]..lp[j + 1] {
                acc -= lx[t] * y[li[t]];
            }
            y[j] = acc;
        }
        // x = Pᵀ z  (x[p[i]] = z[i])
        out.clear();
        out.resize(n, 0.0);
        for i in 0..n {
            out[p[i]] = y[i];
        }
    }

    /// Total fill-in ratio `(l_nnz + u_nnz) / a_nnz` given the original nnz.
    pub fn fill_ratio(&self, a_nnz: usize) -> f64 {
        (self.l_nnz() + self.u_nnz()) as f64 / a_nnz.max(1) as f64
    }

    /// Replays the recorded elimination with `a`'s values into these
    /// factors' value storage, sizing it on the first call. `x` is scratch
    /// in factor-row coordinates, all zeros between calls (error paths
    /// re-zero it wholesale).
    ///
    /// A refactorization skips ordering, reachability DFS, and pivot
    /// search: it scatters values through the symbolic scatter plan and
    /// streams through the recorded skeleton, the KLU refactorization fast
    /// path. On the matrix the analysis was computed from, the resulting
    /// values are bit-identical to the analysis's own.
    ///
    /// The caller has checked `self.sym.matches(a)`.
    ///
    /// # Errors
    ///
    /// - [`LuError::Singular`] if a recorded pivot position is too small or
    ///   non-finite for the new values — the recorded pivot *sequence* is
    ///   no longer valid and a fresh analysis is needed.
    /// - [`LuError::NotFinite`] if `a` contains or produces non-finite
    ///   values. After any error the values are unspecified.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by the held analysis's `n` and fill counts"
    )]
    fn refactor(&mut self, a: &CsrMatrix, x: &mut Vec<f64>) -> Result<(), LuError> {
        let sym = &*self.sym;
        let n = sym.n;
        x.resize(n, 0.0);
        self.l_values.resize(sym.l_rows.len(), 0.0);
        self.u_values.resize(sym.u_rows.len(), 0.0);
        let vals = a.values();
        // Slices, as in the solves.
        let x = &mut x[..];
        let (a_colptr, a_rows, a_src) = (&sym.a_colptr[..], &sym.a_rows[..], &sym.a_src[..]);
        let (l_colptr, l_rows, l_vals) =
            (&sym.l_colptr[..], &sym.l_rows[..], &mut self.l_values[..]);
        let (u_colptr, u_rows, u_vals) =
            (&sym.u_colptr[..], &sym.u_rows[..], &mut self.u_values[..]);
        for j in 0..n {
            // Scatter A(:, q[j]) into factor-row coordinates.
            for k in a_colptr[j]..a_colptr[j + 1] {
                let v = vals[a_src[k]];
                if !v.is_finite() {
                    x.fill(0.0);
                    return Err(LuError::NotFinite);
                }
                x[a_rows[k]] = v;
            }
            // Eliminate with the already-refactored columns, in recorded
            // order. U's column j (minus the trailing diagonal) *is* the
            // elimination schedule: each entry is a pivotal row in reverse
            // topological order, so by the time row ρ is read here every
            // update targeting it has been applied — the value emitted into
            // U is final, exactly as in the one-shot analysis.
            let us = u_colptr[j];
            let ue = u_colptr[j + 1];
            for t in us..ue - 1 {
                let rho = u_rows[t];
                let xr = x[rho];
                u_vals[t] = xr;
                if xr == 0.0 {
                    continue;
                }
                for s in l_colptr[rho]..l_colptr[rho + 1] {
                    x[l_rows[s]] -= l_vals[s] * xr;
                }
            }
            // Validate the recorded pivot against the new values.
            let pivot = x[j];
            if !pivot.is_finite() || pivot.abs() < PIVOT_EPSILON {
                x.fill(0.0);
                return Err(LuError::Singular(j));
            }
            u_vals[ue - 1] = pivot;
            // Emit L column j.
            let ls = l_colptr[j];
            let le = l_colptr[j + 1];
            for t in ls..le {
                let v = x[l_rows[t]] / pivot;
                if !v.is_finite() {
                    x.fill(0.0);
                    return Err(LuError::NotFinite);
                }
                l_vals[t] = v;
            }
            // Clear scratch: the touched set is exactly U column j
            // (including the diagonal) plus L column j.
            for t in us..ue {
                x[u_rows[t]] = 0.0;
            }
            for t in ls..le {
                x[l_rows[t]] = 0.0;
            }
        }
        Ok(())
    }
}

/// The structure half of an LU factorization: ordering, pivot sequence, and
/// fill pattern, computed once per sparsity pattern.
///
/// An analysis runs the full Gilbert–Peierls factorization (values are
/// needed to *choose* pivots) and records everything that does not depend on
/// values given that pivot sequence: the AMD column permutation `Q`, the
/// final row permutation `P`, a scatter plan mapping each CSR value slot of
/// `A` into factor coordinates, and the complete `L`/`U` fill skeletons with
/// `U`'s per-column entries stored in elimination order. Note the skeleton
/// emits *every* reached fill position — no value-dependent pruning — so a
/// later refactorization with different values on the same pattern (e.g.
/// the transient `J = G + C/h` after a DC-only `G` analysis) never lacks a
/// slot.
///
/// Pivot validity is the one value-dependent thing a refactorization must
/// re-check; when a recorded pivot goes numerically bad, [`LuWorkspace`]
/// answers with a fresh analysis.
///
/// The analysis is the only holder of these arrays: every [`LuFactors`]
/// eliminated on it, in every workspace seeded with it, reads them through
/// one shared `Arc`.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    pattern: Arc<Pattern>,
    /// `q[factor_col] = original_col`.
    q: Vec<usize>,
    /// `p[factor_row] = original_row`.
    p: Vec<usize>,
    /// Scatter plan: per factor column `j`, slots `a_colptr[j]..a_colptr[j+1]`
    /// give (destination factor row, source CSR value slot) pairs for the
    /// entries of `A(:, q[j])`.
    a_colptr: Vec<usize>,
    a_rows: Vec<usize>,
    a_src: Vec<usize>,
    /// `L` skeleton: factor rows `> j` per column, in emission order.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    /// `U` skeleton: factor rows `< j` per column in elimination order,
    /// then the diagonal `j` as the last entry.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
}

impl SymbolicLu {
    /// Analyzes a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LuError`] if the matrix is not square, is singular, or
    /// produces non-finite intermediates — the analysis performs a full
    /// pivoting factorization on the given values.
    pub fn analyze(a: &CsrMatrix) -> Result<Self, LuError> {
        gp_factor(a).map(|(sym, _, _)| sym)
    }

    /// Whether `a` has the pattern this analysis was computed on.
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        Arc::ptr_eq(&self.pattern, a.pattern())
            || (self.n == a.rows() && self.n == a.cols() && *self.pattern == **a.pattern())
    }

    /// Matrix dimension the analysis was computed for.
    pub fn dim(&self) -> usize {
        self.n
    }
}

/// A reusable factor-solve workspace: one symbolic analysis amortized
/// across a whole sequence of same-pattern matrices.
///
/// The first `factor` call on a pattern runs a full analysis. Later calls
/// on the pattern of the cached [`SymbolicLu`] take the values-only
/// refactorization fast path into the `L`/`U` value storage the workspace
/// holds. If a refactorization finds a recorded pivot numerically bad
/// ([`LuError::Singular`]), the workspace transparently falls back to a
/// fresh analysis, so every call pivots as an independent factorization
/// would.
///
/// The workspace also keeps a copy of the values of its last successful
/// factorization (one `nnz`-long buffer, reused). When the incoming matrix
/// has the cached pattern and every value equals that copy by
/// [`f64::to_bits`], `factor` returns the factors it already holds and
/// runs no elimination: they are exactly the factors a refactor would
/// produce. The comparison is on bits, so `0.0` and `-0.0` differ and a
/// NaN never matches. Any error empties the copy; a `Singular` fallback
/// replaces it with the values it re-analyzed. The cost per call is one
/// blocked comparison of the values and a copy of the ones from the first
/// changed block on.
///
/// Workspaces are how the split threads through the stack: the Newton loop,
/// transient stepper, DC solver, and adjoint reverse pass each hold one
/// across all their iterations, and `masc-sweep` seeds one per sweep
/// instance from a single shared analysis via [`LuWorkspace::with_symbolic`].
/// A seeded workspace adds only its value storage: the skeleton stays in
/// the one shared analysis.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    /// The cached analysis and the values last eliminated on it. A seeded
    /// workspace holds the analysis with empty values until its first
    /// elimination; its copy of values is empty then too, so that call
    /// never skips.
    factors: Option<LuFactors>,
    /// Refactorization scratch in factor-row coordinates, all zeros
    /// between calls.
    x: Vec<f64>,
    /// Values of the matrix the held factors belong to; emptied by an error.
    factored: Vec<f64>,
    factorizations: usize,
}

impl LuWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace seeded with an existing (possibly shared) analysis.
    ///
    /// The first `factor` call on a matching pattern refactors immediately
    /// instead of analyzing — this is how sweep instances share one
    /// [`SymbolicLu`] across threads.
    pub fn with_symbolic(sym: Arc<SymbolicLu>) -> Self {
        Self {
            factors: Some(LuFactors {
                sym,
                l_values: Vec::new(),
                u_values: Vec::new(),
            }),
            ..Self::default()
        }
    }

    /// The cached analysis, if any.
    pub fn symbolic(&self) -> Option<&Arc<SymbolicLu>> {
        self.factors.as_ref().map(|f| &f.sym)
    }

    /// How many eliminations this workspace has run: every refactor and
    /// every fresh analysis, failed ones included. A call that returns the
    /// held factors of a bitwise-unchanged matrix adds nothing.
    pub fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// Factors `a`: returns the held factors when `a` is bit for bit the
    /// matrix factored last, refactors when the pattern matches the cached
    /// analysis, and analyzes afresh otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`LuError`] if the matrix is not square, is singular, or
    /// produces non-finite intermediates; a stale pivot sequence is
    /// retried with a fresh analysis rather than surfaced as an error.
    pub fn factor(&mut self, a: &CsrMatrix) -> Result<&LuFactors, LuError> {
        let changed = sync_bits(&mut self.factored, a.values());
        // `matches` compares whole patterns when `a` does not share the
        // analysis's `Arc`, so it runs once here and the result is passed on.
        let matches = self.factors.as_ref().is_some_and(|f| f.sym.matches(a));
        if changed || !matches {
            if let Err(e) = self.eliminate(a, matches) {
                self.factored.clear();
                return Err(e);
            }
        }
        // `factors` is populated by every successful elimination and
        // checked before a skip; structured for panic-freedom instead of
        // unwrap.
        self.factors.as_ref().ok_or(LuError::Singular(0))
    }

    /// Runs one elimination of `a`: a refactor on the cached analysis if
    /// it `matches` `a`'s pattern, and a fresh analysis without one or when
    /// the refactor finds its pivot sequence singular.
    fn eliminate(&mut self, a: &CsrMatrix, matches: bool) -> Result<(), LuError> {
        if let Some(factors) = self.factors.as_mut().filter(|_| matches) {
            self.factorizations += 1;
            match factors.refactor(a, &mut self.x) {
                Ok(()) => return Ok(()),
                // Pivot sequence went numerically bad: fall through to a
                // fresh analysis, like an independent factorization would.
                Err(LuError::Singular(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.factorizations += 1;
        let (sym, l_values, u_values) = gp_factor(a)?;
        self.factors = Some(LuFactors {
            sym: Arc::new(sym),
            l_values,
            u_values,
        });
        Ok(())
    }
}

/// Makes `copy` bit-equal to `values` and reports whether it was not
/// already. Blocks are compared by OR-folding their bit differences, which
/// vectorizes, and only the tail from the first differing block is copied.
fn sync_bits(copy: &mut Vec<f64>, values: &[f64]) -> bool {
    const BLOCK: usize = 64;
    if copy.len() != values.len() {
        copy.clear();
        copy.extend_from_slice(values);
        return true;
    }
    let first = copy
        .chunks(BLOCK)
        .zip(values.chunks(BLOCK))
        .position(|(c, v)| {
            c.iter()
                .zip(v)
                .fold(0, |acc, (x, y)| acc | (x.to_bits() ^ y.to_bits()))
                != 0
        });
    match first {
        Some(block) => {
            let k = block * BLOCK;
            copy[k..].copy_from_slice(&values[k..]);
            true
        }
        None => false,
    }
}

/// One-pass Gilbert–Peierls factorization: the analysis, with the `L` and
/// `U` values it computed on the way.
///
/// This is the single implementation behind [`SymbolicLu::analyze`]
/// (which drops the values) and [`LuWorkspace::factor`] (which keeps
/// both). The index arrays it builds move into the analysis.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by `n` and `nnz` of the held matrix being factored"
)]
fn gp_factor(a: &CsrMatrix) -> Result<(SymbolicLu, Vec<f64>, Vec<f64>), LuError> {
    if a.rows() != a.cols() {
        return Err(LuError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let q = amd::amd_order(a.pattern());

    // CSC view of A: csc_col[j] lists (row, value, CSR slot) of column j.
    let mut csc_colptr = vec![0usize; n + 1];
    let rp = a.pattern().row_ptr();
    let ci = a.pattern().col_idx();
    let vals = a.values();
    for &c in ci {
        csc_colptr[c + 1] += 1;
    }
    for j in 0..n {
        csc_colptr[j + 1] += csc_colptr[j];
    }
    let nnz = a.nnz();
    let mut csc_rowidx = vec![0usize; nnz];
    let mut csc_values = vec![0.0f64; nnz];
    let mut csc_src = vec![0usize; nnz];
    let mut next = csc_colptr.clone();
    for r in 0..n {
        for k in rp[r]..rp[r + 1] {
            let c = ci[k];
            let slot = next[c];
            next[c] += 1;
            csc_rowidx[slot] = r;
            csc_values[slot] = vals[k];
            csc_src[slot] = k;
        }
    }

    // Compressed-column L and U: pointers, row indices, values.
    let mut l_colptr = Vec::with_capacity(n + 1);
    let mut l_rows = Vec::with_capacity(nnz * 4);
    let mut l_values = Vec::with_capacity(nnz * 4);
    let mut u_colptr = Vec::with_capacity(n + 1);
    let mut u_rows = Vec::with_capacity(nnz * 4);
    let mut u_values = Vec::with_capacity(nnz * 4);
    l_colptr.push(0);
    u_colptr.push(0);

    // pinv[original_row] = factor position, or UNPIVOTED.
    let mut pinv = vec![UNPIVOTED; n];
    let mut p = vec![0usize; n];

    // Work arrays.
    let mut x = vec![0.0f64; n]; // scattered column values, by original row
    let mut mark = vec![usize::MAX; n]; // last column that visited this row
    let mut topo: Vec<usize> = Vec::with_capacity(n); // reach, topological order
    let mut dfs_stack: Vec<(usize, usize)> = Vec::new(); // (row, child cursor)

    for j in 0..n {
        let col = q[j];
        // --- Symbolic: compute reach of A(:, col) in the graph of L.
        topo.clear();
        for &r0 in &csc_rowidx[csc_colptr[col]..csc_colptr[col + 1]] {
            if mark[r0] == j {
                continue;
            }
            // Iterative DFS from r0.
            dfs_stack.push((r0, 0));
            mark[r0] = j;
            while let Some(&mut (r, ref mut cursor)) = dfs_stack.last_mut() {
                let pk = pinv[r];
                let mut descended = false;
                if pk != UNPIVOTED {
                    let start = l_colptr[pk];
                    let end = l_colptr[pk + 1];
                    while start + *cursor < end {
                        let child = l_rows[start + *cursor];
                        *cursor += 1;
                        if mark[child] != j {
                            mark[child] = j;
                            dfs_stack.push((child, 0));
                            descended = true;
                            break;
                        }
                    }
                }
                if !descended {
                    dfs_stack.pop();
                    topo.push(r);
                }
            }
        }
        // topo is in post-order = reverse topological order for the
        // elimination DAG; process it reversed.

        // --- Numeric: scatter A(:, col) then eliminate.
        for k in csc_colptr[col]..csc_colptr[col + 1] {
            x[csc_rowidx[k]] = csc_values[k];
        }
        // Entries reached purely through fill start at zero; x was
        // zeroed after the previous column, but fill rows not in A's
        // column still hold stale zeros — ensure they are reset.
        for &r in topo.iter() {
            if !x[r].is_finite() {
                return Err(LuError::NotFinite);
            }
        }
        for idx in (0..topo.len()).rev() {
            let r = topo[idx];
            let pk = pinv[r];
            if pk == UNPIVOTED {
                continue;
            }
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for t in l_colptr[pk]..l_colptr[pk + 1] {
                x[l_rows[t]] -= l_values[t] * xr;
            }
        }

        // --- Pivot selection among unpivoted reached rows.
        let mut max_abs = 0.0f64;
        let mut max_row = UNPIVOTED;
        for &r in &topo {
            if pinv[r] == UNPIVOTED {
                let v = x[r].abs();
                if v > max_abs {
                    max_abs = v;
                    max_row = r;
                }
            }
        }
        if max_row == UNPIVOTED || max_abs < PIVOT_EPSILON || !max_abs.is_finite() {
            return Err(LuError::Singular(j));
        }
        // Prefer the structural diagonal (original row == col) when it
        // is large enough.
        let mut pivot_row = max_row;
        if pinv[col] == UNPIVOTED
            && mark[col] == j
            && x[col].abs() >= DIAG_PREFERENCE * max_abs
            && x[col].abs() >= PIVOT_EPSILON
        {
            pivot_row = col;
        }
        let pivot_val = x[pivot_row];

        // --- Emit U column j: eliminated rows, then the diagonal.
        for idx in (0..topo.len()).rev() {
            let r = topo[idx];
            let pk = pinv[r];
            if pk != UNPIVOTED {
                u_rows.push(pk);
                u_values.push(x[r]);
            }
        }
        u_rows.push(j);
        u_values.push(pivot_val);
        u_colptr.push(u_rows.len());

        // --- Emit L column j (original row ids for now). Every unpivoted
        // reached row is emitted, including exact zeros: the skeleton must
        // depend only on (pattern, pivot sequence), never on values, or a
        // refactorization with different values on the same pattern would
        // silently lack fill slots.
        pinv[pivot_row] = j;
        p[j] = pivot_row;
        for &r in &topo {
            if pinv[r] == UNPIVOTED {
                let v = x[r] / pivot_val;
                if !v.is_finite() {
                    return Err(LuError::NotFinite);
                }
                l_rows.push(r);
                l_values.push(v);
            }
        }
        l_colptr.push(l_rows.len());

        // Clear x for the next column.
        for &r in &topo {
            x[r] = 0.0;
        }
    }

    // Convert L's row indices from original rows to factor positions.
    for r in &mut l_rows {
        debug_assert!(pinv[*r] != UNPIVOTED);
        *r = pinv[*r];
    }

    // --- Record the symbolic skeleton in factor coordinates.
    let mut a_colptr = Vec::with_capacity(n + 1);
    let mut a_rows = Vec::with_capacity(nnz);
    let mut a_src = Vec::with_capacity(nnz);
    a_colptr.push(0);
    for &col in q.iter() {
        for k in csc_colptr[col]..csc_colptr[col + 1] {
            a_rows.push(pinv[csc_rowidx[k]]);
            a_src.push(csc_src[k]);
        }
        a_colptr.push(a_rows.len());
    }
    // L and U grew by push from a guess; trim them to what they hold.
    l_rows.shrink_to_fit();
    l_values.shrink_to_fit();
    u_rows.shrink_to_fit();
    u_values.shrink_to_fit();
    let sym = SymbolicLu {
        n,
        pattern: Arc::clone(a.pattern()),
        q,
        p,
        a_colptr,
        a_rows,
        a_src,
        l_colptr,
        l_rows,
        u_colptr,
        u_rows,
    };
    Ok((sym, l_values, u_values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn csr_from(entries: &[(usize, usize, f64)], n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for &(r, c, v) in entries {
            t.add(r, c, v);
        }
        t.to_csr()
    }

    /// The one-shot oracle: a fresh workspace always runs the full analysis.
    fn fresh(a: &CsrMatrix) -> Result<LuFactors, LuError> {
        LuWorkspace::new().factor(a).cloned()
    }

    fn assert_solves(a: &CsrMatrix, b: &[f64]) {
        let lu = fresh(a).expect("factorization");
        let x = lu.solve(b);
        let ax = a.mul_vec(&x);
        for (l, r) in ax.iter().zip(b) {
            assert!((l - r).abs() < 1e-8 * (1.0 + r.abs()), "Ax={l} b={r}");
        }
        let xt = lu.solve_transpose(b);
        let atx = a.mul_vec_transpose(&xt);
        for (l, r) in atx.iter().zip(b) {
            assert!((l - r).abs() < 1e-8 * (1.0 + r.abs()), "Atx={l} b={r}");
        }
    }

    #[test]
    fn two_by_two() {
        let a = csr_from(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)], 2);
        assert_solves(&a, &[9.0, 11.0]);
    }

    #[test]
    fn requires_pivoting() {
        // Zero diagonal at (0,0): strict diagonal methods would die.
        let a = csr_from(&[(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0)], 2);
        assert_solves(&a, &[2.0, 3.0]);
    }

    #[test]
    fn tridiagonal_chain() {
        let n = 50;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 2.0 + i as f64 * 0.01));
            if i > 0 {
                entries.push((i, i - 1, -1.0));
                entries.push((i - 1, i, -1.0));
            }
        }
        let a = csr_from(&entries, n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        assert_solves(&a, &b);
    }

    #[test]
    fn matches_dense_reference() {
        let n = 30;
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (1u64 << 31) as f64 - 0.5
        };
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 5.0 + next()));
            for _ in 0..3 {
                let j = ((next().abs() * n as f64) as usize).min(n - 1);
                if j != i {
                    entries.push((i, j, next()));
                }
            }
        }
        let a = csr_from(&entries, n);
        let b: Vec<f64> = (0..n).map(|i| next() * i as f64).collect();
        let dense = a.to_dense();
        let x_ref = dense.solve(&b).expect("dense solvable");
        let lu = fresh(&a).unwrap();
        let x = lu.solve(&b);
        for (s, d) in x.iter().zip(&x_ref) {
            assert!((s - d).abs() < 1e-8 * (1.0 + d.abs()), "{s} vs {d}");
        }
        let xt = lu.solve_transpose(&b);
        let xt_ref = dense.solve_transpose(&b).expect("dense transpose solvable");
        for (s, d) in xt.iter().zip(&xt_ref) {
            assert!((s - d).abs() < 1e-8 * (1.0 + d.abs()), "{s} vs {d}");
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a = csr_from(&[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)], 2);
        assert!(matches!(fresh(&a), Err(LuError::Singular(_))));
    }

    #[test]
    fn structurally_singular_detected() {
        // Empty column 1.
        let a = csr_from(&[(0, 0, 1.0), (1, 0, 1.0), (1, 1, 0.0)], 2);
        assert!(fresh(&a).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let mut t = TripletMatrix::new(2, 3);
        t.add(0, 0, 1.0);
        let a = t.to_csr();
        assert!(matches!(
            fresh(&a),
            Err(LuError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn nan_input_rejected() {
        let a = csr_from(&[(0, 0, f64::NAN), (1, 1, 1.0)], 2);
        assert!(fresh(&a).is_err());
    }

    fn assert_factors_bit_equal(a: &LuFactors, b: &LuFactors) {
        let (s, t) = (&*a.sym, &*b.sym);
        assert_eq!(s.n, t.n);
        assert_eq!(s.p, t.p);
        assert_eq!(s.q, t.q);
        assert_eq!(s.l_colptr, t.l_colptr);
        assert_eq!(s.l_rows, t.l_rows);
        assert_eq!(s.u_colptr, t.u_colptr);
        assert_eq!(s.u_rows, t.u_rows);
        assert_eq!(a.l_values.len(), s.l_rows.len());
        assert_eq!(a.u_values.len(), s.u_rows.len());
        for (x, y) in a.l_values.iter().zip(&b.l_values) {
            assert_eq!(x.to_bits(), y.to_bits(), "L value mismatch");
        }
        for (x, y) in a.u_values.iter().zip(&b.u_values) {
            assert_eq!(x.to_bits(), y.to_bits(), "U value mismatch");
        }
    }

    /// Refactors `a` on `sym` through a workspace seeded with it, asserting
    /// that the call ran exactly one elimination and kept the analysis: a
    /// `Singular` fallback would run two and replace it.
    fn refactor_on(sym: &Arc<SymbolicLu>, a: &CsrMatrix) -> LuFactors {
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(sym));
        let got = ws.factor(a).unwrap().clone();
        assert_eq!(ws.factorizations(), 1);
        assert!(Arc::ptr_eq(sym, &got.sym));
        got
    }

    #[test]
    fn split_bit_identical_to_oneshot() {
        let a = csr_from(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)], 2);
        let oneshot = fresh(&a).unwrap();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        assert_factors_bit_equal(&oneshot, &refactor_on(&sym, &a));
    }

    #[test]
    fn refactor_new_values_matches_fresh_factor() {
        let n = 50;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 2.0 + i as f64 * 0.01));
            if i > 0 {
                entries.push((i, i - 1, -1.0));
                entries.push((i - 1, i, -1.0));
            }
        }
        let a = csr_from(&entries, n);
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        // New values on the same pattern (still diagonally dominant so the
        // recorded pivot sequence stays the one a fresh factor would pick).
        let mut b = a.clone();
        for (k, v) in b.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.003 * k as f64;
        }
        let oneshot = fresh(&b).unwrap();
        assert_factors_bit_equal(&oneshot, &refactor_on(&sym, &b));
    }

    /// A 3×3 tridiagonal matrix with two stored zeros off the diagonal.
    fn with_stored_zeros() -> CsrMatrix {
        csr_from(
            &[
                (0, 0, 2.0),
                (0, 1, 0.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, 0.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
            3,
        )
    }

    #[test]
    fn refactor_fills_slots_dropped_by_dc_zeros() {
        // Analysis values with exact zeros at some slots (a DC conductance
        // matrix scattered onto the G∪C union pattern); refactor with those
        // slots populated. The skeleton must carry the fill regardless.
        let zeroed = with_stored_zeros();
        let sym = Arc::new(SymbolicLu::analyze(&zeroed).unwrap());
        let mut full = zeroed.clone();
        for v in full.values_mut().iter_mut() {
            if *v == 0.0 {
                *v = -0.5;
            }
        }
        let got = refactor_on(&sym, &full);
        let oneshot = fresh(&full).unwrap();
        assert_factors_bit_equal(&oneshot, &got);
        let b = [1.0, 2.0, 3.0];
        let x = got.solve(&b);
        let ax = full.mul_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_pattern_mismatch_rejected() {
        // A workspace seeded for one pattern never refactors another on its
        // skeleton: it analyzes the other afresh, in one elimination.
        let a = csr_from(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)], 2);
        let other = csr_from(&[(0, 0, 4.0), (1, 1, 3.0)], 2);
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        assert!(!sym.matches(&other));
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
        let got = ws.factor(&other).unwrap().clone();
        assert_eq!(ws.factorizations(), 1);
        assert!(!Arc::ptr_eq(&sym, &got.sym));
        assert!(got.sym.matches(&other));
        assert_factors_bit_equal(&fresh(&other).unwrap(), &got);
    }

    #[test]
    fn workspace_refactors_and_falls_back_on_singular() {
        // First matrix picks the diagonal pivots; second has zero diagonals
        // so the recorded sequence is singular — the workspace must fall
        // back to a fresh analysis and still solve.
        let a = csr_from(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)], 2);
        let mut ws = LuWorkspace::new();
        ws.factor(&a).unwrap();
        let sym0 = Arc::clone(ws.symbolic().unwrap());
        let b = csr_from(&[(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0)], 2);
        let x = ws.factor(&b).unwrap().solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
        // The fallback replaced the cached analysis: refactor + analysis.
        let sym1 = Arc::clone(ws.symbolic().unwrap());
        assert!(!Arc::ptr_eq(&sym0, &sym1));
        assert_eq!(ws.factorizations(), 3);
        // A repeat of `b` gets the re-analyzed factors without an
        // elimination.
        let held = ws.factor(&b).unwrap().clone();
        assert_eq!(ws.factorizations(), 3);
        assert!(Arc::ptr_eq(&sym1, ws.symbolic().unwrap()));
        assert_factors_bit_equal(&fresh(&b).unwrap(), &held);
        // And refactoring `a` again through the new symbolic still works.
        let x = ws.factor(&a).unwrap().solve(&[9.0, 11.0]);
        assert!((x[0] - 1.6).abs() < 1e-12 && (x[1] - 2.6).abs() < 1e-12);
    }

    #[test]
    fn workspace_matches_oneshot_across_sequence() {
        let n = 30;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 3.0 + i as f64 * 0.1));
            let far = (i * 7) % n;
            if far != i {
                entries.push((i, far, -0.25));
                entries.push((far, i, -0.25));
            }
        }
        let base = csr_from(&entries, n);
        let mut ws = LuWorkspace::new();
        for step in 0..4 {
            let mut m = base.clone();
            for (k, v) in m.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 0.001 * (step * 31 + k) as f64;
            }
            let oneshot = fresh(&m).unwrap();
            let ws_factors = ws.factor(&m).unwrap();
            assert_factors_bit_equal(&oneshot, ws_factors);
        }
    }

    #[test]
    fn workspace_skips_a_bitwise_unchanged_matrix() {
        let a = with_stored_zeros();
        let mut ws = LuWorkspace::new();
        ws.factor(&a).unwrap();
        assert_eq!(ws.factorizations(), 1);
        // A separately built copy: equal values, not the same allocation.
        let same = with_stored_zeros();
        let held = ws.factor(&same).unwrap().clone();
        assert_eq!(ws.factorizations(), 1);
        assert_factors_bit_equal(&fresh(&a).unwrap(), &held);
    }

    #[test]
    fn workspace_refactors_on_any_bit_change() {
        let a = with_stored_zeros();
        let mut ws = LuWorkspace::new();
        ws.factor(&a).unwrap();
        // One ulp on the first diagonal entry.
        let mut ulp = a.clone();
        ulp.values_mut()[0] = f64::from_bits(2.0f64.to_bits() + 1);
        let got = ws.factor(&ulp).unwrap().clone();
        assert_eq!(ws.factorizations(), 2);
        assert_factors_bit_equal(&fresh(&ulp).unwrap(), &got);
        // A stored 0.0 turned into -0.0 compares equal as f64, not as bits.
        let mut neg = ulp.clone();
        let slot = neg.values().iter().position(|v| *v == 0.0).unwrap();
        neg.values_mut()[slot] = -0.0;
        let got = ws.factor(&neg).unwrap().clone();
        assert_eq!(ws.factorizations(), 3);
        assert_factors_bit_equal(&fresh(&neg).unwrap(), &got);
    }

    #[test]
    fn workspace_refactors_after_a_not_finite_error() {
        let a = with_stored_zeros();
        let mut ws = LuWorkspace::new();
        ws.factor(&a).unwrap();
        let mut nan = a.clone();
        nan.values_mut()[0] = f64::NAN;
        assert_eq!(ws.factor(&nan).unwrap_err(), LuError::NotFinite);
        // The same NaN matrix again: still an error, never a skip.
        assert_eq!(ws.factor(&nan).unwrap_err(), LuError::NotFinite);
        assert_eq!(ws.factorizations(), 3);
        // The good values again: the failed refactor left the factors
        // unspecified, so this must eliminate, not return them.
        let got = ws.factor(&a).unwrap().clone();
        assert_eq!(ws.factorizations(), 4);
        assert_factors_bit_equal(&fresh(&a).unwrap(), &got);
    }

    #[test]
    fn workspace_never_skips_across_patterns() {
        // Same nnz and the same value slice, transposed patterns.
        let upper = csr_from(&[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 3.0)], 2);
        let lower = csr_from(&[(0, 0, 4.0), (1, 0, 1.0), (1, 1, 3.0)], 2);
        assert_eq!(upper.values(), lower.values());
        let mut ws = LuWorkspace::new();
        ws.factor(&upper).unwrap();
        let got = ws.factor(&lower).unwrap().clone();
        assert_eq!(ws.factorizations(), 2);
        assert_factors_bit_equal(&fresh(&lower).unwrap(), &got);
    }

    #[test]
    fn seeded_workspace_factors_on_its_first_call() {
        let a = with_stored_zeros();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
        let got = ws.factor(&a).unwrap().clone();
        assert_eq!(ws.factorizations(), 1);
        assert!(Arc::ptr_eq(&sym, ws.symbolic().unwrap()));
        assert_factors_bit_equal(&fresh(&a).unwrap(), &got);
        ws.factor(&a).unwrap();
        assert_eq!(ws.factorizations(), 1);
    }

    #[test]
    fn solve_into_bit_identical_and_reusable() {
        let a = csr_from(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 3.0)], 2);
        let lu = fresh(&a).unwrap();
        let mut work = Vec::new();
        let mut out = Vec::new();
        for b in [[9.0, 11.0], [1.0, -2.0], [0.0, 5.0]] {
            lu.solve_into(&b, &mut work, &mut out);
            let reference = lu.solve(&b);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            lu.solve_transpose_into(&b, &mut work, &mut out);
            let reference = lu.solve_transpose(&b);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn fill_ratio_reported() {
        let a = csr_from(&[(0, 0, 1.0), (1, 1, 2.0)], 2);
        let lu = fresh(&a).unwrap();
        assert!(lu.fill_ratio(a.nnz()) >= 1.0);
        assert_eq!(lu.dim(), 2);
        assert!(lu.u_nnz() >= 2);
    }
}
