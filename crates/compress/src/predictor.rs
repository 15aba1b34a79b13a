//! The spatiotemporal prediction model (paper §4.2, eq. 6).
//!
//! For every non-zero, a small candidate set is evaluated and the best fit
//! is selected (then identified by 1–2 selection bits, or predicted by the
//! Markov model). The temporal candidate comes from the temporally
//! adjacent reference matrix `M_{t+1}`; the *stamp-spatial* candidates of
//! eq. 6 come from the **current matrix's already-processed values** —
//! which is what makes them powerful: MNA reciprocity makes the transpose
//! element of the *same* matrix bit-exact for R/C/reciprocal stamps, while
//! the temporal value is merely close. Encoding order is `D`, then `L`,
//! then `U`, so every spatial partner is decoded before it is needed:
//!
//! | region (order) | code 0 | code 1 | code 2 | code 3 |
//! |----------------|--------|--------|--------|--------|
//! | `D` (1st, i=j) | temporal `M̂[i,i]` | previous diagonal `V(i',i')` | — | — |
//! | `L` (2nd, i>j) | temporal `M̂[i,j]` | `−V(i,i)` | `−V(j,j)` | last value (same row) |
//! | `U` (3rd, i<j) | temporal `M̂[i,j]` | transpose `V(j,i)` | `−V(i,i)` | `−V(j,j)` |
//!
//! (`M̂` = reference matrix, `V` = current matrix.) Candidates whose
//! structural partner is absent — or, in chunked mode, lies outside the
//! chunk — fall back to the temporal value, keeping every code decodable.
//! The diagonal negation implements the paper's sign-bit inversion: MNA
//! diagonals carry the opposite sign from off-diagonals
//! (`S(i,i) = −S(i,j)` for linear stamps), so `−V(i,i)` is the natural
//! spatial predictor for off-diagonal values.

use crate::stats::ModelClass;
use masc_sparse::Pattern;

/// Sentinel for "no structural partner".
const NONE: usize = usize::MAX;

/// Triangular region of a non-zero (paper's U/L/D partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Strictly upper triangle.
    Upper,
    /// Strictly lower triangle.
    Lower,
    /// Main diagonal.
    Diag,
}

impl Region {
    /// Number of selection bits for best-fit encoding in this region
    /// (paper Algorithm 1, lines 9–13).
    pub fn selection_bits(self) -> u32 {
        match self {
            Region::Diag => 1,
            _ => 2,
        }
    }

    /// Number of candidate predictors in this region.
    pub fn candidate_count(self) -> usize {
        match self {
            Region::Diag => 2,
            _ => 4,
        }
    }

    /// Dense index 0‥3 for table lookups.
    pub fn index(self) -> usize {
        match self {
            Region::Upper => 0,
            Region::Lower => 1,
            Region::Diag => 2,
        }
    }
}

/// Precomputed structural maps for one shared pattern — the paper's
/// "matrix partitioning step", done once per tensor instead of per matrix.
#[derive(Debug, Clone)]
pub struct StampMaps {
    /// Value indices in encode order: all `D`, then all `L`, then all `U`.
    order: Vec<usize>,
    /// Region boundaries in `order`: `[0, d_end, l_end, total]`.
    bounds: [usize; 4],
    /// Per value index: region.
    region: Vec<Region>,
    /// Per value index: transpose partner value index (or `NONE`).
    transpose: Vec<usize>,
    /// Per value index: diagonal of the row (or `NONE`).
    diag_row: Vec<usize>,
    /// Per value index: diagonal of the column (or `NONE`).
    diag_col: Vec<usize>,
    /// Per value index: the in-matrix predecessor — previous `L` non-zero
    /// in the same row for `L`, previous diagonal for `D` (or `NONE`).
    prev_same: Vec<usize>,
    /// Per value index: its position in `order` (inverse permutation);
    /// chunked codecs use it to confine in-matrix references to a chunk.
    order_pos: Vec<usize>,
}

impl StampMaps {
    /// Builds the maps for a pattern.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `pattern.nnz()`, a validated pattern already held"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "every value index from `partition_uld` and the row walk is `< nnz`, the length of each table"
    )]
    pub fn new(pattern: &Pattern) -> Self {
        let nnz = pattern.nnz();
        let part = pattern.partition_uld();
        let mut order = Vec::with_capacity(nnz);
        order.extend_from_slice(&part.diag);
        let d_end = order.len();
        order.extend_from_slice(&part.lower);
        let l_end = order.len();
        order.extend_from_slice(&part.upper);

        let mut region = vec![Region::Upper; nnz];
        for &k in &part.lower {
            region[k] = Region::Lower;
        }
        for &k in &part.diag {
            region[k] = Region::Diag;
        }

        let mut transpose = vec![NONE; nnz];
        let mut diag_row = vec![NONE; nnz];
        let mut diag_col = vec![NONE; nnz];
        let mut prev_same = vec![NONE; nnz];

        let col_idx = pattern.col_idx();
        for k in 0..nnz {
            let row = pattern.row_of(k);
            let col = col_idx[k];
            transpose[k] = pattern.transpose_of(k).unwrap_or(NONE);
            diag_row[k] = pattern.diag_of(row).unwrap_or(NONE);
            diag_col[k] = pattern.diag_of(col).unwrap_or(NONE);
            let _ = (row, col);
        }
        // Last-value chains: previous L non-zero in the same row.
        // part.lower is row-major, so a linear scan suffices.
        let mut prev_in_row: Option<(usize, usize)> = None; // (row, value idx)
        for &k in &part.lower {
            let row = pattern.row_of(k);
            if let Some((prow, pk)) = prev_in_row {
                if prow == row {
                    prev_same[k] = pk;
                }
            }
            prev_in_row = Some((row, k));
        }
        // Previous-diagonal chain.
        for w in part.diag.windows(2) {
            prev_same[w[1]] = w[0];
        }

        let mut order_pos = vec![0usize; order.len()];
        for (pos, &k) in order.iter().enumerate() {
            order_pos[k] = pos;
        }

        Self {
            order,
            bounds: [0, d_end, l_end, nnz],
            region,
            transpose,
            diag_row,
            diag_col,
            prev_same,
            order_pos,
        }
    }

    /// Value indices in encode order (D, L, U).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Region of value index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a value index of the pattern.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `k` must be a value index, asserted in debug builds"
    )]
    pub fn region_of(&self, k: usize) -> Region {
        debug_assert!(k < self.region.len(), "k must be a value index");
        self.region[k]
    }

    /// `[d_start, d_end, l_end, total]` boundaries within [`order`].
    ///
    /// [`order`]: StampMaps::order
    pub fn bounds(&self) -> [usize; 4] {
        self.bounds
    }

    /// Position of value index `k` in the encode [`order`](Self::order).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a value index of the pattern.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `k` must be a value index, asserted in debug builds"
    )]
    pub fn order_pos_of(&self, k: usize) -> usize {
        debug_assert!(k < self.order_pos.len(), "k must be a value index");
        self.order_pos[k]
    }

    /// The candidate predictions for value index `k`.
    ///
    /// `reference` is `M_{t+1}`'s values; `current` is the partially
    /// decoded/encoded `M_t` (only already-processed positions are read).
    /// `sign_invert` controls the diagonal negation (an ablation knob; the
    /// paper's eq. 6 uses the negated form). In-matrix candidates
    /// (last-value, previous-diagonal) are only used when their source lies
    /// at order position `>= chunk_start`, so independently-decoded chunks
    /// never reference values outside themselves.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`k` is a value index (asserted in debug builds) and `reference.len() == nnz`; partner indices are `NONE` or value indices"
    )]
    pub fn candidates(
        &self,
        k: usize,
        reference: &[f64],
        current: &[f64],
        sign_invert: bool,
        chunk_start: usize,
    ) -> [f64; 4] {
        debug_assert!(k < self.region.len(), "k must be a value index");
        let temporal = reference[k];
        let s = if sign_invert { -1.0 } else { 1.0 };
        // All spatial candidates read the current matrix; a partner is
        // usable only if it is structurally present AND already processed
        // within this chunk (D ≺ L ≺ U ordering guarantees the region-level
        // causality; `order_pos` enforces it per chunk).
        let my_pos = self.order_pos[k];
        let (transpose, diag_row, diag_col, prev_same) = (
            self.transpose[k],
            self.diag_row[k],
            self.diag_col[k],
            self.prev_same[k],
        );
        let fetch_cur = |idx: usize, scale: f64| -> f64 {
            if idx == NONE || self.order_pos[idx] < chunk_start || self.order_pos[idx] >= my_pos {
                temporal
            } else {
                scale * current[idx]
            }
        };
        match self.region[k] {
            Region::Upper => [
                temporal,
                fetch_cur(transpose, 1.0),
                fetch_cur(diag_row, s),
                fetch_cur(diag_col, s),
            ],
            Region::Lower => [
                temporal,
                fetch_cur(diag_row, s),
                fetch_cur(diag_col, s),
                fetch_cur(prev_same, 1.0),
            ],
            Region::Diag => [temporal, fetch_cur(prev_same, 1.0), temporal, temporal],
        }
    }

    /// [`candidates`](Self::candidates) over a *chunk-local* value buffer.
    ///
    /// `local[p - chunk_start]` holds the decoded value of order position
    /// `p`; only positions in `chunk_start..my_pos` are ever read, so the
    /// decoder gives each chunk a buffer of exactly the chunk's length
    /// instead of an nnz-sized scratch matrix.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`k` is a value index (asserted in debug builds); a partner is read only at `chunk_start ≤ pos < my_pos`, inside `local`"
    )]
    pub fn candidates_local(
        &self,
        k: usize,
        reference: &[f64],
        local: &[f64],
        sign_invert: bool,
        chunk_start: usize,
    ) -> [f64; 4] {
        debug_assert!(k < self.region.len(), "k must be a value index");
        let temporal = reference[k];
        let s = if sign_invert { -1.0 } else { 1.0 };
        let my_pos = self.order_pos[k];
        let (transpose, diag_row, diag_col, prev_same) = (
            self.transpose[k],
            self.diag_row[k],
            self.diag_col[k],
            self.prev_same[k],
        );
        let fetch_cur = |idx: usize, scale: f64| -> f64 {
            if idx == NONE {
                return temporal;
            }
            let pos = self.order_pos[idx];
            if pos < chunk_start || pos >= my_pos {
                temporal
            } else {
                scale * local[pos - chunk_start]
            }
        };
        match self.region[k] {
            Region::Upper => [
                temporal,
                fetch_cur(transpose, 1.0),
                fetch_cur(diag_row, s),
                fetch_cur(diag_col, s),
            ],
            Region::Lower => [
                temporal,
                fetch_cur(diag_row, s),
                fetch_cur(diag_col, s),
                fetch_cur(prev_same, 1.0),
            ],
            Region::Diag => [temporal, fetch_cur(prev_same, 1.0), temporal, temporal],
        }
    }

    /// Maps a (region, selection-code) pair to the aggregate model class
    /// reported in paper Fig. 6.
    pub fn model_class(region: Region, code: u32) -> ModelClass {
        match (region, code) {
            (_, 0) => ModelClass::Temporal,
            // The paper's last-value predictor applies to set L only; the
            // diagonal's previous-diagonal candidate realizes eq. 6's
            // V̂(j,j) = V̂(i,i) stamp relation.
            (Region::Lower, 3) => ModelClass::LastValue,
            _ => ModelClass::Stamp,
        }
    }
}

/// Picks the candidate closest to `truth` (the paper's `eval`/argmin).
///
/// Bit-exact matches short-circuit, with the *stamp* candidates (codes
/// 1‥3) checked before the temporal candidate: when a linear element makes
/// both predictors exact, the spatial model is credited — eq. 6 leaves the
/// tie unspecified, and the paper's Fig. 6 selection rates (stamp chosen
/// up to ~60 %) are only reachable under this preference. The choice does
/// not affect the compressed size (both residuals are zero and the
/// selection field has fixed width); it only shifts the selection
/// statistics and the Markov model's transition mass. Inexact ties resolve
/// to the lowest code; non-finite differences lose.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass `count = candidate_count() ≤ 4`, the array length"
)]
pub fn best_fit(candidates: &[f64; 4], count: usize, truth: f64) -> u32 {
    for i in (1..count).chain([0]) {
        if candidates[i].to_bits() == truth.to_bits() {
            return i as u32;
        }
    }
    let mut best = 0u32;
    let mut best_diff = f64::INFINITY;
    for (i, &cand) in candidates.iter().take(count).enumerate() {
        let diff = (cand - truth).abs();
        if diff < best_diff {
            best_diff = diff;
            best = i as u32;
        }
    }
    best
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use masc_sparse::TripletMatrix;

    /// 3×3 structurally-symmetric pattern with full tridiagonal structure.
    fn tridiag() -> (Pattern, StampMaps) {
        let mut t = TripletMatrix::new(3, 3);
        for i in 0..3usize {
            t.add(i, i, 1.0);
            if i > 0 {
                t.add(i, i - 1, 1.0);
                t.add(i - 1, i, 1.0);
            }
        }
        let p = t.to_csr().pattern().as_ref().clone();
        let m = StampMaps::new(&p);
        (p, m)
    }

    #[test]
    fn order_covers_all_values_d_l_u() {
        let (p, m) = tridiag();
        assert_eq!(m.order().len(), p.nnz());
        let [s, d_end, l_end, total] = m.bounds();
        assert_eq!(s, 0);
        assert_eq!(d_end, 3); // (0,0), (1,1), (2,2)
        assert_eq!(l_end, 5); // (1,0), (2,1)
        assert_eq!(total, 7);
        // Everything before d_end is Diag, then Lower, then Upper.
        for (i, &k) in m.order().iter().enumerate() {
            let expect = if i < d_end {
                Region::Diag
            } else if i < l_end {
                Region::Lower
            } else {
                Region::Upper
            };
            assert_eq!(m.region_of(k), expect);
        }
    }

    #[test]
    fn upper_candidates_follow_eq6() {
        let (p, m) = tridiag();
        let reference: Vec<f64> = (0..p.nnz()).map(|k| 10.0 + k as f64).collect();
        // Current matrix partially decoded (D and L regions done).
        let current: Vec<f64> = (0..p.nnz()).map(|k| 100.0 + k as f64).collect();
        // Upper element (0,1): spatial candidates come from the *current*
        // matrix (transpose + negated diagonals), temporal from reference.
        let k = p.find(0, 1).unwrap();
        let c = m.candidates(k, &reference, &current, true, 0);
        assert_eq!(c[0], reference[k]); // temporal
        assert_eq!(c[1], current[p.find(1, 0).unwrap()]); // transpose (current)
        assert_eq!(c[2], -current[p.find(0, 0).unwrap()]); // −diag row (current)
        assert_eq!(c[3], -current[p.find(1, 1).unwrap()]); // −diag col (current)
    }

    #[test]
    fn sign_invert_flag_controls_negation() {
        let (p, m) = tridiag();
        let reference: Vec<f64> = (0..p.nnz()).map(|k| 1.0 + k as f64).collect();
        let current: Vec<f64> = (0..p.nnz()).map(|k| 5.0 + k as f64).collect();
        let k = p.find(0, 1).unwrap();
        let with = m.candidates(k, &reference, &current, true, 0);
        let without = m.candidates(k, &reference, &current, false, 0);
        assert_eq!(with[2], -without[2]);
        assert_eq!(with[1], without[1]); // transpose unaffected
    }

    #[test]
    fn lower_uses_last_value_from_current_matrix() {
        let mut t = TripletMatrix::new(3, 3);
        // Row 2 has two lower non-zeros: (2,0) and (2,1).
        for i in 0..3usize {
            t.add(i, i, 1.0);
        }
        t.add(2, 0, 1.0);
        t.add(2, 1, 1.0);
        let p = t.to_csr().pattern().as_ref().clone();
        let m = StampMaps::new(&p);
        let k01 = p.find(2, 0).unwrap();
        let k11 = p.find(2, 1).unwrap();
        let reference = vec![0.5; p.nnz()];
        let mut current = vec![0.0; p.nnz()];
        current[k01] = 42.0;
        let c = m.candidates(k11, &reference, &current, true, 0);
        assert_eq!(c[3], 42.0); // last value = (2,0) of the current matrix
                                // First lower nz in the row has no predecessor → temporal fallback.
        let c0 = m.candidates(k01, &reference, &current, true, 0);
        assert_eq!(c0[3], reference[k01]);
    }

    #[test]
    fn diag_chain_uses_previous_diag() {
        let (p, m) = tridiag();
        let reference = vec![0.25; p.nnz()];
        let mut current = vec![0.0; p.nnz()];
        let d0 = p.find(0, 0).unwrap();
        let d1 = p.find(1, 1).unwrap();
        current[d0] = -3.0;
        let c = m.candidates(d1, &reference, &current, true, 0);
        assert_eq!(c[0], reference[d1]);
        assert_eq!(c[1], -3.0);
        // First diagonal falls back to temporal.
        let c0 = m.candidates(d0, &reference, &current, true, 0);
        assert_eq!(c0[1], reference[d0]);
    }

    #[test]
    fn best_fit_selects_argmin_with_exact_shortcut() {
        let cands = [1.0, 2.0, 3.0, 2.01];
        assert_eq!(best_fit(&cands, 4, 2.005), 1);
        assert_eq!(best_fit(&cands, 4, 3.0), 2); // exact match wins
        assert_eq!(best_fit(&cands, 2, 5.0), 1); // restricted count
        assert_eq!(best_fit(&cands, 4, f64::NAN), 0); // NaN: all diffs NaN → code 0
    }

    #[test]
    fn model_class_mapping() {
        assert_eq!(
            StampMaps::model_class(Region::Upper, 0),
            ModelClass::Temporal
        );
        assert_eq!(StampMaps::model_class(Region::Upper, 1), ModelClass::Stamp);
        assert_eq!(
            StampMaps::model_class(Region::Lower, 3),
            ModelClass::LastValue
        );
        assert_eq!(StampMaps::model_class(Region::Diag, 1), ModelClass::Stamp);
        assert_eq!(StampMaps::model_class(Region::Lower, 1), ModelClass::Stamp);
    }

    #[test]
    fn selection_bits_match_paper() {
        assert_eq!(Region::Diag.selection_bits(), 1);
        assert_eq!(Region::Upper.selection_bits(), 2);
        assert_eq!(Region::Lower.selection_bits(), 2);
    }

    #[test]
    fn asymmetric_pattern_falls_back_gracefully() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 1.0); // no (1,0), no (0,0) diagonal
        t.add(1, 1, 1.0);
        let p = t.to_csr().pattern().as_ref().clone();
        let m = StampMaps::new(&p);
        let k = p.find(0, 1).unwrap();
        let reference = vec![7.0, 8.0];
        let mut current = vec![0.0, 0.0];
        current[p.find(1, 1).unwrap()] = 20.0; // diagonal decoded first
        let c = m.candidates(k, &reference, &current, true, 0);
        // Transpose missing, diag row missing → temporal fallbacks;
        // diag col (1,1) present and already decoded.
        assert_eq!(c[1], 7.0);
        assert_eq!(c[2], 7.0);
        assert_eq!(c[3], -20.0);
    }

    #[test]
    fn local_candidates_agree_with_global() {
        let (p, m) = tridiag();
        let reference: Vec<f64> = (0..p.nnz()).map(|k| 10.0 + k as f64).collect();
        let current: Vec<f64> = (0..p.nnz()).map(|k| 100.0 + 3.0 * k as f64).collect();
        // Whole matrix as one chunk: local is the order-gathered current.
        let local: Vec<f64> = m.order().iter().map(|&k| current[k]).collect();
        for &k in m.order() {
            assert_eq!(
                m.candidates(k, &reference, &current, true, 0),
                m.candidates_local(k, &reference, &local, true, 0),
                "value {k}"
            );
        }
        // Chunked: a chunk starting mid-order sees only its own span.
        let start = 3;
        let local_chunk: Vec<f64> = m.order()[start..].iter().map(|&k| current[k]).collect();
        for (off, &k) in m.order()[start..].iter().enumerate() {
            let _ = off;
            assert_eq!(
                m.candidates(k, &reference, &current, true, start),
                m.candidates_local(k, &reference, &local_chunk, true, start),
                "value {k} at chunk_start {start}"
            );
        }
    }

    #[test]
    fn chunk_start_confines_current_matrix_reads() {
        let (p, m) = tridiag();
        let reference = vec![1.0; p.nnz()];
        let current = vec![9.0; p.nnz()];
        let k = p.find(0, 1).unwrap(); // an Upper element, late in order
                                       // With the chunk starting at this element's own position, every
                                       // current-matrix partner is out of reach → all temporal.
        let pos = m.order_pos_of(k);
        let c = m.candidates(k, &reference, &current, true, pos);
        assert_eq!(c, [1.0; 4]);
    }
}
