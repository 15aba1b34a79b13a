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

/// Sentinel for "no usable partner" in [`StampMaps`]' partner table.
const NONE: u32 = u32::MAX;

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

    /// How the partner behind selection codes 1–3 enters the prediction:
    /// `Some(negate)` for the diagonal partners of off-diagonal values,
    /// taken times ±1.0 (−1.0 under sign inversion), `None` for a copy.
    fn signs(self, sign_invert: bool) -> [Option<bool>; 3] {
        let s = Some(sign_invert);
        match self {
            Region::Upper => [None, s, s],
            Region::Lower => [s, s, None],
            Region::Diag => [None; 3],
        }
    }
}

/// `v` times ±1.0, spelled out as x86-64 computes the product: exact `±v`
/// for a number, and a NaN comes back quieted with its sign and payload.
/// Rust leaves a NaN product's sign and payload open, and the optimizer
/// folds `-1.0 * v` into a sign flip in some contexts but not others; the
/// wire format needs one answer.
fn times_unit(v: f64, negate: bool) -> f64 {
    const QUIET: u64 = 1 << 51;
    if v.is_nan() {
        f64::from_bits(v.to_bits() | QUIET)
    } else if negate {
        -v
    } else {
        v
    }
}

/// Precomputed structural maps for one shared pattern — the paper's
/// "matrix partitioning step", done once per tensor instead of per matrix.
///
/// Everything is indexed by *order position* (the place of a value in the
/// D, L, U encode order), so a codec walks the tables front to back and
/// never maps a value index back to its position. 20 bytes per non-zero.
#[derive(Debug, Clone)]
pub struct StampMaps {
    /// Value indices in encode order: all `D`, then all `L`, then all `U`.
    order: Vec<usize>,
    /// Region boundaries in `order`: `[0, d_end, l_end, total]`.
    bounds: [usize; 4],
    /// Per order position: the order positions of the partners behind
    /// selection codes 1–3, or `NONE` when the partner is absent or does
    /// not come earlier in the order.
    partners: Vec<[u32; 3]>,
}

impl StampMaps {
    /// Builds the maps for a pattern.
    ///
    /// A partner whose order position does not fit in a `u32` (a pattern of
    /// more than 4 294 967 294 non-zeros) is treated as absent.
    #[expect(
        clippy::disallowed_methods,
        reason = "sized by `pattern.nnz()`, a validated pattern already held"
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

        let mut order_pos = vec![0usize; nnz];
        for (pos, &k) in order.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "`order` is a permutation of `0..nnz` (from `partition_uld`), the length of `order_pos`"
            )]
            let slot = &mut order_pos[k];
            *slot = pos;
        }
        let col_idx = pattern.col_idx();
        let mut partners = Vec::with_capacity(nnz);
        for (pos, &k) in order.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "`k`, an entry of `order`, is `< nnz`, the length of `col_idx`"
            )]
            let (row, col) = (pattern.row_of(k), col_idx[k]);
            let diag_row = pattern.diag_of(row);
            let diag_col = pattern.diag_of(col);
            // The in-matrix predecessor: the previous diagonal for `D`, the
            // previous `L` non-zero of the same row for `L` (`part.lower`
            // is row-major, so it is the order neighbour or nothing).
            #[expect(
                clippy::indexing_slicing,
                reason = "`p = pos - 1` and `pos < order.len()`"
            )]
            let prev = pos.checked_sub(1).map(|p| order[p]);
            let slots = if pos < d_end {
                [prev, None, None]
            } else if pos < l_end {
                let prev_same = prev.filter(|&p| pos > d_end && pattern.row_of(p) == row);
                [diag_row, diag_col, prev_same]
            } else {
                [pattern.transpose_of(k), diag_row, diag_col]
            };
            #[expect(
                clippy::indexing_slicing,
                reason = "every slot is a value index of the pattern, `< nnz`, the length of `order_pos`"
            )]
            let positions = slots.map(|slot| {
                slot.map(|p| order_pos[p])
                    .filter(|&p| p < pos)
                    .and_then(|p| u32::try_from(p).ok())
                    .unwrap_or(NONE)
            });
            partners.push(positions);
        }
        Self {
            order,
            bounds: [0, d_end, l_end, nnz],
            partners,
        }
    }

    /// Value indices in encode order (D, L, U).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Region of order position `pos` (positions past the end are `Upper`).
    pub fn region_at(&self, pos: usize) -> Region {
        let [_, d_end, l_end, _] = self.bounds;
        if pos < d_end {
            Region::Diag
        } else if pos < l_end {
            Region::Lower
        } else {
            Region::Upper
        }
    }

    /// The non-empty intersections of `range` (order positions) with the
    /// three region runs, in order: one region's values in a chunk are
    /// always one contiguous run.
    pub(crate) fn region_runs(
        &self,
        range: core::ops::Range<usize>,
    ) -> impl Iterator<Item = (Region, core::ops::Range<usize>)> {
        let [_, d_end, l_end, total] = self.bounds;
        [
            (Region::Diag, 0..d_end),
            (Region::Lower, d_end..l_end),
            (Region::Upper, l_end..total),
        ]
        .into_iter()
        .filter_map(move |(region, run)| {
            let run = run.start.max(range.start)..run.end.min(range.end);
            (!run.is_empty()).then_some((region, run))
        })
    }

    /// The predictor for one region run of a chunk that starts at order
    /// position `chunk_start`. `reference` is `M_{t+1}` in value order, or
    /// empty for an all-zero reference.
    ///
    /// # Panics
    ///
    /// Panics if `run` is not a range of order positions from `chunk_start`
    /// on.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: `run` comes from `region_runs` over `0..nnz`, the length of both tables"
    )]
    pub(crate) fn run_predictor<'a>(
        &'a self,
        (region, run): (Region, core::ops::Range<usize>),
        reference: &'a [f64],
        sign_invert: bool,
        chunk_start: usize,
    ) -> RunPredictor<'a> {
        RunPredictor {
            region,
            offset: run.start - chunk_start,
            order: &self.order[run.clone()],
            partners: &self.partners[run],
            reference,
            signs: region.signs(sign_invert),
            chunk_start,
        }
    }

    /// The prediction selection `code` makes for order position `pos`
    /// (eq. 6; see the module table).
    ///
    /// `reference` is `M_{t+1}`'s values in value order (empty for an
    /// all-zero reference); `local[p - chunk_start]` holds the current
    /// matrix's value at order position `p`, and only
    /// `chunk_start ≤ p < pos` is read. `sign_invert` controls the diagonal
    /// negation (an ablation knob; the paper's eq. 6 uses the negated form).
    /// An absent partner, one outside the chunk, and codes 2–3 in `D` give
    /// the temporal value.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not an order position.
    pub fn predict(
        &self,
        pos: usize,
        code: u32,
        reference: &[f64],
        local: &[f64],
        sign_invert: bool,
        chunk_start: usize,
    ) -> f64 {
        let run = (self.region_at(pos), pos..pos + 1);
        self.run_predictor(run, reference, sign_invert, chunk_start)
            .at(0, code, local)
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

/// The predictions of one region run of a chunk, shared by the encoder and
/// the decoder. Index `i` is the position within the run.
pub(crate) struct RunPredictor<'a> {
    /// The run's region.
    pub(crate) region: Region,
    /// Where the run starts in the chunk's buffer of values.
    pub(crate) offset: usize,
    order: &'a [usize],
    partners: &'a [[u32; 3]],
    reference: &'a [f64],
    signs: [Option<bool>; 3],
    chunk_start: usize,
}

impl RunPredictor<'_> {
    /// Number of values in the run.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The temporal candidate `M̂` (0.0 against an empty reference).
    #[inline]
    fn temporal(&self, i: usize) -> f64 {
        self.order
            .get(i)
            .and_then(|&k| self.reference.get(k))
            .copied()
            .unwrap_or(0.0)
    }

    /// The prediction of selection `code` for the run's `i`-th value;
    /// `local` is the chunk's buffer of already-processed values.
    #[inline]
    pub(crate) fn at(&self, i: usize, code: u32, local: &[f64]) -> f64 {
        let spatial = (code as usize).checked_sub(1).and_then(|slot| {
            let partner = *self.partners.get(i)?.get(slot)?;
            if partner == NONE {
                return None;
            }
            let value = *local.get((partner as usize).checked_sub(self.chunk_start)?)?;
            // A copy keeps a signalling NaN; the product quiets it.
            Some(match *self.signs.get(slot)? {
                Some(negate) => times_unit(value, negate),
                None => value,
            })
        });
        spatial.unwrap_or_else(|| self.temporal(i))
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

    /// The four candidates of value index `k`, read from a value-indexed
    /// current matrix through a buffer of the chunk from `chunk_start`.
    fn cands(
        m: &StampMaps,
        k: usize,
        reference: &[f64],
        current: &[f64],
        sign_invert: bool,
        chunk_start: usize,
    ) -> [f64; 4] {
        let pos = m.order().iter().position(|&j| j == k).unwrap();
        let local: Vec<f64> = m.order()[chunk_start..]
            .iter()
            .map(|&j| current[j])
            .collect();
        [0, 1, 2, 3].map(|code| m.predict(pos, code, reference, &local, sign_invert, chunk_start))
    }

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
        assert_eq!(p.nnz(), 7);
        // D: (0,0), (1,1), (2,2); then L: (1,0), (2,1); then U.
        for (i, &k) in m.order().iter().enumerate() {
            let expect = if i < 3 {
                Region::Diag
            } else if i < 5 {
                Region::Lower
            } else {
                Region::Upper
            };
            assert_eq!(m.region_at(i), expect);
            let (row, col) = (p.row_of(k), p.col_idx()[k]);
            assert_eq!(row == col, expect == Region::Diag);
            assert_eq!(row > col, expect == Region::Lower);
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
        let c = cands(&m, k, &reference, &current, true, 0);
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
        let with = cands(&m, k, &reference, &current, true, 0);
        let without = cands(&m, k, &reference, &current, false, 0);
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
        let c = cands(&m, k11, &reference, &current, true, 0);
        assert_eq!(c[3], 42.0); // last value = (2,0) of the current matrix
                                // First lower nz in the row has no predecessor → temporal fallback.
        let c0 = cands(&m, k01, &reference, &current, true, 0);
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
        let c = cands(&m, d1, &reference, &current, true, 0);
        assert_eq!(c[0], reference[d1]);
        assert_eq!(c[1], -3.0);
        // First diagonal falls back to temporal.
        let c0 = cands(&m, d0, &reference, &current, true, 0);
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
        let c = cands(&m, k, &reference, &current, true, 0);
        // Transpose missing, diag row missing → temporal fallbacks;
        // diag col (1,1) present and already decoded.
        assert_eq!(c[1], 7.0);
        assert_eq!(c[2], 7.0);
        assert_eq!(c[3], -20.0);
    }

    #[test]
    fn chunk_start_confines_current_matrix_reads() {
        let (p, m) = tridiag();
        let reference = vec![1.0; p.nnz()];
        let current = vec![9.0; p.nnz()];
        let k = p.find(0, 1).unwrap(); // an Upper element, late in order
                                       // With the chunk starting at this element's own position, every
                                       // current-matrix partner is out of reach → all temporal.
        let pos = m.order().iter().position(|&j| j == k).unwrap();
        let c = cands(&m, k, &reference, &current, true, pos);
        assert_eq!(c, [1.0; 4]);
    }
}
