//! First-order Markov predictor over prediction-model selections
//! (paper §4.2, Fig. 4).
//!
//! Best-fit selection needs 1–2 bits per value *and* the argmin work. The
//! Markov predictor removes both: a per-region transition table
//! `P(next selection | previous selection)` is estimated by frequency
//! counting during a best-fit warm-up prefix, after which selections are
//! predicted outright and **no selection bits are written**.
//!
//! The table is *per matrix* (reset at each matrix, trained on that
//! matrix's own warm-up prefix). This keeps every compressed matrix
//! independently decodable, which the MASC pipeline requires: matrices are
//! compressed in forward time order but decompressed in reverse during the
//! adjoint pass, so any cross-matrix predictor state would force a full
//! forward replay before the backward sweep could start.

use crate::predictor::Region;

/// Number of selection codes (max over regions).
const CODES: usize = 4;

/// A per-region, order-1 Markov model over selection codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkovModel {
    /// `counts[region][prev][next]`.
    counts: [[[u32; CODES]; CODES]; 3],
    /// Last selection seen per region (state of the chain).
    prev: [u32; 3],
}

impl Default for MarkovModel {
    fn default() -> Self {
        Self::new()
    }
}

impl MarkovModel {
    /// Fresh model: uniform counts, chains at code 0 (temporal).
    pub fn new() -> Self {
        Self {
            counts: [[[0; CODES]; CODES]; 3],
            prev: [0; 3],
        }
    }

    /// Records an observed best-fit selection (warm-up phase) and advances
    /// the chain.
    ///
    /// Callers must validate `code < candidate_count()` first (the decode
    /// path rejects out-of-range wire codes before observing them).
    pub fn observe(&mut self, region: Region, code: u32) {
        debug_assert!((code as usize) < CODES, "selection code out of range");
        let r = region.index();
        #[expect(
            clippy::indexing_slicing,
            reason = "`Region::index() < 3`, the number of chains"
        )]
        let (state, counts) = (&mut self.prev[r], &mut self.counts[r]);
        #[expect(
            clippy::indexing_slicing,
            reason = "the chain state and `code` are `< CODES` (callers validate codes first)"
        )]
        let count = &mut counts[*state as usize][code as usize];
        *count += 1;
        *state = code;
    }

    /// Predicts the next selection for a region (Markov phase) and
    /// advances the chain with its own prediction.
    ///
    /// Deterministic (argmax with lowest-code tie-breaking), so encoder and
    /// decoder stay synchronized without any side information.
    pub fn predict(&mut self, region: Region) -> u32 {
        let next = self.peek(region);
        if let Some(state) = self.prev.get_mut(region.index()) {
            *state = next;
        }
        next
    }

    /// The most probable next code without advancing the chain.
    pub fn peek(&self, region: Region) -> u32 {
        self.frozen_walk(region).next().unwrap_or(0)
    }

    /// The chain's remaining predictions for `region` once training has
    /// stopped — [`predict`](Self::predict) repeated. The table no longer
    /// changes, so each step is one lookup in a successor table: the argmax
    /// of each row over the region's codes, lowest code on ties.
    pub(crate) fn frozen_walk(&self, region: Region) -> impl Iterator<Item = u32> {
        let argmax = |row: [u32; CODES]| {
            let (mut best, mut most) = (0, 0);
            for (code, count) in row.into_iter().enumerate().take(region.candidate_count()) {
                if count > most {
                    (best, most) = (code as u32, count);
                }
            }
            best
        };
        let r = region.index();
        let successor = self
            .counts
            .get(r)
            .map_or([0; CODES], |rows| rows.map(argmax));
        // The chain state only ever holds validated codes (see `observe`).
        let mut state = self.prev.get(r).copied().unwrap_or(0);
        core::iter::repeat_with(move || {
            state = successor.get(state as usize).copied().unwrap_or(0);
            state
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_model_predicts_temporal() {
        let mut m = MarkovModel::new();
        assert_eq!(m.predict(Region::Upper), 0);
        assert_eq!(m.predict(Region::Lower), 0);
        assert_eq!(m.predict(Region::Diag), 0);
    }

    #[test]
    fn learns_a_constant_stream() {
        let mut m = MarkovModel::new();
        for _ in 0..10 {
            m.observe(Region::Upper, 2);
        }
        assert_eq!(m.predict(Region::Upper), 2);
        // Chain advanced with its own prediction → still 2.
        assert_eq!(m.predict(Region::Upper), 2);
    }

    #[test]
    fn learns_an_alternating_stream() {
        let mut m = MarkovModel::new();
        // 1, 3, 1, 3, … — transition 1→3 and 3→1.
        for _ in 0..20 {
            m.observe(Region::Lower, 1);
            m.observe(Region::Lower, 3);
        }
        // Chain currently at 3 → predicts 1, then 3, then 1 …
        assert_eq!(m.predict(Region::Lower), 1);
        assert_eq!(m.predict(Region::Lower), 3);
        assert_eq!(m.predict(Region::Lower), 1);
    }

    #[test]
    fn regions_are_independent() {
        let mut m = MarkovModel::new();
        for _ in 0..5 {
            m.observe(Region::Upper, 3);
            m.observe(Region::Diag, 1);
        }
        assert_eq!(m.peek(Region::Upper), 3);
        assert_eq!(m.peek(Region::Diag), 1);
        assert_eq!(m.peek(Region::Lower), 0);
    }

    #[test]
    fn diag_prediction_respects_candidate_count() {
        let mut m = MarkovModel::new();
        // Corrupt-ish training: force counts on code 3 for Diag's row by
        // observing through Upper (shared chain layout is per-region, so
        // this cannot leak) — Diag must still only predict 0 or 1.
        for _ in 0..5 {
            m.observe(Region::Diag, 1);
        }
        let p = m.predict(Region::Diag);
        assert!(p < 2);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut m = MarkovModel::new();
        m.observe(Region::Upper, 2); // chain at 2; counts[0→2] = 1
        m.observe(Region::Upper, 1); // counts[2→1] = 1; chain at 1
        m.observe(Region::Upper, 2); // counts[1→2] = 1; chain at 2
        let first = m.peek(Region::Upper);
        let second = m.peek(Region::Upper);
        assert_eq!(first, second);
        assert_eq!(m.predict(Region::Upper), first);
    }
}
