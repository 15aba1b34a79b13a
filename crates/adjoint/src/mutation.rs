//! Switchable injected defects for validating the conformance harness.
//!
//! Mirrors `masc_compress::mutation` for the store layer: the
//! `masc-conform` mutation check activates a defect and asserts the
//! store-equivalence oracle catches it within a bounded fuzz budget. Only
//! compiled with the `mutation-hooks` feature, and inert until
//! [`set_defect`] selects a defect at run time.

use std::sync::atomic::{AtomicU8, Ordering};

/// Selectable injected defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Defect {
    /// No defect (the default state).
    None = 0,
    /// The sealed-pair replay serves every fetch after the first with the
    /// previous fetch's `G` values instead of the requested step's.
    StaleReplayBlock = 1,
}

static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Activates `defect` process-wide. Tests must serialize around this.
pub fn set_defect(defect: Defect) {
    ACTIVE.store(defect as u8, Ordering::SeqCst);
}

/// Whether `defect` is currently active.
pub fn active(defect: Defect) -> bool {
    ACTIVE.load(Ordering::SeqCst) == defect as u8
}

/// The replay's [`Defect::StaleReplayBlock`] hook: remembers `g` in `last`
/// and, while the defect is armed, returns the previously remembered `G`
/// instead (the current one on the first fetch). Identity when disarmed.
pub fn stale_replay(last: &mut Option<Vec<f64>>, g: Vec<f64>) -> Vec<f64> {
    if !active(Defect::StaleReplayBlock) {
        return g;
    }
    last.replace(g.clone()).unwrap_or(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_inert_by_default() {
        set_defect(Defect::None);
        assert!(active(Defect::None));
        assert!(!active(Defect::StaleReplayBlock));
        let mut last = None;
        assert_eq!(stale_replay(&mut last, vec![1.0]), vec![1.0]);
        assert_eq!(stale_replay(&mut last, vec![2.0]), vec![2.0]);
    }
}
