//! The conformance-oracle abstraction.

use masc_testkit::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One differential conformance check over serialized byte inputs.
///
/// Every oracle lowers its case space to a byte string so corpus entries,
/// replay, and minimization are uniform across oracles. Inputs that do not
/// deserialize into a meaningful case must be *accepted* (vacuous `Ok`) —
/// that convention keeps shrinking honest, because a shrink candidate that
/// destroys the case's structure stops failing and is rejected.
pub trait Oracle: Sync {
    /// Stable oracle name (used in corpus headers and `--only`).
    fn name(&self) -> &'static str;

    /// One-line description for `--list`.
    fn describe(&self) -> &'static str;

    /// Builds one serialized case input from `rng`.
    fn generate(&self, rng: &mut Rng) -> Vec<u8>;

    /// Checks one serialized input. `Err` is a conformance failure;
    /// panics are converted into failures by [`run_input`].
    fn check(&self, input: &[u8]) -> Result<(), String>;

    /// Structure-aware shrink candidates for a failing input, in
    /// decreasing order of aggressiveness.
    fn shrink(&self, input: &[u8]) -> Vec<Vec<u8>> {
        crate::minimize::byte_candidates(input)
    }
}

/// Runs `oracle` on `input`, converting panics into `Err` so decoder
/// crashes count as conformance failures instead of aborting the harness.
pub fn run_input(oracle: &dyn Oracle, input: &[u8]) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| oracle.check(input))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            Err(format!("panic: {msg}"))
        }
    }
}
