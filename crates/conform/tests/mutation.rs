//! Mutation checks: the harness must catch deliberately injected defects.
//!
//! Each test arms one defect behind the `mutation-hooks` feature of
//! `masc-compress`/`masc-adjoint`, fuzzes the oracle that owns that
//! layer under a bounded budget, and requires:
//!
//! 1. the defect is detected (at least one failure),
//! 2. the failure is minimized and persisted as a corpus entry,
//! 3. the persisted entry still reproduces the failure (replay with the
//!    defect armed fails) and is clean on the fixed code (replay with
//!    the defect disarmed passes).
//!
//! This is the harness testing itself: a fuzzer that cannot catch a
//! known-bad encoder within its CI budget is not pulling its weight.

use masc_conform::{all_oracles, corpus, run_input, runner, RunConfig};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes mutation tests: the defect switches are process-global.
static DEFECT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms every defect on drop, so a failing assertion cannot leak an
/// armed defect into the next test.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        masc_compress::mutation::set_defect(masc_compress::mutation::Defect::None);
        masc_adjoint::mutation::set_defect(masc_adjoint::mutation::Defect::None);
    }
}

fn scratch_corpus(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("masc-mutation-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Arms `arm`, fuzzes `oracle_name`, and checks detection + a minimized,
/// replayable corpus entry.
fn assert_defect_caught(tag: &str, oracle_name: &str, shrink_iters: u32, arm: impl Fn()) {
    let _guard = DEFECT_LOCK.lock().expect("defect lock");
    let _disarm = Disarm;
    arm();

    let dir = scratch_corpus(tag);
    let oracles = all_oracles();
    let report = runner::run(
        &oracles,
        &RunConfig {
            budget: Duration::from_secs(60),
            seed: 4,
            only: Some(oracle_name.to_string()),
            corpus_dir: Some(dir.clone()),
            shrink_iters,
            ..RunConfig::default()
        },
    );
    assert_eq!(
        report.total_failures(),
        1,
        "injected defect {tag} was not caught by {oracle_name} \
         ({} cases in {:?})",
        report.total_cases(),
        report.elapsed
    );

    let entries = corpus::load_dir(&dir).expect("corpus dir readable");
    assert_eq!(entries.len(), 1, "expected one persisted corpus entry");
    let (path, entry) = &entries[0];
    assert_eq!(entry.oracle, oracle_name);
    let oracle = oracles
        .iter()
        .find(|o| o.name() == oracle_name)
        .expect("oracle exists");

    // The minimized entry still reproduces the failure while armed...
    assert!(
        run_input(oracle.as_ref(), &entry.payload).is_err(),
        "minimized entry {} does not reproduce the armed defect",
        path.display()
    );
    // ...and is clean once the defect is gone (i.e. once "fixed").
    drop(_disarm);
    assert!(
        run_input(oracle.as_ref(), &entry.payload).is_ok(),
        "minimized entry {} fails even without the defect",
        path.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stamp-predictor selection written to the wire disagrees with the
/// one used for the residual — caught as a bit-exactness failure.
#[test]
fn catches_wrong_stamp_candidate() {
    assert_defect_caught("wrong-stamp-candidate", "tensor-roundtrip", 2_000, || {
        masc_compress::mutation::set_defect(masc_compress::mutation::Defect::WrongStampCandidate);
    });
}

/// Serialized block lengths are off by one — caught when deserialization
/// desynchronizes from the block framing.
#[test]
fn catches_varint_len_off_by_one() {
    assert_defect_caught("varint-len-off-by-one", "tensor-roundtrip", 2_000, || {
        masc_compress::mutation::set_defect(masc_compress::mutation::Defect::VarintLenOffByOne);
    });
}

/// The sealed-pair replay returns the previous fetch's `G` instead of the
/// requested step's — caught as a gradient divergence against the raw
/// in-memory store.
#[test]
fn catches_stale_replay_block() {
    // End-to-end shrink candidates are expensive; a small budget still
    // produces a compact deck.
    assert_defect_caught("stale-replay-block", "store-equiv", 40, || {
        masc_adjoint::mutation::set_defect(masc_adjoint::mutation::Defect::StaleReplayBlock);
    });
}
