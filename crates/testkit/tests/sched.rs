//! Scheduler-shim coverage for `masc_testkit::sched`.
//!
//! CI runs this suite with `--test-threads=1`: each exploration gates
//! its own virtual threads, and serializing the tests keeps the quiet
//! panic hook from masking unrelated test output.

use masc_testkit::sched::{Explorer, FailureKind};

fn small_explorer() -> Explorer {
    Explorer {
        schedules: 120,
        ..Explorer::default()
    }
}

#[test]
fn mutex_provides_mutual_exclusion() {
    // Three incrementing threads; a non-atomic read-modify-write through
    // the shim mutex must still total 3 on every schedule.
    let report = small_explorer().explore(|s| {
        let counter = s.mutex(0u32);
        for _ in 0..3 {
            let c = counter.clone();
            let s2 = s.clone();
            s.spawn(move || {
                let read = *c.lock();
                s2.yield_now(); // widen the race window on purpose
                *c.lock() = read + 1;
            });
        }
        s.join_all();
        let total = *counter.lock();
        assert_eq!(total, 3, "lost increment under some interleaving");
    });
    // The yield between read and write makes the data race real: the
    // explorer must expose at least one schedule where an increment is
    // lost, proving it actually interleaves critical sections.
    let failure = report
        .failure
        .expect("explorer must expose the read-modify-write race");
    assert!(matches!(failure.kind, FailureKind::Panic { .. }));
}

#[test]
fn mutex_guarded_increment_is_safe() {
    // Same shape but the whole read-modify-write is under one guard:
    // no schedule may fail.
    let report = small_explorer().explore(|s| {
        let counter = s.mutex(0u32);
        for _ in 0..3 {
            let c = counter.clone();
            s.spawn(move || {
                let mut g = c.lock();
                *g += 1;
            });
        }
        s.join_all();
        let total = *counter.lock();
        assert_eq!(total, 3);
    });
    assert!(report.failure.is_none(), "unexpected: {:?}", report.failure);
}

#[test]
fn self_deadlock_is_detected() {
    let report = small_explorer().explore(|s| {
        let m = s.mutex(());
        let _g1 = m.lock();
        let _g2 = m.lock(); // blocks forever; every thread blocked
    });
    match report.failure.expect("double lock must deadlock").kind {
        FailureKind::Deadlock { blocked } => assert_eq!(blocked, vec![0]),
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn condvar_while_loop_pattern_is_clean() {
    // The disciplined condvar pattern: predicate re-checked in a while
    // loop, notify after the guarded write. No schedule may hang.
    let report = small_explorer().explore(|s| {
        let state = s.mutex(false);
        let cv = s.condvar();
        let (st2, cv2) = (state.clone(), cv.clone());
        s.spawn(move || {
            let mut g = st2.lock();
            *g = true;
            drop(g);
            cv2.notify_all();
        });
        let mut g = state.lock();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        s.join_all();
    });
    assert!(report.failure.is_none(), "unexpected: {:?}", report.failure);
}

#[test]
fn lost_wakeup_is_found_shrunk_and_seed_replayable() {
    // The lost-wakeup bug class masc-serve once shipped: the producer
    // flips the flag *outside* the mutex the waiter's predicate reads, so
    // on schedules where the notify lands before the waiter registers,
    // the waiter sleeps forever.
    let model = |s: &masc_testkit::sched::Sched| {
        let state = s.mutex(false);
        let cv = s.condvar();
        let flag = s.mutex(0usize); // foreign flag: NOT the condvar's mutex
        let (cv2, flag2) = (cv.clone(), flag.clone());
        s.spawn(move || {
            // BUG: the write is not under the waiter's mutex, so the
            // notify can land between the waiter's predicate check and
            // its wait registration — and is then lost.
            *flag2.lock() = 1;
            cv2.notify_all();
        });
        let mut g = state.lock();
        while *flag.lock() == 0 {
            g = cv.wait(g);
        }
        drop(g);
        s.join_all();
    };

    let explorer = small_explorer();
    let report = explorer.explore(model);
    let failure = report.failure.expect("lost wakeup must be exposed");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "lost wakeup should manifest as deadlock, got {}",
        failure.kind
    );

    // Seed replay: the same failure reproduces from the seed alone.
    let replayed = explorer
        .replay(failure.seed, model)
        .expect("seed replay must reproduce the failure");
    assert_eq!(replayed.kind, failure.kind);

    // Determinism: replaying twice gives bit-identical traces.
    let replayed2 = explorer.replay(failure.seed, model).expect("replay again");
    assert_eq!(replayed.trace, replayed2.trace);
    assert_eq!(replayed.preemptions, replayed2.preemptions);
}

#[test]
fn exploration_is_deterministic_across_runs() {
    // Two full explorations of the same failing model agree on the
    // failing seed and the minimized trace.
    let model = |s: &masc_testkit::sched::Sched| {
        let m = s.mutex(0u32);
        let m2 = m.clone();
        let s2 = s.clone();
        s.spawn(move || {
            let read = *m2.lock();
            s2.yield_now();
            *m2.lock() = read + 1;
        });
        let read = *m.lock();
        s.yield_now();
        *m.lock() = read + 1;
        s.join_all();
        let total = *m.lock();
        assert_eq!(total, 2);
    };
    let a = small_explorer().explore(model);
    let b = small_explorer().explore(model);
    let (fa, fb) = (
        a.failure.expect("race found"),
        b.failure.expect("race found"),
    );
    assert_eq!(fa.seed, fb.seed);
    assert_eq!(fa.trace, fb.trace);
    assert_eq!(a.schedules, b.schedules);
}

#[test]
fn join_all_with_no_threads_returns() {
    let report = small_explorer().explore(|s| {
        s.join_all();
    });
    assert!(report.failure.is_none());
    assert!(report.schedules > 0);
}
