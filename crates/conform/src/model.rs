//! Model-check harnesses for the worker-pool coordination cores.
//!
//! The fuzz oracles in this crate validate *values*; scheduling bugs —
//! lost wakeups, commit reordering, double-processed work — are
//! timing-dependent and slip past value fuzzing, so the coordination
//! cores are checked separately with the deterministic interleaving
//! explorer ([`masc_testkit::sched`]). Each harness here is a faithful
//! extraction of one production core onto the instrumented shims:
//!
//! - [`job_queue_model`] — `masc-serve`'s worker queue and close
//!   protocol (`crates/serve/src/server.rs::run_lines`). Honors the
//!   `lost-wakeup-close` injected defect: armed, the close flag moves
//!   outside the queue mutex (modeled as a foreign shim mutex, since raw
//!   atomics are invisible to the virtual scheduler) and the explorer
//!   must find the resulting lost wakeup as a deadlock.
//! - [`single_flight_model`] — `masc-serve`'s in-flight key dedup
//!   (`Server::submit`): one leader computes, waiters park on a condvar
//!   until the key is released, everyone observes the cached value.
//!
//! The shared lane fan-out (`masc_adjoint::lanes::wave`) has no model: it
//! is a `std::thread::scope` fan-out with no mutex or condvar, and the
//! window/sweep bit-identity oracles cover it.
//!
//! Every assertion must hold on *every explored schedule*; a violation
//! is reported with its schedule seed, minimized preemption trace, and a
//! `MASC_SCHED_REPRO` replay line, via `masc-conform --model-check`.

use masc_testkit::sched::{Explorer, Sched, ScheduleFailure};
use std::collections::VecDeque;
use std::time::Duration;

/// Outcome of model-checking one coordination core.
#[derive(Debug)]
pub struct ModelOutcome {
    /// Harness name (stable; used by CLI output and tests).
    pub name: &'static str,
    /// Schedules actually explored.
    pub schedules: usize,
    /// First failing schedule, minimized, if any.
    pub failure: Option<ScheduleFailure>,
}

/// The worker-queue state mirrored from `serve::server::JobQueue`.
struct Queue {
    items: VecDeque<u32>,
    closed: bool,
}

/// Whether the serve lost-wakeup defect is armed.
fn lost_wakeup_armed() -> bool {
    masc_serve::mutation::active(masc_serve::mutation::Defect::LostWakeupClose)
}

/// `run_lines` close protocol: 2 worker lanes drain a queue of 3 jobs;
/// the reader then closes the queue and waits for the lanes. Asserts
/// every job is processed exactly once and shutdown always completes.
pub fn job_queue_model(s: &Sched) {
    const JOBS: u32 = 2;
    let armed = lost_wakeup_armed();
    let queue = s.mutex(Queue {
        items: VecDeque::new(),
        closed: false,
    });
    let ready = s.condvar();
    // Armed variant: the close flag lives outside the queue mutex (the
    // injected defect models `closed` as an atomic; a shim mutex is the
    // scheduler-visible equivalent).
    let closed_outside = s.mutex(false);
    let processed = s.mutex(Vec::<u32>::new());

    for _ in 0..2 {
        let (queue, ready, closed_outside, processed) = (
            queue.clone(),
            ready.clone(),
            closed_outside.clone(),
            processed.clone(),
        );
        s.spawn(move || loop {
            let item = {
                let mut q = queue.lock();
                loop {
                    if let Some(item) = q.items.pop_front() {
                        break Some(item);
                    }
                    if armed {
                        // BUG (injected): predicate reads a flag the
                        // closer does not publish under this mutex.
                        if *closed_outside.lock() {
                            break None;
                        }
                    } else if q.closed {
                        break None;
                    }
                    q = ready.wait(q);
                }
            };
            match item {
                Some(job) => processed.lock().push(job),
                None => break,
            }
        });
    }

    for job in 0..JOBS {
        queue.lock().items.push_back(job);
        ready.notify_one();
    }
    if armed {
        *closed_outside.lock() = true;
    } else {
        queue.lock().closed = true;
    }
    ready.notify_all();
    s.join_all();

    let mut done = processed.lock().clone();
    done.sort_unstable();
    assert_eq!(
        done,
        (0..JOBS).collect::<Vec<_>>(),
        "jobs lost or duplicated"
    );
    assert!(
        queue.lock().items.is_empty(),
        "queue not drained at shutdown"
    );
}

/// `Server::submit` single-flight: 3 clients race on one cache key; the
/// first to insert the key leads and computes, the rest wait on the
/// in-flight condvar and re-probe the cache. A client that probed the
/// cache before publication may legitimately recompute *after* the
/// leader released the key (a benign, bit-identical recompute) — the
/// protocol's guarantee, and this model's assertion, is that two
/// computations for one key are never in flight concurrently and that
/// every client observes the published value.
pub fn single_flight_model(s: &Sched) {
    let inflight = s.mutex(false); // "key present in the in-flight set"
    let inflight_done = s.condvar();
    let cache = s.mutex(None::<u32>);
    let gauge = s.mutex((0u32, 0u32)); // (in-flight computations, max)
    let observed = s.mutex(Vec::<u32>::new());

    for _ in 0..3 {
        let (inflight, inflight_done, cache, gauge, observed) = (
            inflight.clone(),
            inflight_done.clone(),
            cache.clone(),
            gauge.clone(),
            observed.clone(),
        );
        s.spawn(move || {
            if let Some(v) = *cache.lock() {
                observed.lock().push(v);
                return;
            }
            let leader = {
                let mut set = inflight.lock();
                let leader = !*set;
                *set = true;
                leader
            };
            if leader {
                {
                    let mut g = gauge.lock();
                    g.0 += 1;
                    g.1 = g.1.max(g.0);
                }
                *cache.lock() = Some(42);
                gauge.lock().0 -= 1;
                // Release the key and wake waiters (InflightGuard drop).
                *inflight.lock() = false;
                inflight_done.notify_all();
            } else {
                let mut set = inflight.lock();
                while *set {
                    set = inflight_done.wait(set);
                }
                drop(set);
            }
            let v = cache.lock().expect("leader published before release");
            observed.lock().push(v);
        });
    }
    s.join_all();

    let max_concurrent = gauge.lock().1;
    assert_eq!(max_concurrent, 1, "concurrent computations for one key");
    let seen = observed.lock().clone();
    assert_eq!(
        seen,
        vec![42, 42, 42],
        "a client missed the published value"
    );
}

/// A registered model-check harness: stable name plus entry point.
pub type NamedModel = (&'static str, fn(&Sched));

/// The model registry: name → harness, in CLI display order.
pub fn models() -> Vec<NamedModel> {
    vec![
        ("serve-queue-shutdown", job_queue_model as fn(&Sched)),
        ("serve-single-flight", single_flight_model),
    ]
}

/// Explorer configured for one harness within a shared wall-clock
/// budget; `None` keeps the schedule count as the only bound.
///
/// The schedule budget is sized with margin: the armed
/// `lost-wakeup-close` deadlock surfaces deterministically well inside
/// the first ~700 schedules of the default seed sequence, so 2000 keeps
/// a >3x cushion while a full two-model sweep stays under two seconds.
pub fn model_explorer(budget: Option<Duration>) -> Explorer {
    Explorer {
        schedules: 2000,
        time_budget: budget,
        ..Explorer::default()
    }
}

/// Runs every registered model under `explorer`, stopping early only
/// within a harness (at its first failing schedule).
pub fn check_all(explorer: &Explorer) -> Vec<ModelOutcome> {
    models()
        .into_iter()
        .map(|(name, model)| {
            let report = explorer.explore(model);
            ModelOutcome {
                name,
                schedules: report.schedules,
                failure: report.failure,
            }
        })
        .collect()
}
