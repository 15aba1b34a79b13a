//! Deterministic interleaving explorer: a virtual scheduler over
//! instrumented mutex/condvar shims.
//!
//! Scheduling bugs — lost wakeups, double-processed work, deadlocks —
//! are timing-dependent, so they are checked *dynamically* here. A model
//! — a small extraction of a real coordination core, written against the
//! [`Sched`] shims instead of `std::sync` — is executed many times,
//! each time under a different, fully deterministic thread interleaving:
//!
//! - exactly **one virtual thread runs at a time**; every shim operation
//!   is a scheduling point where a seeded PCG32 choice picks the next
//!   runnable thread (bounded by a **preemption budget**, which is what
//!   makes enumeration tractable);
//! - blocking is virtual: a thread waiting on a mutex, condvar, or
//!   [`Sched::join_all`] is simply not schedulable until the
//!   corresponding wake arrives. **If every live thread is blocked, the
//!   schedule deadlocked** — which is exactly how a lost wakeup
//!   manifests — and the explorer reports it with the schedule seed;
//! - assertion panics inside a model are caught per-thread and reported
//!   the same way;
//! - a failing schedule is **replayed from its seed alone**
//!   (`MASC_SCHED_REPRO=<hex>`, mirroring `MASC_PROP_REPRO`) and
//!   **shrunk**: the recorded decision trace is greedily canonicalized
//!   toward the no-preemption schedule while the failure persists, so
//!   the report shows a minimal preemption pattern, not a random one.
//!
//! # Soundness limits
//!
//! The explorer checks the *model*, not the production code: fidelity is
//! by construction of the extraction (the model harnesses live in
//! `masc-conform` next to the mutation hooks they must catch). Schedule
//! coverage is bounded — seeded sampling under a preemption bound, not
//! exhaustive model checking — and the shims impose stronger fairness
//! than real hardware (no weak-memory reorderings). Shared flags must be
//! modeled as shim mutexes, never raw atomics: atomic operations are
//! invisible to the virtual scheduler, so races on them cannot be
//! explored. A green run bounds the lost-wakeup and deadlock bug
//! classes; it is not a proof.
//!
//! # Example
//!
//! ```
//! use masc_testkit::sched::Explorer;
//!
//! let report = Explorer::default().explore(|s| {
//!     let m = s.mutex(0u32);
//!     let m2 = m.clone();
//!     s.spawn(move || {
//!         *m2.lock() += 1;
//!     });
//!     s.join_all();
//!     let v = *m.lock();
//!     assert_eq!(v, 1);
//! });
//! assert!(report.failure.is_none());
//! ```

use crate::rng::Rng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, PoisonError};
use std::time::{Duration, Instant};

thread_local! {
    /// Virtual-thread id of the calling OS thread within its kernel.
    static TID: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Payload used to unwind virtual threads when a schedule is aborted
/// (deadlock detected elsewhere, or another thread already failed).
struct AbortSchedule;

/// Scheduling status of one virtual thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Schedulable.
    Runnable,
    /// Virtually blocked; not schedulable until unparked.
    Blocked,
    /// Exited (normally or by unwinding).
    Done,
}

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// Every live virtual thread was blocked — a deadlock or lost wakeup.
    Deadlock {
        /// The virtual-thread ids that were blocked.
        blocked: Vec<usize>,
    },
    /// A virtual thread panicked (assertion failure in the model).
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The schedule exceeded the per-run step cap without finishing.
    Livelock,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Deadlock { blocked } => {
                write!(f, "deadlock: virtual threads {blocked:?} all blocked")
            }
            FailureKind::Panic { message } => write!(f, "model panic: {message}"),
            FailureKind::Livelock => write!(f, "livelock: step cap exceeded"),
        }
    }
}

/// One failing schedule, minimized and replayable.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// Schedule seed; `MASC_SCHED_REPRO=<seed as hex>` replays it.
    pub seed: u64,
    /// What went wrong.
    pub kind: FailureKind,
    /// Minimized decision trace (indices into the sorted runnable set at
    /// each free scheduling choice).
    pub trace: Vec<u32>,
    /// Preemptions in the minimized failing schedule.
    pub preemptions: usize,
}

impl fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [seed {:#018x}, {} preemption(s), {} decision(s); \
             rerun with MASC_SCHED_REPRO={:x}]",
            self.kind,
            self.seed,
            self.preemptions,
            self.trace.len(),
            self.seed,
        )
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Schedules actually executed (shrink replays not counted).
    pub schedules: usize,
    /// First failing schedule, if any, after minimization.
    pub failure: Option<ScheduleFailure>,
}

/// Scheduler state shared by every virtual thread of one schedule run.
struct KState {
    threads: Vec<Status>,
    /// Wake permits (token-parking): an unpark of a non-blocked thread
    /// is remembered, so shim wakes never race registration.
    permits: Vec<bool>,
    current: usize,
    /// Threads blocked in [`Sched::join_all`], woken on any completion.
    join_waiters: Vec<usize>,
    /// Recorded free scheduling choices.
    decisions: Vec<u32>,
    /// Forced prefix of decisions (shrink replays); tail comes from rng.
    replay: Vec<u32>,
    pos: usize,
    rng: Rng,
    preemptions: usize,
    max_preemptions: usize,
    steps: usize,
    max_steps: usize,
    aborted: bool,
    failure: Option<FailureKind>,
}

/// The virtual scheduler for one schedule run.
struct Kernel {
    state: OsMutex<KState>,
    cv: OsCondvar,
    handles: OsMutex<Vec<std::thread::JoinHandle<()>>>,
    next_tid: AtomicUsize,
}

type KGuard<'a> = std::sync::MutexGuard<'a, KState>;

impl Kernel {
    fn new(seed: u64, replay: Vec<u32>, max_preemptions: usize, max_steps: usize) -> Kernel {
        Kernel {
            state: OsMutex::new(KState {
                threads: vec![Status::Runnable],
                permits: vec![false],
                current: 0,
                join_waiters: Vec::new(),
                decisions: Vec::new(),
                replay,
                pos: 0,
                rng: Rng::with_stream(seed, 0x5ced),
                preemptions: 0,
                max_preemptions,
                steps: 0,
                max_steps,
                aborted: false,
                failure: None,
            }),
            cv: OsCondvar::new(),
            handles: OsMutex::new(Vec::new()),
            next_tid: AtomicUsize::new(1),
        }
    }

    fn lock_state(&self) -> KGuard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sorted runnable thread ids.
    fn runnable(st: &KState) -> Vec<usize> {
        (0..st.threads.len())
            .filter(|&t| st.threads[t] == Status::Runnable)
            .collect()
    }

    /// Records a free choice among `n` candidates.
    fn choose(st: &mut KState, n: usize) -> usize {
        let v = if st.pos < st.replay.len() {
            st.replay[st.pos] as usize % n
        } else {
            st.rng.below(n as u64) as usize
        };
        st.pos += 1;
        st.decisions.push(v as u32);
        v
    }

    /// Marks the schedule failed and releases every thread.
    fn fail(&self, st: &mut KGuard<'_>, kind: FailureKind) {
        if st.failure.is_none() {
            st.failure = Some(kind);
        }
        st.aborted = true;
        self.cv.notify_all();
    }

    /// Aborts the calling thread if the schedule is being torn down.
    fn bail_if_aborted(st: &KState) {
        if st.aborted {
            std::panic::panic_any(AbortSchedule);
        }
    }

    /// Accounts one scheduling step; converts runaway runs to livelock.
    fn step(&self, st: &mut KGuard<'_>) {
        st.steps += 1;
        if st.steps > st.max_steps {
            self.fail(st, FailureKind::Livelock);
            std::panic::panic_any(AbortSchedule);
        }
    }

    /// Scheduling point for a thread that stays runnable: maybe switch.
    fn yield_now(&self) {
        let tid = TID.with(|c| c.get());
        let mut st = self.lock_state();
        Self::bail_if_aborted(&st);
        self.step(&mut st);
        let runnable = Self::runnable(&st);
        let next = if runnable.len() <= 1 || st.preemptions >= st.max_preemptions {
            tid
        } else {
            runnable[Self::choose(&mut st, runnable.len())]
        };
        if next != tid {
            st.preemptions += 1;
            st.current = next;
            self.cv.notify_all();
            self.wait_for_turn(st, tid);
        }
    }

    /// Virtually blocks the calling thread until a permit arrives.
    fn park(&self) {
        let tid = TID.with(|c| c.get());
        let mut st = self.lock_state();
        Self::bail_if_aborted(&st);
        self.step(&mut st);
        if st.permits[tid] {
            st.permits[tid] = false;
            return;
        }
        st.threads[tid] = Status::Blocked;
        self.reschedule(&mut st);
        st = self.wait_until(st, |st| {
            st.threads[tid] == Status::Runnable && st.current == tid
        });
        st.permits[tid] = false;
    }

    /// Hands a wake permit to `tid`, making it schedulable if blocked.
    /// Never panics — safe to call from `Drop` during unwinding.
    fn unpark(st: &mut KState, tid: usize) {
        if st.threads[tid] == Status::Blocked {
            st.threads[tid] = Status::Runnable;
            st.permits[tid] = true;
        } else if st.threads[tid] == Status::Runnable {
            st.permits[tid] = true;
        }
    }

    /// Picks a new current thread after the caller blocked or finished.
    fn reschedule(&self, st: &mut KGuard<'_>) {
        let runnable = Self::runnable(st);
        if runnable.is_empty() {
            let blocked: Vec<usize> = (0..st.threads.len())
                .filter(|&t| st.threads[t] == Status::Blocked)
                .collect();
            if !blocked.is_empty() {
                self.fail(st, FailureKind::Deadlock { blocked });
            }
            return;
        }
        let next = if runnable.len() == 1 {
            runnable[0]
        } else {
            runnable[Self::choose(st, runnable.len())]
        };
        st.current = next;
        self.cv.notify_all();
    }

    /// Waits (OS-level) until it is `tid`'s turn to run.
    fn wait_for_turn<'a>(&'a self, st: KGuard<'a>, tid: usize) {
        let _st = self.wait_until(st, |st| st.current == tid);
    }

    /// Non-panicking wait for a freshly spawned thread's first turn.
    /// Returns `false` when the schedule aborted before it ever ran.
    fn wait_first(&self, tid: usize) -> bool {
        let mut st = self.lock_state();
        loop {
            if st.aborted {
                return false;
            }
            if st.current == tid {
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Condvar wait loop with abort propagation.
    fn wait_until<'a>(&'a self, mut st: KGuard<'a>, ready: impl Fn(&KState) -> bool) -> KGuard<'a> {
        loop {
            if st.aborted {
                drop(st);
                std::panic::panic_any(AbortSchedule);
            }
            if ready(&st) {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks the calling thread finished and schedules a successor.
    /// Never panics — runs on every exit path, aborts included.
    fn thread_done(&self) {
        let tid = TID.with(|c| c.get());
        let mut st = self.lock_state();
        st.threads[tid] = Status::Done;
        let joiners: Vec<usize> = st.join_waiters.drain(..).collect();
        for j in joiners {
            Self::unpark(&mut st, j);
        }
        if !st.aborted {
            self.reschedule(&mut st);
        } else {
            self.cv.notify_all();
        }
    }

    /// Records a model panic and tears the schedule down.
    fn report_panic(&self, message: String) {
        let mut st = self.lock_state();
        self.fail(&mut st, FailureKind::Panic { message });
    }
}

/// Depth of active explorations; while non-zero the process panic hook
/// stays quiet, because schedule teardown and caught model assertions
/// panic by design and would otherwise flood stderr.
static QUIET_DEPTH: AtomicUsize = AtomicUsize::new(0);
static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// RAII guard silencing the panic hook for the span of one schedule run.
struct QuietPanics;

impl QuietPanics {
    fn enter() -> QuietPanics {
        QUIET_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if QUIET_DEPTH.load(Ordering::SeqCst) == 0 {
                    prev(info);
                }
            }));
        });
        QUIET_DEPTH.fetch_add(1, Ordering::SeqCst);
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        QUIET_DEPTH.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Handle to the virtual scheduler, passed to the model and cloned into
/// spawned virtual threads via the shim objects.
#[derive(Clone)]
pub struct Sched {
    kernel: Arc<Kernel>,
}

impl Sched {
    /// Spawns a virtual thread. There is no handle: failures surface
    /// through the schedule report, completion through [`Sched::join_all`].
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let tid = self.kernel.next_tid.fetch_add(1, Ordering::SeqCst);
        {
            let mut st = self.kernel.lock_state();
            Kernel::bail_if_aborted(&st);
            debug_assert_eq!(st.threads.len(), tid);
            st.threads.push(Status::Runnable);
            st.permits.push(false);
        }
        let kernel = Arc::clone(&self.kernel);
        let handle = std::thread::Builder::new()
            .name(format!("masc-sched-{tid}"))
            .spawn(move || {
                TID.with(|c| c.set(tid));
                // Do not run the body until scheduled (and never run it
                // at all if the schedule aborts first).
                if kernel.wait_first(tid) {
                    match catch_unwind(AssertUnwindSafe(f)) {
                        Ok(()) => {}
                        Err(payload) => {
                            if payload.downcast_ref::<AbortSchedule>().is_none() {
                                kernel.report_panic(panic_message(payload.as_ref()));
                            }
                        }
                    }
                }
                kernel.thread_done();
            })
            .expect("spawn virtual thread");
        self.kernel
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
        // Spawning is a scheduling point: the child may run first.
        self.kernel.yield_now();
    }

    /// Explicit interleaving point, for model code between shim calls.
    pub fn yield_now(&self) {
        self.kernel.yield_now();
    }

    /// Blocks until every *other* virtual thread has finished.
    pub fn join_all(&self) {
        let tid = TID.with(|c| c.get());
        loop {
            {
                let mut st = self.kernel.lock_state();
                Kernel::bail_if_aborted(&st);
                let others_done =
                    (0..st.threads.len()).all(|t| t == tid || st.threads[t] == Status::Done);
                if others_done {
                    return;
                }
                st.join_waiters.push(tid);
            }
            self.kernel.park();
        }
    }

    /// Creates an instrumented mutex owned by this schedule.
    pub fn mutex<T: Send>(&self, value: T) -> Mutex<T> {
        Mutex {
            core: Arc::new(MutexCore {
                kernel: Arc::clone(&self.kernel),
                state: OsMutex::new(MutexState {
                    held: false,
                    waiters: Vec::new(),
                }),
            }),
            data: Arc::new(OsMutex::new(value)),
        }
    }

    /// Creates an instrumented condition variable.
    pub fn condvar(&self) -> CondvarShim {
        CondvarShim {
            kernel: Arc::clone(&self.kernel),
            state: Arc::new(OsMutex::new(CvState {
                waiters: Vec::new(),
            })),
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex shim

struct MutexState {
    held: bool,
    waiters: Vec<usize>,
}

struct MutexCore {
    kernel: Arc<Kernel>,
    state: OsMutex<MutexState>,
}

impl MutexCore {
    fn acquire(&self) {
        let tid = TID.with(|c| c.get());
        self.kernel.yield_now();
        loop {
            {
                let mut ms = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                if !ms.held {
                    ms.held = true;
                    return;
                }
                if !ms.waiters.contains(&tid) {
                    ms.waiters.push(tid);
                }
            }
            self.kernel.park();
        }
    }

    /// Releases the virtual lock and wakes every waiter. Never panics —
    /// runs from guard `Drop`, possibly during an abort unwind.
    fn release(&self) {
        let waiters: Vec<usize> = {
            let mut ms = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            ms.held = false;
            ms.waiters.drain(..).collect()
        };
        let mut st = self.kernel.lock_state();
        for w in waiters {
            Kernel::unpark(&mut st, w);
        }
        self.kernel.cv.notify_all();
    }
}

/// Instrumented mutex: same role as [`std::sync::Mutex`], but lock
/// acquisition order is decided by the virtual scheduler. Clones share
/// the lock (the usual `Arc<Mutex<…>>` is built in).
pub struct Mutex<T> {
    core: Arc<MutexCore>,
    data: Arc<OsMutex<T>>,
}

impl<T> Clone for Mutex<T> {
    fn clone(&self) -> Self {
        Mutex {
            core: Arc::clone(&self.core),
            data: Arc::clone(&self.data),
        }
    }
}

impl<T: Send> Mutex<T> {
    /// Acquires the virtual lock, blocking this virtual thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.core.acquire();
        MutexGuard {
            lock: self,
            inner: Some(self.data.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

/// Guard returned by [`Mutex::lock`]; releases on drop.
pub struct MutexGuard<'a, T: Send> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: Send> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: Send> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: Send> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        self.lock.core.release();
    }
}

// ---------------------------------------------------------------------------
// Condvar shim

struct CvState {
    waiters: Vec<usize>,
}

/// Instrumented condition variable with **strict wakeup semantics**: a
/// notify wakes only threads already registered in the wait set. A
/// thread that reaches its wait *after* the notify sleeps until the next
/// one — which is exactly the lost-wakeup behavior the explorer exists
/// to surface. (Named `CondvarShim` to avoid shadowing
/// [`std::sync::Condvar`] in models that import both.)
#[derive(Clone)]
pub struct CondvarShim {
    kernel: Arc<Kernel>,
    state: Arc<OsMutex<CvState>>,
}

impl CondvarShim {
    /// Atomically releases `guard` and waits for a notification, then
    /// reacquires the lock. As with the real primitive, callers must
    /// re-check their predicate in a loop: wakes can be concurrent with
    /// other state changes.
    pub fn wait<'a, T: Send>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let tid = TID.with(|c| c.get());
        let lock: &'a Mutex<T> = guard.lock;
        // Scheduling point *before* registering: this is the window in
        // which a notify not synchronized with the caller's predicate
        // can be lost — the bug class this shim exists to surface.
        // Registration, mutex release, and park are then atomic with
        // respect to the virtual scheduler, matching the real primitive.
        self.kernel.yield_now();
        {
            let mut cs = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            cs.waiters.push(tid);
        }
        drop(guard); // releases the virtual mutex; wakes lock waiters
        self.kernel.park();
        lock.lock()
    }

    /// Wakes one registered waiter (the longest-waiting).
    pub fn notify_one(&self) {
        let woken = {
            let mut cs = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if cs.waiters.is_empty() {
                None
            } else {
                Some(cs.waiters.remove(0))
            }
        };
        if let Some(w) = woken {
            let mut st = self.kernel.lock_state();
            Kernel::unpark(&mut st, w);
            self.kernel.cv.notify_all();
        }
        self.kernel.yield_now();
    }

    /// Wakes every registered waiter.
    pub fn notify_all(&self) {
        let woken: Vec<usize> = {
            let mut cs = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            cs.waiters.drain(..).collect()
        };
        if !woken.is_empty() {
            let mut st = self.kernel.lock_state();
            for w in woken {
                Kernel::unpark(&mut st, w);
            }
            self.kernel.cv.notify_all();
        }
        self.kernel.yield_now();
    }
}

// ---------------------------------------------------------------------------
// Explorer

/// Environment variable replaying one schedule seed, mirroring
/// `MASC_PROP_REPRO`.
pub const SCHED_REPRO_ENV: &str = "MASC_SCHED_REPRO";

/// Schedule-enumeration driver. `Default` gives a CI-friendly budget.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Base seed; schedule `i` derives its seed from `(seed, i)`.
    pub seed: u64,
    /// Maximum schedules to run.
    pub schedules: usize,
    /// Preemption bound per schedule (free context switches away from a
    /// runnable thread).
    pub max_preemptions: usize,
    /// Step cap per schedule; exceeding it reports a livelock.
    pub max_steps: usize,
    /// Optional wall-clock budget for the whole exploration.
    pub time_budget: Option<Duration>,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            seed: 0x6D61_7363_5F73_6368, // "masc_sch"
            schedules: 400,
            max_preemptions: 6,
            max_steps: 20_000,
            time_budget: None,
        }
    }
}

/// Outcome of one schedule run.
struct RunOutcome {
    failure: Option<FailureKind>,
    decisions: Vec<u32>,
    preemptions: usize,
}

/// Runs the model once under the schedule derived from `seed`, forcing
/// the decision prefix `replay` (tail decisions come from the seed).
fn run_one<F: Fn(&Sched)>(
    seed: u64,
    replay: &[u32],
    max_preemptions: usize,
    max_steps: usize,
    model: &F,
) -> RunOutcome {
    let _quiet = QuietPanics::enter();
    let kernel = Arc::new(Kernel::new(
        seed,
        replay.to_vec(),
        max_preemptions,
        max_steps,
    ));
    let sched = Sched {
        kernel: Arc::clone(&kernel),
    };
    TID.with(|c| c.set(0));
    match catch_unwind(AssertUnwindSafe(|| model(&sched))) {
        Ok(()) => {}
        Err(payload) => {
            if payload.downcast_ref::<AbortSchedule>().is_none() {
                kernel.report_panic(panic_message(payload.as_ref()));
            }
        }
    }
    kernel.thread_done();
    let handles: Vec<_> = kernel
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let st = kernel.lock_state();
    RunOutcome {
        failure: st.failure.clone(),
        decisions: st.decisions.clone(),
        preemptions: st.preemptions,
    }
}

impl Explorer {
    /// Runs `model` under up to [`Explorer::schedules`] distinct seeded
    /// schedules (or the single `MASC_SCHED_REPRO` seed when set). Stops
    /// at the first failure, which is shrunk before reporting.
    pub fn explore<F: Fn(&Sched)>(&self, model: F) -> Exploration {
        if let Ok(v) = std::env::var(SCHED_REPRO_ENV) {
            if let Ok(seed) = u64::from_str_radix(v.trim().trim_start_matches("0x"), 16) {
                let run = run_one(seed, &[], self.max_preemptions, self.max_steps, &model);
                return Exploration {
                    schedules: 1,
                    failure: run.failure.map(|kind| ScheduleFailure {
                        seed,
                        kind,
                        trace: run.decisions,
                        preemptions: run.preemptions,
                    }),
                };
            }
        }
        let start = Instant::now();
        let mut executed = 0usize;
        for i in 0..self.schedules {
            if let Some(budget) = self.time_budget {
                if start.elapsed() >= budget && executed > 0 {
                    break;
                }
            }
            let seed = derive_seed(self.seed, i as u64);
            executed += 1;
            let run = run_one(seed, &[], self.max_preemptions, self.max_steps, &model);
            if run.failure.is_some() {
                let failure = self.shrink(seed, run, &model);
                return Exploration {
                    schedules: executed,
                    failure: Some(failure),
                };
            }
        }
        Exploration {
            schedules: executed,
            failure: None,
        }
    }

    /// Greedy minimization: canonicalize each decision toward 0 (the
    /// lowest-numbered runnable thread — the no-preemption direction)
    /// while the schedule still fails.
    fn shrink<F: Fn(&Sched)>(&self, seed: u64, first: RunOutcome, model: &F) -> ScheduleFailure {
        let mut best_trace = first.decisions;
        let mut best_kind = first.failure.clone().unwrap_or(FailureKind::Livelock);
        let mut best_preemptions = first.preemptions;
        let mut budget = 200usize;
        let mut improved = true;
        while improved && budget > 0 {
            improved = false;
            let mut i = 0;
            // A successful shrink can replace the trace with a shorter
            // one, so the bound is re-read every step.
            while i < best_trace.len() && budget > 0 {
                if best_trace[i] != 0 {
                    let mut cand = best_trace.clone();
                    cand[i] = 0;
                    budget -= 1;
                    let run = run_one(seed, &cand, self.max_preemptions, self.max_steps, model);
                    if let Some(kind) = run.failure {
                        best_trace = run.decisions;
                        best_kind = kind;
                        best_preemptions = run.preemptions;
                        improved = true;
                    }
                }
                i += 1;
            }
        }
        ScheduleFailure {
            seed,
            kind: best_kind,
            trace: best_trace,
            preemptions: best_preemptions,
        }
    }

    /// Replays one specific schedule seed; `Some` is the (unshrunk)
    /// failure it reproduces.
    pub fn replay<F: Fn(&Sched)>(&self, seed: u64, model: F) -> Option<ScheduleFailure> {
        let run = run_one(seed, &[], self.max_preemptions, self.max_steps, &model);
        run.failure.map(|kind| ScheduleFailure {
            seed,
            kind,
            trace: run.decisions,
            preemptions: run.preemptions,
        })
    }
}

/// Mixes the base seed and schedule index into a schedule seed.
fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
