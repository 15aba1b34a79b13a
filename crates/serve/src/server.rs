//! The concurrent job server: scoped worker pool, single-flight
//! coalescing, and the line-protocol loop.
//!
//! [`Server::submit`] is the synchronous core: probe the cache, replay on
//! a hit (discarding corrupt or mismatched entries and falling through to
//! a cold run), otherwise run the full pipeline exactly once per key —
//! concurrent identical jobs coalesce behind the first submitter instead
//! of racing the forward transient N times. [`run_lines`] wraps it in the
//! wire protocol over any `BufRead`/`Write` pair, sharding `SOLVE` lines
//! across a scoped worker pool. Worker panics are caught per job
//! (`catch_unwind`): the job answers with an `ERR … panic` line and the
//! worker keeps serving. `SHUTDOWN` (or end of input) stops intake,
//! drains every queued job, answers it, then says `BYE` — queued work is
//! never stranded and the cache directory is left with no temp files.

use crate::cache::{CacheMetrics, TensorCache};
use crate::engine::{resolve, run_cold, run_hit, JobOutcome};
use crate::protocol::{self, JobRequest, Request, MAX_LINE_BYTES};
use crate::ServeError;
use masc_adjoint::lanes::lock_ignoring_poison as lock;
use masc_compress::MascConfig;
use std::collections::{HashSet, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering `SOLVE` lines.
    pub workers: usize,
    /// In-memory cache tier budget (encoded-entry bytes).
    pub mem_budget: usize,
    /// Disk cache tier budget (file bytes).
    pub disk_budget: usize,
    /// Disk tier directory (`None` = memory tier only).
    pub cache_dir: Option<PathBuf>,
    /// Compression configuration for captured tensors (part of every
    /// cache key).
    pub masc: MascConfig,
    /// Fault injection for tests: a job id whose submission panics
    /// mid-worker, exercising the catch-unwind / worker-survival path.
    pub fault_panic_job: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            mem_budget: 64 << 20,
            disk_budget: 256 << 20,
            cache_dir: None,
            masc: MascConfig::default(),
            fault_panic_job: None,
        }
    }
}

/// The job server: cache and single-flight state.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    cache: Mutex<TensorCache>,
    inflight: Mutex<HashSet<u64>>,
    inflight_done: Condvar,
    jobs: AtomicU64,
    cold_runs: AtomicU64,
    worker_panics: AtomicU64,
}

impl Server {
    /// Opens the cache tiers and builds a server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Cache`] if the cache directory cannot be
    /// opened.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        let cache = TensorCache::open(cfg.cache_dir.clone(), cfg.mem_budget, cfg.disk_budget)?;
        Ok(Self {
            cfg,
            cache: Mutex::new(cache),
            inflight: Mutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
            jobs: AtomicU64::new(0),
            cold_runs: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
        })
    }

    /// Cache telemetry snapshot.
    pub fn cache_metrics(&self) -> CacheMetrics {
        lock(&self.cache).metrics()
    }

    /// Jobs submitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Full pipeline (forward + reverse) executions so far — the number
    /// the single-flight and cache layers exist to minimize.
    pub fn cold_runs(&self) -> u64 {
        self.cold_runs.load(Ordering::Relaxed)
    }

    /// Worker panics absorbed so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Resolves and runs one job: cache hit replay, or a single-flighted
    /// cold run that populates the cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] describing the first failing stage.
    ///
    /// # Panics
    ///
    /// Panics only when [`ServeConfig::fault_panic_job`] names this job —
    /// the fault-injection hook behind the worker-death tests.
    pub fn submit(&self, req: &JobRequest) -> Result<JobOutcome, ServeError> {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if self.cfg.fault_panic_job.as_deref() == Some(req.id.as_str()) {
            panic!("injected fault: job {} configured to panic", req.id);
        }
        let job = resolve(req, &self.cfg.masc)?;
        loop {
            let cached = lock(&self.cache).get(job.key);
            if let Some(entry) = cached {
                // A `None` replay means the entry was discarded as
                // corrupt/stale; fall through to a cold run.
                if let Some(result) = self.replay(&job, &entry) {
                    return result;
                }
            }

            // Single flight: exactly one submitter per key runs the
            // pipeline; the rest wait and re-probe the cache.
            let leader = lock(&self.inflight).insert(job.key);
            if !leader {
                lock(&self.cache).note_coalesced();
                let mut inflight = lock(&self.inflight);
                while inflight.contains(&job.key) {
                    inflight = self
                        .inflight_done
                        .wait(inflight)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                drop(inflight);
                continue;
            }

            // Leader: make sure the key is released and waiters woken on
            // every exit path, panics included.
            let guard = InflightGuard {
                server: self,
                key: job.key,
            };
            // Close the probe→leadership race: a previous leader may have
            // populated the cache between our probe and our acquisition.
            let raced = lock(&self.cache).recheck(job.key);
            if let Some(entry) = raced {
                drop(guard);
                match self.replay(&job, &entry) {
                    Some(result) => return result,
                    None => continue,
                }
            }
            self.cold_runs.fetch_add(1, Ordering::Relaxed);
            let result = run_cold(&job);
            let (outcome, entry) = result?; // guard releases on error
            lock(&self.cache).put(job.key, std::sync::Arc::new(entry));
            drop(guard);
            return Ok(outcome);
        }
    }

    /// Replays a cached entry; `None` means the entry was corrupt or
    /// structurally stale, has been discarded, and the caller should run
    /// cold.
    fn replay(
        &self,
        job: &crate::engine::ResolvedJob,
        entry: &crate::cache::CacheEntry,
    ) -> Option<Result<JobOutcome, ServeError>> {
        match run_hit(job, entry) {
            Ok(outcome) => Some(Ok(outcome)),
            Err(e) if e.is_cache_fault() => {
                lock(&self.cache).discard(job.key);
                None
            }
            Err(e) => Some(Err(e)),
        }
    }
}

/// Releases a single-flight key on drop (normal return, error, or
/// unwind) and wakes every waiter.
struct InflightGuard<'a> {
    server: &'a Server,
    key: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        lock(&self.server.inflight).remove(&self.key);
        self.server.inflight_done.notify_all();
    }
}

fn render_stats(server: &Server) -> String {
    let m = server.cache_metrics();
    format!(
        "STATS jobs={} cold_runs={} worker_panics={} hits={} mem_hits={} disk_hits={} \
         misses={} coalesced={} inserts={} evictions={} corrupt_entries={} \
         mem_bytes={} disk_bytes={}",
        server.jobs(),
        server.cold_runs(),
        server.worker_panics(),
        m.hits,
        m.mem_hits,
        m.disk_hits,
        m.misses,
        m.coalesced,
        m.inserts,
        m.evictions,
        m.corrupt_entries,
        m.mem_bytes,
        m.disk_bytes,
    )
}

fn respond<W: Write>(out: &Mutex<W>, line: &str) {
    let mut w = lock(out);
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

fn answer_solve<W: Write>(server: &Server, req: &JobRequest, out: &Mutex<W>) {
    let result = catch_unwind(AssertUnwindSafe(|| server.submit(req)));
    let line = match result {
        Ok(Ok(outcome)) => protocol::render_ok(
            &req.id,
            outcome.hit,
            outcome.tran_stats.steps,
            &outcome.objective_values,
            &outcome.sensitivities,
        ),
        Ok(Err(e)) => protocol::render_err(&req.id, e.code(), &e.to_string()),
        Err(_) => {
            server.worker_panics.fetch_add(1, Ordering::Relaxed);
            protocol::render_err(&req.id, "panic", "job aborted by panic; worker recovered")
        }
    };
    respond(out, &line);
}

/// The worker queue. `closed` lives *inside* the mutex-guarded state:
/// a worker that observed `closed == false` under the lock is either
/// still holding it or already parked in `Condvar::wait` (which releases
/// the lock atomically) when the reader sets the flag under the same
/// lock — so the close can never interleave between a worker's check and
/// its wait, and the wake-up is never lost.
struct JobQueue {
    items: VecDeque<Request>,
    closed: bool,
}

/// The outcome of reading one length-capped request line.
enum LineRead {
    /// End of input.
    Eof,
    /// A complete line, within the cap.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; its bytes were discarded
    /// without buffering and the reader is positioned after it.
    TooLong {
        /// Total line length consumed (saturating).
        len: usize,
    },
}

/// Reads one `\n`-terminated line into `line`, buffering at most
/// [`MAX_LINE_BYTES`] + 1 bytes. An over-long line is consumed chunk by
/// chunk and discarded, so a client streaming gigabytes without a
/// newline costs bounded memory, not an OOM.
fn read_capped_line<R: BufRead>(input: &mut R, line: &mut String) -> std::io::Result<LineRead> {
    line.clear();
    let mut buf: Vec<u8> = Vec::new();
    let mut total = 0usize;
    let mut saw_any = false;
    let mut done = false;
    while !done {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            if !saw_any {
                return Ok(LineRead::Eof);
            }
            break;
        }
        saw_any = true;
        let take = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                done = true;
                pos + 1
            }
            None => chunk.len(),
        };
        total = total.saturating_add(take);
        if total <= MAX_LINE_BYTES + 1 {
            buf.extend_from_slice(&chunk[..take]);
        } else {
            // Over the cap: stop buffering and just drain to the newline.
            buf.clear();
        }
        input.consume(take);
    }
    if total > MAX_LINE_BYTES + 1 {
        return Ok(LineRead::TooLong { len: total });
    }
    match String::from_utf8(buf) {
        Ok(s) => {
            *line = s;
            Ok(LineRead::Line)
        }
        Err(_) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request line is not valid UTF-8",
        )),
    }
}

/// Serves the line protocol from `input` to `output` until `SHUTDOWN` or
/// end of input, sharding jobs across [`ServeConfig::workers`] scoped
/// threads. Returns `true` if an explicit `SHUTDOWN` was received.
///
/// # Errors
///
/// Returns [`ServeError::Io`] if reading `input` fails.
pub fn run_lines<R: BufRead, W: Write + Send>(
    server: &Server,
    mut input: R,
    output: W,
) -> Result<bool, ServeError> {
    let out = Mutex::new(output);
    let queue = Mutex::new(JobQueue {
        items: VecDeque::new(),
        closed: false,
    });
    let queue_ready = Condvar::new();
    let mut got_shutdown = false;
    let mut read_error: Option<std::io::Error> = None;
    // Injected-defect switch: armed, the close protocol regresses to
    // tracking `closed` outside the queue mutex (the pre-fix shape whose
    // lost wakeup the interleaving explorer must expose). Unarmed and in
    // normal builds the flag below is never consulted.
    #[cfg(feature = "mutation-hooks")]
    let closed_outside = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        let workers = server.cfg.workers.max(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "one handle per configured worker"
        )]
        let mut lanes = Vec::with_capacity(workers);
        for _ in 0..workers {
            lanes.push(scope.spawn(|| loop {
                let item = {
                    let mut q = lock(&queue);
                    loop {
                        if let Some(item) = q.items.pop_front() {
                            break Some(item);
                        }
                        #[cfg(feature = "mutation-hooks")]
                        if crate::mutation::active(crate::mutation::Defect::LostWakeupClose) {
                            if closed_outside.load(Ordering::Relaxed) {
                                break None;
                            }
                            q = queue_ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                            continue;
                        }
                        if q.closed {
                            break None;
                        }
                        q = queue_ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                match item {
                    Some(Request::Solve(req)) => answer_solve(server, &req, &out),
                    Some(Request::Stats) => respond(&out, &render_stats(server)),
                    Some(Request::Shutdown) | None => break,
                }
            }));
        }

        let mut line = String::new();
        loop {
            match read_capped_line(&mut input, &mut line) {
                Ok(LineRead::Eof) => break,
                Ok(LineRead::Line) => {}
                Ok(LineRead::TooLong { len }) => {
                    let e = protocol::ProtocolError::LineTooLong { len };
                    respond(&out, &protocol::render_err("-", "protocol", &e.to_string()));
                    continue;
                }
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
            if line.trim().is_empty() {
                continue;
            }
            match protocol::parse_request(&line) {
                Ok(Request::Shutdown) => {
                    got_shutdown = true;
                    break;
                }
                Ok(req) => {
                    lock(&queue).items.push_back(req);
                    queue_ready.notify_one();
                }
                Err(e) => respond(&out, &protocol::render_err("-", "protocol", &e.to_string())),
            }
        }
        // Drain: workers finish everything already queued, then exit.
        // The flag flips under the queue lock (see [`JobQueue`]).
        #[cfg(feature = "mutation-hooks")]
        if crate::mutation::active(crate::mutation::Defect::LostWakeupClose) {
            // BUG (injected): the close is published outside the queue
            // mutex, so it can land between a worker's predicate check
            // and its wait — the notify below is then lost forever.
            closed_outside.store(true, Ordering::Relaxed);
        }
        lock(&queue).closed = true;
        queue_ready.notify_all();
        // Consume every lane's join result: `answer_solve` catches
        // per-job panics, so an `Err` here means a lane died outside a
        // job — report it instead of letting scope exit re-raise it
        // after `BYE` has already been written.
        for lane in lanes {
            if lane.join().is_err() {
                respond(
                    &out,
                    &protocol::render_err("-", "worker", "worker lane panicked outside a job"),
                );
            }
        }
    });

    respond(&out, "BYE");
    match read_error {
        Some(e) => Err(ServeError::Io(e)),
        None => Ok(got_shutdown),
    }
}
