//! The concurrent job server: scoped worker pool, single-flight
//! coalescing, and the line-protocol loop.
//!
//! [`Server::submit`] is the synchronous core: probe the cache, replay on
//! a hit (discarding corrupt or mismatched entries and falling through to
//! a cold run), otherwise run the full pipeline exactly once per key —
//! concurrent identical jobs queue on the key's gate (a plain mutex)
//! behind the first submitter instead of racing the forward transient N
//! times. [`run_lines`] wraps it in the wire protocol over any
//! `BufRead`/`Write` pair, sharding `SOLVE` lines across a scoped worker
//! pool fed by an `mpsc` channel. Worker panics are caught per job
//! (`catch_unwind`): the job answers with an `ERR … panic` line and the
//! worker keeps serving. `SHUTDOWN` (or end of input) drops the channel's
//! sender; the workers drain every queued job, answer it, then see the
//! channel close, and `BYE` follows — queued work is never stranded and
//! the cache directory is left with no temp files.

use crate::cache::{CacheMetrics, TensorCache};
use crate::engine::{resolve, run_cold, run_hit, JobOutcome};
use crate::protocol::{self, JobRequest, Request, MAX_LINE_BYTES};
use crate::ServeError;
use masc_adjoint::lanes::lock_ignoring_poison as lock;
use masc_compress::MascConfig;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, TryLockError};

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
///
/// Single flight keeps one gate per key in flight: submitters of a key
/// take turns on its mutex, and the last one out removes the key, so the
/// map holds only keys that some submitter is running or waiting on.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    cache: Mutex<TensorCache>,
    inflight: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
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
            inflight: Mutex::new(HashMap::new()),
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
        self.run(req)
    }

    /// [`submit`](Self::submit) for a job already counted in
    /// [`jobs`](Self::jobs).
    fn run(&self, req: &JobRequest) -> Result<JobOutcome, ServeError> {
        if self.cfg.fault_panic_job.as_deref() == Some(req.id.as_str()) {
            panic!("injected fault: job {} configured to panic", req.id);
        }
        let job = resolve(req, &self.cfg.masc)?;
        let cached = lock(&self.cache).get(job.key);
        if let Some(entry) = cached {
            // A `None` replay means the entry was discarded as
            // corrupt/stale; fall through to a cold run.
            if let Some(result) = self.replay(&job, &entry) {
                return result;
            }
        }

        // Single flight: submitters of one key take turns on its gate, so
        // only the first runs the pipeline and the rest find its entry.
        // After a holder's error or panic the next one runs cold itself:
        // errors are never shared, because the key leaves out the
        // objectives and a sibling job may still succeed.
        let flight = Flight::join(self, job.key);
        let _turn = flight.gate.as_deref().map(|gate| self.take_turn(gate));
        // A previous holder may have populated the cache since the probe.
        let raced = lock(&self.cache).recheck(job.key);
        if let Some(entry) = raced {
            if let Some(result) = self.replay(&job, &entry) {
                return result;
            }
        }
        self.cold_runs.fetch_add(1, Ordering::Relaxed);
        let (outcome, entry) = run_cold(&job)?;
        lock(&self.cache).put(job.key, Arc::new(entry));
        Ok(outcome)
    }

    /// Takes the turn on a key's gate, counting the wait as coalesced if
    /// another submitter holds it. A holder that panicked poisoned only a
    /// `()`, so the poison is ignored.
    fn take_turn<'g>(&self, gate: &'g Mutex<()>) -> MutexGuard<'g, ()> {
        match gate.try_lock() {
            Ok(turn) => turn,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                lock(&self.cache).note_coalesced();
                lock(gate)
            }
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

/// One submitter's handle on a key's gate. `gate` is `Some` until drop
/// (on return, error or unwind), which releases the handle under the map
/// lock and removes the key if the map's handle is the last one. Handles
/// are cloned and dropped only under that lock, so the count is exact.
struct Flight<'a> {
    server: &'a Server,
    key: u64,
    gate: Option<Arc<Mutex<()>>>,
}

impl<'a> Flight<'a> {
    fn join(server: &'a Server, key: u64) -> Self {
        let gate = Arc::clone(lock(&server.inflight).entry(key).or_default());
        Self {
            server,
            key,
            gate: Some(gate),
        }
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut inflight = lock(&self.server.inflight);
        drop(self.gate.take());
        if inflight
            .get(&self.key)
            .is_some_and(|gate| Arc::strong_count(gate) == 1)
        {
            inflight.remove(&self.key);
        }
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
    let result = catch_unwind(AssertUnwindSafe(|| server.run(req)));
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

/// What the reader queues for a worker: the requests answered by a line.
enum Work {
    Solve(JobRequest),
    Stats,
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
/// threads. The workers share the receiving end of one channel; at the
/// end of input the reader drops the sender, `recv` hands out every job
/// still queued and then fails, and each worker exits. Returns `true` if
/// an explicit `SHUTDOWN` was received.
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
    let (queue, work) = mpsc::channel();
    let work = Mutex::new(work);
    let mut got_shutdown = false;
    let mut read_error: Option<std::io::Error> = None;

    std::thread::scope(|scope| {
        let workers = server.cfg.workers.max(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "one handle per configured worker"
        )]
        let mut lanes = Vec::with_capacity(workers);
        for _ in 0..workers {
            lanes.push(scope.spawn(|| loop {
                // The receiver's guard is a temporary of this statement, so
                // it is released before the job runs, and a job is counted
                // before the next worker can take the item behind it: a
                // `STATS` line counts every `SOLVE` queued before it.
                let Ok(item) = lock(&work).recv().inspect(|item| {
                    if matches!(item, Work::Solve(_)) {
                        server.jobs.fetch_add(1, Ordering::Relaxed);
                    }
                }) else {
                    break;
                };
                match item {
                    Work::Solve(req) => answer_solve(server, &req, &out),
                    Work::Stats => respond(&out, &render_stats(server)),
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
            let item = match protocol::parse_request(&line) {
                Ok(Request::Solve(req)) => Work::Solve(req),
                Ok(Request::Stats) => Work::Stats,
                Ok(Request::Shutdown) => {
                    got_shutdown = true;
                    break;
                }
                Err(e) => {
                    respond(&out, &protocol::render_err("-", "protocol", &e.to_string()));
                    continue;
                }
            };
            // The receiver outlives the scope, so the send cannot fail.
            let _ = queue.send(item);
        }
        // Drain: workers finish everything already queued, then `recv`
        // reports the closed channel and they exit.
        drop(queue);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ObjectiveSpec, ParamSelector};

    /// The gate map holds only keys in flight: once every submitter of a
    /// key is out — after success or after an error — its entry is gone.
    #[test]
    fn the_last_submitter_out_removes_the_key() {
        let server = Server::new(ServeConfig::default()).unwrap();
        let request = |id: &str, objective| JobRequest {
            id: id.to_string(),
            objectives: vec![objective],
            params: ParamSelector::All,
            deck: "I1 a 0 DC 1e-3\nR1 a 0 1k\nC1 a 0 1n\n.tran 0.1u 5u\n.end\n".to_string(),
        };
        let ok = request("ok", ObjectiveSpec::FinalValue { node: "a".into() });
        let bad = request(
            "bad",
            ObjectiveSpec::AtStep {
                node: "a".into(),
                step: 99_999,
            },
        );
        std::thread::scope(|scope| {
            for req in [&bad, &ok, &bad, &ok] {
                scope.spawn(|| server.submit(req));
            }
        });
        assert!(lock(&server.inflight).is_empty());
    }
}
