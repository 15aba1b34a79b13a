//! The parent side: builds the inputs, runs the jobs in child processes,
//! verifies every output and turns the reports into named metrics.
//!
//! Load shape: one generator process, closed loop, one job at a time; a
//! job uses at most `min(2, nproc)` threads.

use crate::child::{ChildOut, Mode};
use crate::decks::build_deck;
use crate::jobs::{Budget, JobOut, Matrix};
use crate::json::Value;
use crate::spans::{spans_to_json, total_s, totals_by_name, Span};
use crate::stats::{median, percentile};
use crate::workloads::{Workload, PER_LAYER, SERVE_SELECTIONS};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Largest gradient error, relative to a row's largest entry, at which a
/// windowed run still counts as equal to the monolithic one.
const WINDOW_TOLERANCE: f64 = 1e-6;

/// What the caller chose for one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Seconds one workload is measured for.
    pub seconds: f64,
    /// Sizes ÷ ~8 and a fixed small number of jobs: a smoke test.
    pub quick: bool,
}

/// The outputs a workload's jobs must reproduce.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    pub hashes: Vec<u64>,
    pub grads: Vec<Matrix>,
}

/// Jobs attempted, jobs failed, and the timings of the ones that passed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub solve_s: Vec<f64>,
    pub max_rel_err: f64,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(why);
    }

    /// Scores job `index` of a workload: a job that fails verification
    /// counts as failed and is excluded from the timings.
    pub fn score(&mut self, workload: Workload, expected: &Expected, index: usize, job: &JobOut) {
        match verify_job(workload, expected, index, job) {
            Ok(rel_err) => {
                self.attempted += 1;
                self.solve_s.push(job.solve_s);
                self.max_rel_err = self.max_rel_err.max(rel_err);
            }
            Err(why) => self.fail(format!("{} job {index}: {why}", workload.name())),
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Largest `|a − b|` of two same-shape matrices relative to each row's
/// largest reference entry; `None` when the shapes differ.
fn max_rel_err(reference: &Matrix, got: &Matrix) -> Option<f64> {
    if reference.len() != got.len() {
        return None;
    }
    let mut worst = 0.0f64;
    for (r, g) in reference.iter().zip(got) {
        if r.len() != g.len() {
            return None;
        }
        let scale = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in r.iter().zip(g) {
            let err = (a - b).abs();
            if !err.is_finite() {
                return None;
            }
            if err > 0.0 {
                worst = worst.max(err / scale.max(f64::MIN_POSITIVE));
            }
        }
    }
    Some(worst)
}

/// Checks one job's output. Gradients must equal the reference bit for
/// bit, except `window_pit`, which must be within [`WINDOW_TOLERANCE`].
/// Returns the relative error (0 for bitwise checks).
pub fn verify_job(
    workload: Workload,
    expected: &Expected,
    index: usize,
    job: &JobOut,
) -> Result<f64, String> {
    if job.hashes.is_empty() || !job.solve_s.is_finite() || job.solve_s <= 0.0 {
        return Err("the job returned no result".to_string());
    }
    match workload {
        Workload::WindowPit => {
            let (want, got) = (expected.grads.first(), job.grads.first());
            let err = want
                .zip(got)
                .and_then(|(w, g)| max_rel_err(w, g))
                .ok_or("gradient shape differs from the monolithic run")?;
            if err > WINDOW_TOLERANCE {
                return Err(format!("gradient off by {err:.3e} relative"));
            }
            Ok(err)
        }
        Workload::ServeReplay => {
            let want = expected.hashes.get(index % SERVE_SELECTIONS);
            if want != job.hashes.first() || job.hashes.len() != 1 {
                return Err("hit differs from the cold answer of its selection".to_string());
            }
            Ok(0.0)
        }
        _ => {
            if expected.hashes != job.hashes {
                return Err("gradient bits differ from the reference".to_string());
            }
            Ok(0.0)
        }
    }
}

fn spawn(
    workload: Workload,
    mode: Mode,
    quick: bool,
    budget: Budget,
    deck: &str,
) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["job", "--workload", workload.name(), "--mode", mode.name()])
        .args(["--seconds", &budget.seconds.to_string()])
        .args(["--min-jobs", &budget.min_jobs.to_string()])
        .args(["--setup-reps", &budget.setup_reps.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning a job: {e}"))?;
    // The child reads the whole deck before it prints anything, so writing
    // first and reading afterwards cannot deadlock.
    let sent = child
        .stdin
        .take()
        .ok_or("child has no stdin".to_string())
        .and_then(|mut stdin| stdin.write_all(deck.as_bytes()).map_err(|e| e.to_string()));
    // Always wait, so that no child outlives the run.
    let output = child
        .wait_with_output()
        .map_err(|e| format!("waiting for a job: {e}"))?;
    sent.map_err(|e| format!("sending the deck: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} {} child exited with {}",
            workload.name(),
            mode.name(),
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("child printed nothing")?;
    ChildOut::from_json_text(line)
}

/// The reference a workload's jobs are checked against.
fn reference(workload: Workload, quick: bool, deck: &str) -> Result<(Expected, f64), String> {
    let out = spawn(workload, Mode::Reference, quick, Budget::ONE_JOB, deck)?;
    let job = out
        .jobs
        .into_iter()
        .next()
        .ok_or("reference child ran no job")?;
    Ok((
        Expected {
            hashes: job.hashes,
            grads: job.grads,
        },
        job.solve_s,
    ))
}

/// Children of one mode and the score of their jobs.
#[derive(Debug)]
struct Lane {
    mode: Mode,
    tally: Tally,
    children: Vec<ChildOut>,
}

impl Lane {
    fn new(mode: Mode) -> Self {
        Self {
            mode,
            tally: Tally::default(),
            children: Vec::new(),
        }
    }

    /// Scores every job of one child and keeps its report.
    fn absorb(&mut self, workload: Workload, expected: &Expected, child: Result<ChildOut, String>) {
        let mut child = match child {
            Ok(child) => child,
            Err(why) => return self.tally.fail(why),
        };
        // The codec child holds its own reference: the input bits.
        let own = Expected {
            hashes: std::mem::take(&mut child.expected),
            grads: Vec::new(),
        };
        let expected = if workload == Workload::TensorCodec {
            &own
        } else {
            expected
        };
        if workload == Workload::ServeReplay
            && child.setup_hashes.first() != expected.hashes.first()
        {
            self.tally
                .fail("serve_replay: the cold answer differs from the reference".to_string());
        }
        for (index, job) in child.jobs.iter().enumerate() {
            self.tally.score(workload, expected, index, job);
        }
        self.children.push(child);
    }
}

/// Runs the lanes' children for `seconds` in all. Jobs that each take a
/// fresh process alternate between the lanes, so that drift of the
/// machine hits every lane alike, and `between_rounds` runs before each
/// round; a resident child gets an equal share of the time.
fn run_lanes(
    workload: Workload,
    opts: &Options,
    seconds: f64,
    expected: &Expected,
    deck: &str,
    lanes: &mut [Lane],
    mut between_rounds: impl FnMut(),
) {
    let single = lanes.len() == 1;
    if workload.process_per_job() {
        let min_rounds = match (opts.quick, single) {
            (true, true) => 2,
            (true, false) => 1,
            (false, true) => 3,
            (false, false) => 2,
        };
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
            between_rounds();
            for lane in lanes.iter_mut() {
                let child = spawn(workload, lane.mode, opts.quick, Budget::ONE_JOB, deck);
                lane.absorb(workload, expected, child);
            }
            rounds += 1;
        }
    } else {
        let serve = workload == Workload::ServeReplay;
        let budget = Budget {
            seconds: seconds / lanes.len() as f64,
            min_jobs: match (serve, opts.quick) {
                (true, true) => 12,
                (true, false) => 3 * SERVE_SELECTIONS,
                (false, true) => 2,
                (false, false) => 3,
            },
            setup_reps: if opts.quick || !single { 1 } else { 3 },
        };
        for lane in lanes.iter_mut() {
            let child = spawn(workload, lane.mode, opts.quick, budget, deck);
            lane.absorb(workload, expected, child);
        }
    }
}

/// Counts that repeat exactly for a fixed seed must be identical across
/// the jobs of one run.
fn check_exact_repeat(workload: Workload, children: &[ChildOut], tally: &mut Tally) {
    let key = |c: &ChildOut| {
        (
            c.facts.counts.clone(),
            c.facts.raw_bytes.to_bits(),
            c.facts.stored_bytes.to_bits(),
        )
    };
    if let Some(first) = children.first() {
        if children.iter().any(|c| key(c) != key(first)) {
            tally.failed = (tally.failed + 1).min(tally.attempted);
            tally.errors.push(format!(
                "{}: exact-repeat counts differ between jobs of one run",
                workload.name()
            ));
        }
    }
}

/// One workload's end-to-end measurement, tracing off.
#[derive(Debug)]
pub struct Measured {
    pub workload: Workload,
    pub tally: Tally,
    /// Samples per end-to-end metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<String, f64>,
    pub threads: usize,
}

/// Builds the deck text once, timed.
fn deck_setup(workload: Workload, opts: &Options) -> (String, f64) {
    let start = Instant::now();
    let deck = build_deck(workload, opts.quick, opts.seed);
    (deck, start.elapsed().as_secs_f64())
}

/// Measures one workload end to end with tracing off.
pub fn measure(workload: Workload, opts: &Options) -> Measured {
    // Deck set-up takes milliseconds, so a busy moment of the machine can
    // double one sample. It is repeated a few times here and once more
    // before every job, which spreads the samples over the whole run.
    let mut deck_s = Vec::new();
    let mut deck = String::new();
    for _ in 0..3 {
        let (text, seconds) = deck_setup(workload, opts);
        deck = text;
        deck_s.push(seconds);
    }
    let mut lanes = [Lane::new(Mode::Timed)];
    let expected = if workload == Workload::TensorCodec {
        Ok(Expected::default())
    } else {
        reference(workload, opts.quick, &deck).map(|(e, _)| e)
    };
    match expected {
        Ok(expected) => {
            run_lanes(
                workload,
                opts,
                opts.seconds,
                &expected,
                &deck,
                &mut lanes,
                || deck_s.push(deck_setup(workload, opts).1),
            );
            let [lane] = &mut lanes;
            check_exact_repeat(workload, &lane.children, &mut lane.tally);
        }
        Err(why) => lanes[0]
            .tally
            .fail(format!("{} reference: {why}", workload.name())),
    }
    let [Lane {
        tally, children, ..
    }] = lanes;

    let mut samples = BTreeMap::new();
    samples.insert("solve_s", tally.solve_s.clone());
    samples.insert("peak_rss_mb", children.iter().map(|c| c.rss_mb).collect());
    samples.insert(
        "compress_ratio",
        children
            .iter()
            .filter(|c| c.facts.stored_bytes > 0.0)
            .map(|c| c.facts.raw_bytes / c.facts.stored_bytes)
            .collect(),
    );
    // Set-up is everything before the first timed job: the deck text, plus
    // what a resident child does before its first job (tensor capture;
    // server start and the cold submit).
    let deck_median = median(&deck_s);
    let resident: Vec<f64> = children.iter().flat_map(|c| c.setup_s.clone()).collect();
    samples.insert(
        "setup_s",
        if resident.is_empty() {
            deck_s
        } else {
            resident.iter().map(|s| s + deck_median).collect()
        },
    );
    Measured {
        workload,
        tally,
        samples,
        counts: children
            .first()
            .map(|c| c.facts.counts.clone())
            .unwrap_or_default(),
        threads: children.first().map_or(0, |c| c.threads),
    }
}

/// One workload's traced run.
#[derive(Debug)]
pub struct Traced {
    pub workload: Workload,
    pub tally: Tally,
    /// Every per-layer metric; 0 where the layer is not part of the
    /// workload.
    pub layers: BTreeMap<String, f64>,
    /// The three span names with the largest self time, in seconds.
    pub hot: Vec<(String, f64)>,
    pub span_file: Option<PathBuf>,
}

/// Where span files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_span_file(
    workload: Workload,
    opts: &Options,
    spans: &[Span],
) -> Result<PathBuf, std::io::Error> {
    let totals = totals_by_name(spans).into_iter().map(|(name, t)| {
        let total = Value::obj([
            ("calls", Value::Num(t.calls as f64)),
            ("total_s", Value::Num(t.total_ns as f64 * 1e-9)),
            ("self_s", Value::Num(t.self_ns as f64 * 1e-9)),
        ]);
        (name, total)
    });
    let doc = Value::obj([
        ("workload", Value::str(workload.name())),
        ("seed", Value::Num(opts.seed as f64)),
        ("quick", Value::Bool(opts.quick)),
        ("totals", Value::Obj(totals.collect())),
        ("spans", spans_to_json(spans)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, doc.render() + "\n")?;
    Ok(path)
}

/// The per-layer numbers one traced child gives: what its stats structs
/// report, what the replay measured, and sums of its harness spans.
fn child_layers(child: &ChildOut) -> BTreeMap<String, f64> {
    let mut layers = child.facts.layers.clone();
    let mut set = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    let count = |name: &str| child.facts.counts.get(name).copied().unwrap_or(0.0);
    set("circuit.steps", count("circuit.steps"));
    set("circuit.newton_iters", count("circuit.newton_iters"));
    if child.facts.stored_bytes > 0.0 {
        set(
            "compress.ratio",
            child.facts.raw_bytes / child.facts.stored_bytes,
        );
        set(
            "compress.bytes_per_step",
            child.facts.stored_bytes / (count("circuit.steps") + 1.0),
        );
    }
    let totals = totals_by_name(&child.spans);
    for name in [
        "forward",
        "sink",
        "seal",
        "cursor_new",
        "fetch",
        "offer",
        "reverse",
    ] {
        set(
            &format!("adjoint.{name}_s"),
            total_s(&totals, &format!("adjoint.{name}")),
        );
    }
    // `finish` consumes the cursor and frees its pools, so tear-down runs
    // from there until the last piece of run state is dropped.
    set(
        "adjoint.teardown_s",
        total_s(&totals, "adjoint.finish") + total_s(&totals, "adjoint.teardown"),
    );
    set(
        "circuit.forward_self_s",
        totals
            .get("adjoint.forward")
            .map_or(0.0, |t| t.self_ns as f64 * 1e-9),
    );
    set("sweep.batch_s", total_s(&totals, "sweep.batch"));
    layers
}

/// Per-key median over several maps (a key missing from a map counts as
/// absent, not as 0).
fn median_maps(maps: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for map in maps {
        for (name, value) in map {
            values.entry(name.clone()).or_default().push(*value);
        }
    }
    values
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect()
}

/// Runs one workload untraced and traced, alternating, and derives the
/// per-layer metrics and the tracing overhead.
pub fn trace(workload: Workload, opts: &Options) -> Traced {
    let (deck, _) = deck_setup(workload, opts);
    let mut layers: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), 0.0))
        .collect();
    let (expected, base_s) = if workload == Workload::TensorCodec {
        (Expected::default(), 0.0)
    } else {
        match reference(workload, opts.quick, &deck) {
            Ok(found) => found,
            Err(why) => {
                let mut tally = Tally::default();
                tally.fail(format!("{} reference: {why}", workload.name()));
                return Traced {
                    workload,
                    tally,
                    layers,
                    hot: Vec::new(),
                    span_file: None,
                };
            }
        }
    };
    let mut lanes = [Lane::new(Mode::Timed), Lane::new(Mode::Traced)];
    run_lanes(
        workload,
        opts,
        0.7 * opts.seconds,
        &expected,
        &deck,
        &mut lanes,
        || (),
    );
    let [plain, traced] = lanes;
    let mut tally = traced.tally;
    let traced_s = std::mem::take(&mut tally.solve_s);
    tally.attempted += plain.tally.attempted;
    tally.failed += plain.tally.failed;
    tally.errors.extend(plain.tally.errors);
    tally.max_rel_err = tally.max_rel_err.max(plain.tally.max_rel_err);

    // Every traced job gives one value per metric; report the median.
    let per_child: Vec<_> = traced.children.iter().map(child_layers).collect();
    for (name, value) in median_maps(&per_child) {
        debug_assert!(layers.contains_key(&name), "{name} is a per-layer metric");
        layers.insert(name, value);
    }
    let mut set = |name: &str, value: f64| {
        debug_assert!(layers.contains_key(name), "{name} is a per-layer metric");
        layers.insert(name.to_string(), value);
    };
    // Bases: the reference computation doubles as the comparison run.
    match workload {
        Workload::SweepBatch => set("sweep.independent_s", base_s),
        Workload::WindowPit => {
            set("window.mono_s", base_s);
            set("window.max_rel_err", tally.max_rel_err);
        }
        Workload::ServeReplay => {
            set("serve.hit_p50_ms", median(&traced_s) * 1e3);
            set("serve.hit_p90_ms", percentile(&traced_s, 90.0) * 1e3);
        }
        Workload::TensorCodec => {}
        Workload::MosChain | Workload::RcMesh | Workload::RamFanout => {
            set("adjoint.raw_store_s", base_s);
        }
    }
    if workload == Workload::MosChain {
        match spawn(workload, Mode::Xyce, opts.quick, Budget::ONE_JOB, &deck) {
            Ok(xyce) => set(
                "adjoint.xyce_like_s",
                xyce.jobs.first().map_or(0.0, |j| j.solve_s),
            ),
            Err(why) => tally.fail(format!("xyce-like baseline: {why}")),
        }
    }
    let (plain_median, traced_median) = (median(&plain.tally.solve_s), median(&traced_s));
    if plain_median > 0.0 && traced_median > 0.0 {
        set(
            "trace.overhead_frac",
            (traced_median - plain_median) / plain_median,
        );
    }

    // One span list for the whole run: job ids number the traced children.
    let mut spans = Vec::new();
    let mut self_s = Vec::new();
    for (job, child) in traced.children.iter().enumerate() {
        let offset = spans.len();
        spans.extend(child.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            job: job as u32,
            ..s.clone()
        }));
        self_s.push(
            totals_by_name(&child.spans)
                .into_iter()
                .map(|(name, t)| (name, t.self_ns as f64 * 1e-9))
                .collect(),
        );
    }
    let mut hot: Vec<(String, f64)> = median_maps(&self_s).into_iter().collect();
    hot.sort_by(|a, b| b.1.total_cmp(&a.1));
    hot.truncate(3);
    let span_file = match write_span_file(workload, opts, &spans) {
        Ok(path) => Some(path),
        Err(why) => {
            tally.errors.push(format!("writing the span file: {why}"));
            None
        }
    };
    Traced {
        workload,
        tally,
        layers,
        hot,
        span_file,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::hash_matrix;

    fn job_for(grads: Vec<Matrix>) -> JobOut {
        JobOut {
            solve_s: 1.5,
            hashes: grads.iter().map(hash_matrix).collect(),
            grads,
        }
    }

    #[test]
    fn one_flipped_gradient_bit_counts_in_failed_frac() {
        let grad = vec![vec![0.25, -3.0e-7], vec![1.0, 2.0]];
        let expected = Expected {
            hashes: vec![hash_matrix(&grad)],
            grads: Vec::new(),
        };
        let mut flipped = grad.clone();
        flipped[0][1] = f64::from_bits(flipped[0][1].to_bits() ^ 1);
        let mut tally = Tally::default();
        for workload in [Workload::MosChain, Workload::RcMesh, Workload::SweepBatch] {
            tally.score(workload, &expected, 0, &job_for(vec![grad.clone()]));
            tally.score(workload, &expected, 1, &job_for(vec![flipped.clone()]));
        }
        assert_eq!((tally.attempted, tally.failed), (6, 3));
        assert_eq!(tally.failed_frac(), 0.5);
        // Failed jobs are excluded from the timings.
        assert_eq!(tally.solve_s.len(), 3);
        assert_eq!(tally.errors.len(), 3);
    }

    #[test]
    fn serve_hits_are_checked_against_their_own_selection() {
        let answers: Vec<Matrix> = (0..SERVE_SELECTIONS)
            .map(|k| vec![vec![k as f64, 1.0]])
            .collect();
        let expected = Expected {
            hashes: answers.iter().map(hash_matrix).collect(),
            grads: Vec::new(),
        };
        let w = Workload::ServeReplay;
        let hit = |k: usize| job_for(vec![answers[k].clone()]);
        assert!(verify_job(w, &expected, 3, &hit(3)).is_ok());
        assert!(verify_job(w, &expected, 3 + SERVE_SELECTIONS, &hit(3)).is_ok());
        assert!(verify_job(w, &expected, 4, &hit(3)).is_err());
    }

    #[test]
    fn window_gradients_pass_within_tolerance_only() {
        let reference = vec![vec![1.0, 1.0e-3], vec![0.0, 0.0]];
        let expected = Expected {
            hashes: Vec::new(),
            grads: vec![reference.clone()],
        };
        let w = Workload::WindowPit;
        let mut close = reference.clone();
        close[0][1] += 5.0e-7;
        let err = verify_job(w, &expected, 0, &job_for(vec![close])).expect("within 1e-6");
        assert!(err > 4.0e-7 && err < 6.0e-7);
        let mut far = reference.clone();
        far[0][1] += 5.0e-6;
        assert!(verify_job(w, &expected, 0, &job_for(vec![far])).is_err());
        // A row of zeros must be reproduced exactly.
        let mut ghost = reference.clone();
        ghost[1][0] = 1.0e-30;
        assert!(verify_job(w, &expected, 0, &job_for(vec![ghost])).is_err());
        let mut nan = reference.clone();
        nan[0][0] = f64::NAN;
        assert!(verify_job(w, &expected, 0, &job_for(vec![nan])).is_err());
        assert!(verify_job(w, &expected, 0, &job_for(vec![vec![vec![1.0]]])).is_err());
    }

    #[test]
    fn a_job_without_a_result_fails() {
        let expected = Expected::default();
        assert!(verify_job(Workload::MosChain, &expected, 0, &JobOut::default()).is_err());
    }
}
