//! Budgeted round-robin fuzz driver with shrink-and-persist on failure.

use crate::corpus::{self, CorpusEntry};
use crate::minimize;
use crate::oracle::{run_input, Oracle};
use masc_testkit::prop::{case_seed, repro_seed};
use masc_testkit::Rng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration for one [`run`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Wall-clock fuzz budget, spread round-robin across oracles.
    pub budget: Duration,
    /// Base seed; per-case seeds are derived via [`case_seed`].
    pub seed: u64,
    /// Restrict the run to the oracle with this name.
    pub only: Option<String>,
    /// Where to persist minimized failures (`None` disables persistence).
    pub corpus_dir: Option<PathBuf>,
    /// Optional hard cap on cases per oracle (mainly for tests).
    pub max_cases_per_oracle: Option<u64>,
    /// Budget of candidate executions for the minimizer, per failure.
    pub shrink_iters: u32,
    /// Print per-case progress to stderr.
    pub verbose: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            budget: Duration::from_secs(10),
            seed: 0,
            only: None,
            corpus_dir: None,
            max_cases_per_oracle: None,
            shrink_iters: 2_000,
            verbose: false,
        }
    }
}

/// One persisted-or-reported failure.
#[derive(Debug)]
pub struct FailureReport {
    /// Case seed that produced the original failing input.
    pub seed: u64,
    /// Failure message from the oracle (or captured panic).
    pub message: String,
    /// Corpus path the minimized entry was written to, if persistence was on.
    pub corpus_path: Option<PathBuf>,
    /// The minimized entry itself.
    pub entry: CorpusEntry,
}

/// Per-oracle outcome of a run.
#[derive(Debug)]
pub struct OracleReport {
    /// Oracle name.
    pub name: &'static str,
    /// Cases executed.
    pub cases: u64,
    /// Failures found (fuzzing of an oracle stops at its first failure).
    pub failures: Vec<FailureReport>,
}

/// Whole-run outcome.
#[derive(Debug)]
pub struct RunReport {
    /// Per-oracle outcomes, in execution order.
    pub oracles: Vec<OracleReport>,
    /// Wall-clock time actually spent.
    pub elapsed: Duration,
}

impl RunReport {
    /// Total cases executed across all oracles.
    pub fn total_cases(&self) -> u64 {
        self.oracles.iter().map(|o| o.cases).sum()
    }

    /// Total failures across all oracles.
    pub fn total_failures(&self) -> usize {
        self.oracles.iter().map(|o| o.failures.len()).sum()
    }
}

/// Silences the default panic hook for the duration of a closure, so
/// expected decoder panics (which [`run_input`] converts to failures)
/// don't spray backtraces over the report.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Runs one failing input through shrinking and (optionally) persists the
/// minimized entry.
fn handle_failure(
    oracle: &dyn Oracle,
    cfg: &RunConfig,
    seed: u64,
    input: &[u8],
    message: String,
) -> FailureReport {
    let minimized = minimize::minimize(
        input,
        cfg.shrink_iters,
        |cand| oracle.shrink(cand),
        |cand| run_input(oracle, cand).is_err(),
    );
    let entry = CorpusEntry {
        oracle: oracle.name().to_string(),
        seed,
        payload: minimized,
    };
    let corpus_path =
        cfg.corpus_dir
            .as_deref()
            .and_then(|dir| match corpus::write_entry(dir, &entry) {
                Ok(path) => Some(path),
                Err(e) => {
                    eprintln!("warning: could not persist corpus entry: {e}");
                    None
                }
            });
    FailureReport {
        seed,
        message,
        corpus_path,
        entry,
    }
}

/// Fuzzes every selected oracle round-robin until the budget (or per-oracle
/// case cap) is exhausted. An oracle that fails stops fuzzing — its failure
/// is minimized, persisted, and reported — while the others continue.
///
/// If `MASC_PROP_REPRO` is set (decimal or `0x`-hex), each selected oracle
/// runs exactly once with that case seed instead of fuzzing.
pub fn run(oracles: &[Box<dyn Oracle>], cfg: &RunConfig) -> RunReport {
    let started = Instant::now();
    let selected: Vec<&dyn Oracle> = oracles
        .iter()
        .map(AsRef::as_ref)
        .filter(|o| cfg.only.as_deref().is_none_or(|only| only == o.name()))
        .collect();

    let repro = repro_seed();

    let mut reports: Vec<OracleReport> = selected
        .iter()
        .map(|o| OracleReport {
            name: o.name(),
            cases: 0,
            failures: Vec::new(),
        })
        .collect();

    with_quiet_panics(|| {
        if let Some(seed) = repro {
            for (oracle, report) in selected.iter().zip(&mut reports) {
                let mut rng = Rng::new(seed);
                let input = oracle.generate(&mut rng);
                report.cases = 1;
                if let Err(message) = run_input(*oracle, &input) {
                    report
                        .failures
                        .push(handle_failure(*oracle, cfg, seed, &input, message));
                }
            }
            return;
        }

        let mut case: u64 = 0;
        let mut live: Vec<usize> = (0..selected.len()).collect();
        while !live.is_empty() && started.elapsed() < cfg.budget {
            live.retain(|&idx| {
                if started.elapsed() >= cfg.budget {
                    return false;
                }
                let oracle = selected[idx];
                let report = &mut reports[idx];
                let seed = case_seed(cfg.seed, oracle.name(), case);
                let mut rng = Rng::new(seed);
                let input = oracle.generate(&mut rng);
                report.cases += 1;
                if cfg.verbose {
                    eprintln!(
                        "[{}] case {} seed {seed:#018x} ({} bytes)",
                        oracle.name(),
                        report.cases,
                        input.len()
                    );
                }
                if let Err(message) = run_input(oracle, &input) {
                    report
                        .failures
                        .push(handle_failure(oracle, cfg, seed, &input, message));
                    return false;
                }
                cfg.max_cases_per_oracle
                    .is_none_or(|cap| report.cases < cap)
            });
            case += 1;
        }
    });

    RunReport {
        oracles: reports,
        elapsed: started.elapsed(),
    }
}

/// Replays every corpus entry under `dir` through its recorded oracle.
/// Returns the failures (path + message); an empty vector means the whole
/// corpus passes.
pub fn replay_corpus(
    oracles: &[Box<dyn Oracle>],
    dir: &std::path::Path,
) -> std::io::Result<Vec<(PathBuf, String)>> {
    let entries = corpus::load_dir(dir)?;
    let mut failures = Vec::new();
    with_quiet_panics(|| {
        for (path, entry) in entries {
            let Some(oracle) = oracles.iter().find(|o| o.name() == entry.oracle) else {
                failures.push((path, format!("unknown oracle {:?}", entry.oracle)));
                continue;
            };
            if let Err(message) = run_input(oracle.as_ref(), &entry.payload) {
                failures.push((path, message));
            }
        }
    });
    Ok(failures)
}
