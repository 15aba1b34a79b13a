//! `masc-conform` — differential conformance & fuzz harness CLI.
//!
//! ```text
//! masc-conform [--budget <secs>] [--seed <u64>] [--only <oracle>]
//!              [--corpus-dir <dir>] [--max-cases <n>] [--defect <name>]
//!              [--list] [--replay] [--verbose]
//! ```
//!
//! Default mode fuzzes every oracle round-robin for the budget, then
//! replays the crash corpus as a regression pass. `--replay` skips the
//! fuzzing. `--defect` enables an injected defect (requires the
//! `mutation-hooks` builds this binary links against) to demonstrate the
//! harness catches it.

use masc_conform::{all_oracles, runner, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Cli {
    config: RunConfig,
    list: bool,
    replay_only: bool,
    fuzz_corpus_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: masc-conform [--budget <secs>] [--seed <u64>] [--only <oracle>]\n\
         \x20                   [--corpus-dir <dir>] [--max-cases <n>] [--defect <name>]\n\
         \x20                   [--list] [--replay] [--verbose]\n\
         defects: wrong-stamp-candidate | varint-len-off-by-one | stale-replay-block"
    );
    std::process::exit(2);
}

fn arm_defect(name: &str) {
    match name {
        "wrong-stamp-candidate" => masc_compress::mutation::set_defect(
            masc_compress::mutation::Defect::WrongStampCandidate,
        ),
        "varint-len-off-by-one" => {
            masc_compress::mutation::set_defect(masc_compress::mutation::Defect::VarintLenOffByOne)
        }
        "stale-replay-block" => {
            masc_adjoint::mutation::set_defect(masc_adjoint::mutation::Defect::StaleReplayBlock)
        }
        other => {
            eprintln!("unknown defect {other:?}");
            usage();
        }
    }
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        config: RunConfig {
            corpus_dir: Some(PathBuf::from("tests/corpus")),
            ..RunConfig::default()
        },
        list: false,
        replay_only: false,
        fuzz_corpus_dir: PathBuf::from("tests/corpus"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--budget" => {
                let secs: f64 = value("--budget").parse().unwrap_or_else(|_| usage());
                cli.config.budget = Duration::from_secs_f64(secs);
            }
            "--seed" => cli.config.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--only" => cli.config.only = Some(value("--only")),
            "--corpus-dir" => {
                let dir = PathBuf::from(value("--corpus-dir"));
                cli.config.corpus_dir = Some(dir.clone());
                cli.fuzz_corpus_dir = dir;
            }
            "--max-cases" => {
                cli.config.max_cases_per_oracle =
                    Some(value("--max-cases").parse().unwrap_or_else(|_| usage()));
            }
            "--defect" => arm_defect(&value("--defect")),
            "--list" => cli.list = true,
            "--replay" => cli.replay_only = true,
            "--verbose" => cli.config.verbose = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    cli
}

fn main() -> ExitCode {
    let cli = parse_args();
    let oracles = all_oracles();

    if cli.list {
        for oracle in &oracles {
            println!("{:<20} {}", oracle.name(), oracle.describe());
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = false;

    if !cli.replay_only {
        let report = runner::run(&oracles, &cli.config);
        println!(
            "fuzzed {} cases across {} oracles in {:.1?}:",
            report.total_cases(),
            report.oracles.len(),
            report.elapsed
        );
        for oracle in &report.oracles {
            let status = if oracle.failures.is_empty() {
                "ok"
            } else {
                "FAIL"
            };
            println!("  {:<20} {:>7} cases  {status}", oracle.name, oracle.cases);
            for failure in &oracle.failures {
                failed = true;
                println!(
                    "    seed {:#018x}: {}",
                    failure.seed,
                    failure.message.lines().next().unwrap_or("")
                );
                println!(
                    "    minimized to {} bytes{}",
                    failure.entry.payload.len(),
                    failure
                        .corpus_path
                        .as_ref()
                        .map(|p| format!(", saved as {}", p.display()))
                        .unwrap_or_default()
                );
                println!(
                    "    replay: MASC_PROP_REPRO={:#x} masc-conform --only {}",
                    failure.seed, oracle.name
                );
            }
        }
    }

    match runner::replay_corpus(&oracles, &cli.fuzz_corpus_dir) {
        Ok(regressions) if regressions.is_empty() => {
            println!("corpus replay: ok");
        }
        Ok(regressions) => {
            failed = true;
            println!("corpus replay: {} regression(s)", regressions.len());
            for (path, message) in regressions {
                println!(
                    "  {}: {}",
                    path.display(),
                    message.lines().next().unwrap_or("")
                );
            }
        }
        Err(e) => {
            failed = true;
            println!("corpus replay failed: {e}");
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
