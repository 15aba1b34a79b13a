//! `masc-lint` command-line interface.
//!
//! ```text
//! masc-lint [--root DIR]
//! ```
//!
//! Lints the workspace at `DIR` (default: the nearest ancestor of the
//! working directory whose `Cargo.toml` declares `[workspace]`) against
//! `DIR/lint-manifest.txt` and prints every finding. Exit 0 when clean,
//! 1 on any finding, 2 on usage or I/O errors.

use masc_lint::diag::LintError;
use masc_lint::{find_root, run, Manifest};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "masc-lint [--root DIR]";

/// Parses the command line: the workspace root, if given.
fn parse_args() -> Result<Option<PathBuf>, LintError> {
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let dir = args
                    .next()
                    .ok_or_else(|| LintError::Usage("--root requires a value".to_string()))?;
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!("masc-lint: MASC workspace static analyzer\n\nUSAGE: {USAGE}");
                std::process::exit(0);
            }
            other => {
                return Err(LintError::Usage(format!(
                    "unknown flag `{other}`; usage: {USAGE}"
                )))
            }
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    match run_cli() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("masc-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_cli() -> Result<bool, LintError> {
    let root = match parse_args()? {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|source| LintError::Io {
                path: ".".to_string(),
                source,
            })?;
            find_root(&cwd).ok_or_else(|| {
                LintError::Usage("no workspace root found above cwd; pass --root".to_string())
            })?
        }
    };
    let manifest_path = root.join("lint-manifest.txt");
    let manifest_text =
        std::fs::read_to_string(&manifest_path).map_err(|source| LintError::Io {
            path: manifest_path.display().to_string(),
            source,
        })?;
    let manifest = Manifest::parse(&manifest_text)?;
    let report = run(&root, &manifest)?;

    for f in &report.findings {
        println!("{f}");
    }
    eprintln!(
        "masc-lint: {} files, {} findings",
        report.files,
        report.findings.len()
    );
    Ok(report.findings.is_empty())
}
