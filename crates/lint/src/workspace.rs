//! Workspace walker: file discovery, per-file analysis, cross-file rules,
//! and pragma resolution.

use crate::diag::{Finding, LintError, RuleId};
use crate::manifest::Manifest;
use crate::pragma::Pragma;
use crate::rules::{analyze, FileInput};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The analyzer's full output for one workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings after pragma suppression, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every pragma in the workspace, with the file it lives in. This is
    /// the *pragma inventory*: the complete, machine-readable list of
    /// suppressed sites and their justifications.
    pub pragmas: Vec<(String, Pragma)>,
    /// Number of files analyzed.
    pub files: usize,
}

/// One source file presented to [`run_sources`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (also the crate key
    /// prefix for cross-file rules).
    pub path: String,
    /// File contents.
    pub src: String,
    /// Whether the manifest lists this file (R1/R2 apply).
    pub hardened: bool,
    /// Whether R3 payload checks apply (library code).
    pub is_lib: bool,
}

/// Discovers and lints every workspace source file under `root`.
///
/// Walks `src/` of the root package and of each `crates/*` member, so
/// integration tests, benches, and the lint corpus are naturally out of
/// scope.
pub fn run(root: &Path, manifest: &Manifest) -> Result<Report, LintError> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs_files(&member.join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut sources = Vec::new();
    for path in &files {
        let rel = relative_path(root, path);
        let src = std::fs::read_to_string(path).map_err(|source| LintError::Io {
            path: rel.clone(),
            source,
        })?;
        let is_lib = is_library_file(root, &rel);
        sources.push(SourceFile {
            hardened: manifest.hardened(&rel),
            path: rel,
            src,
            is_lib,
        });
    }
    Ok(run_sources(&sources))
}

/// Lints an in-memory file set: per-file rules, cross-file rules, and
/// pragma resolution. [`run`] is this plus file discovery; the self-test
/// corpus calls it directly.
pub fn run_sources(sources: &[SourceFile]) -> Report {
    let mut report = Report::default();
    // Per-crate error-type inventory for the cross-file half of R3:
    // crate key -> (enums, display targets, error targets).
    type CrateErrors = (Vec<(String, String, u32)>, Vec<String>, Vec<String>);
    let mut crates: BTreeMap<String, CrateErrors> = BTreeMap::new();
    let mut all_findings: Vec<Finding> = Vec::new();
    let mut pragmas: Vec<(String, Pragma)> = Vec::new();

    for file in sources {
        let rel = &file.path;
        let analysis = analyze(FileInput {
            path: rel,
            src: &file.src,
            hardened: file.hardened,
            is_lib: file.is_lib,
        });
        report.files += 1;
        all_findings.extend(analysis.findings);
        for p in analysis.pragmas {
            pragmas.push((rel.clone(), p));
        }
        let crate_key = crate_of(rel);
        let entry = crates.entry(crate_key).or_default();
        for (name, line) in analysis.error_enums {
            entry.0.push((rel.clone(), name, line));
        }
        entry.1.extend(analysis.display_impls);
        entry.2.extend(analysis.error_impls);
    }

    // Cross-file R3: every `pub enum *Error` needs Display + Error impls
    // somewhere in its crate.
    for (enums, displays, errors) in crates.values() {
        for (file, name, line) in enums {
            let mut missing = Vec::new();
            if !displays.iter().any(|t| t == name) {
                missing.push("Display");
            }
            if !errors.iter().any(|t| t == name) {
                missing.push("std::error::Error");
            }
            if !missing.is_empty() {
                all_findings.push(Finding {
                    rule: RuleId::ErrorImpl,
                    file: file.clone(),
                    line: *line,
                    message: format!("`{}` does not implement {}", name, missing.join(" + ")),
                });
            }
        }
    }

    // Pragma suppression: a pragma covers findings of its rules on its
    // applies-line in its own file.
    let mut used = vec![false; pragmas.len()];
    all_findings.retain(|f| {
        if !f.rule.suppressible() {
            return true;
        }
        let mut suppressed = false;
        for (i, (file, p)) in pragmas.iter().enumerate() {
            if file == &f.file && p.applies_line == f.line && p.rules.contains(&f.rule) {
                used[i] = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for (i, (file, p)) in pragmas.iter().enumerate() {
        if !used[i] {
            all_findings.push(Finding {
                rule: RuleId::PragmaUnused,
                file: file.clone(),
                line: p.comment_line,
                message: format!(
                    "pragma `allow({})` suppresses nothing; remove it",
                    p.rule_name
                ),
            });
        }
    }

    all_findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    report.findings = all_findings;
    report.pragmas = pragmas;
    report
}

/// Findings that fall within `[start_line, end_line]` of `file`.
pub fn findings_in_region<'f>(
    findings: &'f [Finding],
    file: &str,
    start_line: u32,
    end_line: u32,
) -> Vec<&'f Finding> {
    findings
        .iter()
        .filter(|f| f.file == file && f.line >= start_line && f.line <= end_line)
        .collect()
}

/// Recursively collects `.rs` files under `dir` (sorted, deterministic).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let iter = std::fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    let mut paths = Vec::new();
    for entry in iter {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.display().to_string(),
            source,
        })?;
        paths.push(entry.path());
    }
    paths.sort();
    Ok(paths)
}

/// Workspace-relative path with `/` separators.
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Crate key for cross-file aggregation: `crates/<name>` or `root`.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        _ => "root".to_string(),
    }
}

/// Library code: under a `src/` whose crate has a `lib.rs`, excluding
/// `main.rs` and `src/bin/`.
fn is_library_file(root: &Path, rel: &str) -> bool {
    if rel.ends_with("/main.rs") || rel.contains("/bin/") {
        return false;
    }
    let crate_dir = match crate_of(rel).as_str() {
        "root" => root.to_path_buf(),
        key => root.join(key),
    };
    crate_dir.join("src/lib.rs").is_file()
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
