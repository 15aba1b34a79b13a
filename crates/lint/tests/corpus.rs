//! Self-test corpus: runs the analyzer over `tests/corpus/*.rs` and
//! asserts the reported finding set equals the annotated expectation set,
//! in both directions and at exact file:line granularity.
//!
//! Corpus conventions:
//!
//! - line 1 of every corpus file is `// lint-corpus: <flags>`, where the
//!   comma/space-separated flags are a manifest class (`wire-decode`,
//!   `store-io`, `parser`: the file is hardened) and/or `lib` (enables
//!   the R3 payload rule, as for library code);
//! - `//~ <rule>` at the end of a line marks an expected finding on that
//!   line;
//! - `//~^ <rule>` marks an expected finding on the *previous* line (used
//!   when the finding anchors to a comment, e.g. pragma rules).
//!
//! The corpus is fed through [`masc_lint::run_sources`] in one batch, so
//! cross-file aggregation (`error-impl`) and pragma resolution run exactly
//! as they do in a real workspace scan.

use masc_lint::{run_sources, SourceFile};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Finding identity compared against markers: (file, line, rule).
type Key = (String, u32, String);

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Parses the mandatory `// lint-corpus: <flags>` header line into
/// `(hardened, is_lib)`.
fn parse_header(name: &str, src: &str) -> (bool, bool) {
    let first = src.lines().next().unwrap_or("");
    let flags = first
        .strip_prefix("// lint-corpus:")
        .unwrap_or_else(|| panic!("{name}: line 1 must be `// lint-corpus: <flags>`"));
    let mut hardened = false;
    let mut is_lib = false;
    for flag in flags.split([',', ' ']).filter(|f| !f.is_empty()) {
        match flag {
            "wire-decode" | "store-io" | "parser" => hardened = true,
            "lib" => is_lib = true,
            other => panic!("{name}: unknown lint-corpus flag `{other}`"),
        }
    }
    (hardened, is_lib)
}

/// Collects `//~ rule` (own line) and `//~^ rule` (previous line) markers.
fn markers(rel: &str, src: &str) -> Vec<Key> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let Some(at) = line.find("//~") else {
            continue;
        };
        let rest = &line[at + 3..];
        let (up, rest) = match rest.strip_prefix('^') {
            Some(r) => (1, r),
            None => (0, rest),
        };
        let rule = rest
            .split_whitespace()
            .next()
            .unwrap_or_else(|| panic!("{rel}:{}: empty `//~` marker", i + 1));
        let line_no = (i + 1 - up) as u32;
        out.push((rel.to_string(), line_no, rule.to_string()));
    }
    out
}

/// Loads every corpus file as an in-memory [`SourceFile`] plus its
/// expected-finding set.
fn load_corpus() -> (Vec<SourceFile>, BTreeSet<Key>) {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus dir entry").path())
        .filter(|p| p.extension().map(|e| e == "rs").unwrap_or(false))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus directory is empty");

    let mut sources = Vec::new();
    let mut expected = BTreeSet::new();
    for path in &paths {
        let name = path.file_name().expect("file name").to_string_lossy();
        let rel = format!("crates/lint/tests/corpus/{name}");
        let src = std::fs::read_to_string(path).expect("read corpus file");
        let (hardened, is_lib) = parse_header(&name, &src);
        expected.extend(markers(&rel, &src));
        sources.push(SourceFile {
            path: rel,
            src,
            hardened,
            is_lib,
        });
    }
    (sources, expected)
}

#[test]
fn corpus_findings_match_markers_exactly() {
    let (sources, expected) = load_corpus();
    let report = run_sources(&sources);
    let actual: BTreeSet<Key> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.to_string()))
        .collect();

    let missing: Vec<&Key> = expected.difference(&actual).collect();
    let unexpected: Vec<&Key> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "corpus mismatch\n  marked but not reported: {missing:#?}\n  reported but not marked: {unexpected:#?}"
    );
}

#[test]
fn corpus_exercises_every_rule() {
    let (_, expected) = load_corpus();
    let fired: BTreeSet<&str> = expected.iter().map(|(_, _, r)| r.as_str()).collect();
    for rule in masc_lint::diag::ALL_RULES {
        assert!(
            fired.contains(rule.as_str()),
            "no corpus case exercises `{rule}`; add one under tests/corpus/"
        );
    }
}

#[test]
fn corpus_pragma_inventory_is_justified() {
    let (sources, _) = load_corpus();
    let report = run_sources(&sources);
    assert!(
        !report.pragmas.is_empty(),
        "the pragma corpus should contribute at least one parsed pragma"
    );
    for (file, pragma) in &report.pragmas {
        assert!(
            !pragma.reason.trim().is_empty(),
            "{file}:{}: pragma with an empty reason survived parsing",
            pragma.comment_line
        );
    }
}
