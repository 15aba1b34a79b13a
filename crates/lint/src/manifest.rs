//! Module-classification manifest.
//!
//! The manifest (`lint-manifest.txt` at the workspace root) declares which
//! source paths carry MASC's hardened-surface invariants. Format: one
//! `<class> <path-prefix>` pair per line, `#` comments, blank lines
//! ignored. Classes:
//!
//! - `wire-decode` — parses attacker-controllable bytes (codecs, varints,
//!   cache files). R1 (panic-freedom) and R2 (bounded allocation) apply.
//! - `store-io`    — Jacobian store I/O and sealed-tensor replay. R1 + R2 apply.
//! - `parser`      — text parsers (netlists, lint's own lexer). R1 + R2
//!   apply.
//! - `concurrency` — coordinates threads via mutexes, condvars, channels,
//!   or scoped spawns. R6 (condvar discipline), R7 (lock hygiene), and
//!   R8 (worker lifecycle) apply.
//! - `skip`        — excluded from analysis entirely (generated code, …).
//!
//! Paths are workspace-relative with `/` separators; a prefix matches the
//! file itself or any file below it. Crate-wide rules (R3 error
//! conventions, R4 thread hygiene, R5 doc coverage) do not need manifest
//! entries.

use crate::diag::LintError;

/// Hardened-surface classes a file can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Decodes wire/compressed bytes.
    WireDecode,
    /// Jacobian store I/O.
    StoreIo,
    /// Text parser.
    Parser,
    /// Thread-coordination module (mutex/condvar/channel discipline).
    Concurrency,
}

/// Per-file classification resolved from the manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassSet {
    /// File is in a `wire-decode` region.
    pub wire_decode: bool,
    /// File is in a `store-io` region.
    pub store_io: bool,
    /// File is in a `parser` region.
    pub parser: bool,
    /// File is in a `concurrency` region.
    pub concurrency: bool,
}

impl ClassSet {
    /// True when any hardened class applies (R1/R2 are in force).
    pub fn hardened(&self) -> bool {
        self.wire_decode || self.store_io || self.parser
    }
}

/// Parsed manifest: classified prefixes plus skip prefixes.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    entries: Vec<(Class, String)>,
    skips: Vec<String>,
}

impl Manifest {
    /// Parses manifest text. Lines: `<class> <path-prefix>`.
    pub fn parse(text: &str) -> Result<Manifest, LintError> {
        let mut manifest = Manifest::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx as u32 + 1;
            let Some((class, path)) = line.split_once(char::is_whitespace) else {
                return Err(LintError::Manifest {
                    line: lineno,
                    reason: format!("expected `<class> <path-prefix>`, got `{line}`"),
                });
            };
            let path = path.trim().trim_end_matches('/').to_string();
            if path.is_empty() {
                return Err(LintError::Manifest {
                    line: lineno,
                    reason: "empty path prefix".to_string(),
                });
            }
            match class {
                "wire-decode" => manifest.entries.push((Class::WireDecode, path)),
                "store-io" => manifest.entries.push((Class::StoreIo, path)),
                "parser" => manifest.entries.push((Class::Parser, path)),
                "concurrency" => manifest.entries.push((Class::Concurrency, path)),
                "skip" => manifest.skips.push(path),
                other => {
                    return Err(LintError::Manifest {
                        line: lineno,
                        reason: format!(
                            "unknown class `{other}` (expected wire-decode, store-io, parser, concurrency, or skip)"
                        ),
                    });
                }
            }
        }
        Ok(manifest)
    }

    /// Classifies a workspace-relative path.
    pub fn classify(&self, path: &str) -> ClassSet {
        let mut set = ClassSet::default();
        for (class, prefix) in &self.entries {
            if prefix_matches(prefix, path) {
                match class {
                    Class::WireDecode => set.wire_decode = true,
                    Class::StoreIo => set.store_io = true,
                    Class::Parser => set.parser = true,
                    Class::Concurrency => set.concurrency = true,
                }
            }
        }
        set
    }

    /// True when the path is excluded from analysis.
    pub fn skipped(&self, path: &str) -> bool {
        self.skips.iter().any(|p| prefix_matches(p, path))
    }

    /// All classified (class, prefix) entries, for reporting.
    pub fn entries(&self) -> &[(Class, String)] {
        &self.entries
    }
}

/// `prefix` matches `path` when equal or when `path` continues below it.
fn prefix_matches(prefix: &str, path: &str) -> bool {
    match path.strip_prefix(prefix) {
        Some("") => true,
        Some(rest) => rest.starts_with('/'),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_classify() {
        let m = Manifest::parse(
            "# classes\nwire-decode crates/codec/src\nparser crates/circuit/src/parser.rs\nskip crates/gen\n",
        )
        .expect("manifest parses");
        assert!(m.classify("crates/codec/src/rle.rs").wire_decode);
        assert!(!m.classify("crates/codec/src-other/x.rs").wire_decode);
        assert!(m.classify("crates/circuit/src/parser.rs").parser);
        assert!(!m.classify("crates/circuit/src/netlist.rs").hardened());
        assert!(m.skipped("crates/gen/src/lib.rs"));
    }

    #[test]
    fn rejects_unknown_class() {
        assert!(Manifest::parse("decode crates/x\n").is_err());
    }
}
