//! Module-classification manifest.
//!
//! The manifest (`lint-manifest.txt` at the workspace root) declares which
//! source paths carry MASC's hardened-surface invariants. Format: one
//! `<class> <path-prefix>` pair per line, `#` comments, blank lines
//! ignored. A listed path is *hardened*: R1 (panic-freedom) and R2
//! (bounded allocation) apply. The class word only records why the path
//! is listed; all three mean the same to the analyzer:
//!
//! - `wire-decode` — parses attacker-controllable bytes (codecs, varints,
//!   cache files).
//! - `store-io`    — Jacobian store I/O and sealed-tensor replay.
//! - `parser`      — text parsers (netlists, lint's own lexer).
//!
//! Paths are workspace-relative with `/` separators; a prefix matches the
//! file itself or any file below it. R3 (error conventions) applies to all
//! library code and needs no manifest entry.

use crate::diag::LintError;

/// The class words a manifest line may start with.
const CLASSES: [&str; 3] = ["wire-decode", "store-io", "parser"];

/// Parsed manifest: the hardened path prefixes.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    hardened: Vec<String>,
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
            if !CLASSES.contains(&class) {
                return Err(LintError::Manifest {
                    line: lineno,
                    reason: format!(
                        "unknown class `{class}` (expected wire-decode, store-io, or parser)"
                    ),
                });
            }
            manifest.hardened.push(path);
        }
        Ok(manifest)
    }

    /// True when a workspace-relative path is hardened (R1/R2 apply).
    pub fn hardened(&self, path: &str) -> bool {
        self.hardened.iter().any(|p| prefix_matches(p, path))
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
            "# classes\nwire-decode crates/codec/src\nparser crates/circuit/src/parser.rs\nstore-io crates/adjoint/src/store\n",
        )
        .expect("manifest parses");
        assert!(m.hardened("crates/codec/src/rle.rs"));
        assert!(!m.hardened("crates/codec/src-other/x.rs"));
        assert!(m.hardened("crates/circuit/src/parser.rs"));
        assert!(m.hardened("crates/adjoint/src/store/mod.rs"));
        assert!(!m.hardened("crates/circuit/src/netlist.rs"));
    }

    #[test]
    fn rejects_unknown_class() {
        assert!(Manifest::parse("decode crates/x\n").is_err());
        assert!(Manifest::parse("skip crates/x\n").is_err());
    }
}
