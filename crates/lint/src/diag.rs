//! Diagnostic model: rule identifiers, findings, and errors.

use std::fmt;

/// Identifier of one lint rule.
///
/// The `R1`–`R3` groups from the design doc map onto these as:
/// R1 = `PanicCall` + `PanicMacro` + `PanicIndex`, R2 = `UnboundedAlloc`,
/// R3 = `ErrorPayload` + `ErrorImpl`.
/// `PragmaSyntax`/`PragmaUnused` police the suppression mechanism itself
/// and cannot be suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `.unwrap()` / `.expect(…)` in a classified module (R1).
    PanicCall,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in a
    /// classified module (R1).
    PanicMacro,
    /// Unguarded slice/array index expression in a classified module (R1).
    PanicIndex,
    /// Allocation sized by a decoded/wire variable without a nearby
    /// `MAX_*` guard or `bounded` helper (R2).
    UnboundedAlloc,
    /// `pub fn … -> Result<_, String | Box<dyn …> | &str | ()>` (R3).
    ErrorPayload,
    /// `pub enum *Error` without `Display` + `std::error::Error` impls (R3).
    ErrorImpl,
    /// Malformed `// masc-lint: allow(…)` pragma.
    PragmaSyntax,
    /// Pragma that suppressed nothing.
    PragmaUnused,
}

/// All rules, in reporting order.
pub const ALL_RULES: [RuleId; 8] = [
    RuleId::PanicCall,
    RuleId::PanicMacro,
    RuleId::PanicIndex,
    RuleId::UnboundedAlloc,
    RuleId::ErrorPayload,
    RuleId::ErrorImpl,
    RuleId::PragmaSyntax,
    RuleId::PragmaUnused,
];

impl RuleId {
    /// Stable string form used in output and pragmas.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::PanicCall => "panic-call",
            RuleId::PanicMacro => "panic-macro",
            RuleId::PanicIndex => "panic-index",
            RuleId::UnboundedAlloc => "unbounded-alloc",
            RuleId::ErrorPayload => "error-payload",
            RuleId::ErrorImpl => "error-impl",
            RuleId::PragmaSyntax => "pragma-syntax",
            RuleId::PragmaUnused => "pragma-unused",
        }
    }

    /// Parses a rule name as written in pragmas. Accepts both
    /// the specific id (`panic-call`) and nothing else; group names are
    /// resolved by [`RuleId::group_members`].
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.as_str() == s)
    }

    /// Expands a pragma rule name to the rules it covers: either one
    /// specific rule, or an `R1`–`R3` group.
    pub fn group_members(name: &str) -> Vec<RuleId> {
        match name {
            "R1" => vec![RuleId::PanicCall, RuleId::PanicMacro, RuleId::PanicIndex],
            "R2" => vec![RuleId::UnboundedAlloc],
            "R3" => vec![RuleId::ErrorPayload, RuleId::ErrorImpl],
            other => RuleId::parse(other).into_iter().collect(),
        }
    }

    /// True for rules that may be suppressed by an inline pragma.
    pub fn suppressible(self) -> bool {
        !matches!(self, RuleId::PragmaSyntax | RuleId::PragmaUnused)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Errors surfaced by the analyzer's own I/O and configuration handling.
#[derive(Debug)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The manifest file is malformed.
    Manifest {
        /// 1-based manifest line.
        line: u32,
        /// What was wrong.
        reason: String,
    },
    /// Bad command-line usage.
    Usage(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => write!(f, "{path}: {source}"),
            LintError::Manifest { line, reason } => {
                write!(f, "manifest line {line}: {reason}")
            }
            LintError::Usage(msg) => write!(f, "usage: {msg}"),
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
