//! Inline suppression pragmas.
//!
//! Grammar (one directive per comment):
//!
//! ```text
//! // masc-lint: allow(<rule>, reason = "<non-empty justification>")
//! ```
//!
//! `<rule>` is a specific rule id (`panic-call`, `unbounded-alloc`, …) or a
//! group (`R1`–`R3`). A trailing pragma suppresses findings on its own
//! line; a pragma alone on a line suppresses findings on the next line that
//! carries code. The reason is mandatory — a pragma without one is itself a
//! finding (`pragma-syntax`) — and a pragma that suppresses nothing is a
//! finding too (`pragma-unused`), so stale allowances cannot accumulate.

use crate::diag::{Finding, RuleId};
use crate::lexer::{Token, TokenKind};

/// One parsed `allow` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// Rules this pragma suppresses (singleton for a specific id, several
    /// for an `R1`-style group).
    pub rules: Vec<RuleId>,
    /// The rule name exactly as written in the source.
    pub rule_name: String,
    /// The mandatory justification string.
    pub reason: String,
    /// Line the pragma comment starts on.
    pub comment_line: u32,
    /// Line whose findings this pragma suppresses.
    pub applies_line: u32,
}

/// Scans a file's token stream for pragmas.
///
/// Returns the parsed pragmas plus `pragma-syntax` findings for malformed
/// ones. `file` is the workspace-relative path used in findings.
pub fn collect(file: &str, src: &str, tokens: &[Token]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let text = tok.text(src);
        let body = text.trim_start_matches('/').trim();
        let Some(directive) = body.strip_prefix("masc-lint:") else {
            continue;
        };
        let applies_line = applies_line(tokens, i, tok.line);
        match parse_directive(directive.trim()) {
            Ok((rule_name, reason)) => {
                let rules = RuleId::group_members(&rule_name);
                if rules.is_empty() {
                    findings.push(Finding {
                        rule: RuleId::PragmaSyntax,
                        file: file.to_string(),
                        line: tok.line,
                        message: format!("unknown rule `{rule_name}` in masc-lint pragma"),
                    });
                } else if rules.iter().any(|r| !r.suppressible()) {
                    findings.push(Finding {
                        rule: RuleId::PragmaSyntax,
                        file: file.to_string(),
                        line: tok.line,
                        message: format!("rule `{rule_name}` cannot be suppressed"),
                    });
                } else {
                    pragmas.push(Pragma {
                        rules,
                        rule_name,
                        reason,
                        comment_line: tok.line,
                        applies_line,
                    });
                }
            }
            Err(reason) => findings.push(Finding {
                rule: RuleId::PragmaSyntax,
                file: file.to_string(),
                line: tok.line,
                message: reason,
            }),
        }
    }
    (pragmas, findings)
}

/// The line a pragma at token index `i` applies to: its own line when code
/// precedes it on that line (trailing pragma), otherwise the next line
/// carrying a non-comment token.
fn applies_line(tokens: &[Token], i: usize, comment_line: u32) -> u32 {
    let code_before = tokens[..i]
        .iter()
        .rev()
        .take_while(|t| t.line == comment_line)
        .any(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment));
    if code_before {
        return comment_line;
    }
    tokens[i + 1..]
        .iter()
        .find(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|t| t.line)
        .unwrap_or(comment_line)
}

/// Parses `allow(<rule>, reason = "…")`, returning `(rule_name, reason)`.
fn parse_directive(s: &str) -> Result<(String, String), String> {
    let Some(rest) = s.strip_prefix("allow") else {
        return Err("expected `allow(<rule>, reason = \"...\")`".to_string());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after `allow`".to_string());
    };
    let Some(inner) = rest.strip_suffix(')') else {
        return Err("pragma is missing its closing `)`".to_string());
    };
    let Some((rule, reason_part)) = inner.split_once(',') else {
        return Err("pragma requires `reason = \"...\"` — suppressions must be justified".into());
    };
    let rule = rule.trim().to_string();
    if rule.is_empty() {
        return Err("empty rule name in pragma".to_string());
    }
    let reason_part = reason_part.trim();
    let Some(value) = reason_part.strip_prefix("reason") else {
        return Err("expected `reason = \"...\"` after the rule name".to_string());
    };
    let value = value.trim_start();
    let Some(value) = value.strip_prefix('=') else {
        return Err("expected `=` after `reason`".to_string());
    };
    let value = value.trim();
    let quoted = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| "reason must be a double-quoted string".to_string())?;
    if quoted.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((rule, quoted.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> (Vec<Pragma>, Vec<Finding>) {
        collect("x.rs", src, &lex(src))
    }

    #[test]
    fn trailing_pragma_applies_to_own_line() {
        let src = "let x = v.unwrap(); // masc-lint: allow(panic-call, reason = \"startup\")\n";
        let (pragmas, findings) = parse(src);
        assert!(findings.is_empty());
        assert_eq!(pragmas.len(), 1);
        assert_eq!(pragmas[0].rules, vec![RuleId::PanicCall]);
        assert_eq!(pragmas[0].applies_line, 1);
        assert_eq!(pragmas[0].reason, "startup");
    }

    #[test]
    fn standalone_pragma_applies_to_next_code_line() {
        let src = "// masc-lint: allow(R1, reason = \"checked above\")\n// another comment\nlet x = v.unwrap();\n";
        let (pragmas, findings) = parse(src);
        assert!(findings.is_empty());
        assert_eq!(pragmas[0].applies_line, 3);
        assert_eq!(pragmas[0].rules.len(), 3);
    }

    #[test]
    fn missing_reason_is_a_finding() {
        let (pragmas, findings) = parse("// masc-lint: allow(panic-call)\nlet x = 1;\n");
        assert!(pragmas.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::PragmaSyntax);
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        let (pragmas, findings) =
            parse("// masc-lint: allow(made-up, reason = \"nope\")\nlet x = 1;\n");
        assert!(pragmas.is_empty());
        assert_eq!(findings[0].rule, RuleId::PragmaSyntax);
    }
}
