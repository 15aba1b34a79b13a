//! The MASC rule engine: R1–R3 over a single file's token stream.
//!
//! Rules operate on *significant* tokens (comments stripped) with two
//! region masks: `#[cfg(test)]` / `#[test]` items and `macro_rules!`
//! bodies are excluded from every rule — the invariants govern shipping
//! decode/store/parser code, not its tests or macro plumbing.
//!
//! The engine is a lexical heuristic, not a type checker: it cannot do
//! dataflow, so R1's index rule and R2's allocation rule use a *guard
//! window* — a bounds-establishing token (`MAX_*`, `bounded*`, `.len()`,
//! `.min(…)`, a loop header) within the preceding [`GUARD_WINDOW_LINES`]
//! lines of the same file. False accepts are possible by construction;
//! the rules are tripwires that force every risky site to either carry an
//! obvious nearby guard or a justification pragma.

use crate::diag::{Finding, RuleId};
use crate::lexer::{lex, Token, TokenKind};
use crate::pragma::{self, Pragma};

/// Lines above a risky site in which a guard token satisfies R1/R2.
pub const GUARD_WINDOW_LINES: u32 = 16;

/// Per-file input to the rule engine.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'s> {
    /// Workspace-relative path with `/` separators.
    pub path: &'s str,
    /// File contents.
    pub src: &'s str,
    /// True when the manifest lists the file (drives R1/R2).
    pub hardened: bool,
    /// True for library code (drives R3 payloads).
    pub is_lib: bool,
}

/// Everything the engine learns about one file. Cross-file rules
/// (`error-impl`) and pragma resolution are finished by the caller.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Raw findings, before pragma suppression.
    pub findings: Vec<Finding>,
    /// Parsed suppression pragmas.
    pub pragmas: Vec<Pragma>,
    /// `pub enum *Error` definitions: (name, line).
    pub error_enums: Vec<(String, u32)>,
    /// Type names with an `impl … Display for <name>` in this file.
    pub display_impls: Vec<String>,
    /// Type names with an `impl … Error for <name>` in this file.
    pub error_impls: Vec<String>,
}

/// Keywords that may directly precede a `[` that is *not* an index.
const NON_INDEX_KEYWORDS: [&str; 28] = [
    "return", "break", "continue", "in", "if", "else", "match", "while", "for", "loop", "move",
    "static", "const", "let", "mut", "ref", "unsafe", "async", "dyn", "impl", "where", "as", "use",
    "pub", "fn", "enum", "struct", "trait",
];

/// Chain-terminating methods that make a size expression derive from data
/// already held (rather than from a decoded claim). `nnz` is the sparse
/// layer's `len`: a validated pattern's non-zero count.
const SIZE_OF_HELD_DATA: [&str; 4] = ["len", "capacity", "count", "nnz"];

/// Guard calls accepted inside an R1 index window. `need` is the netlist
/// parser's arity guard (`need(n)?` checks `tokens.len()` before fixed
/// indexing) — see DESIGN.md §3.10.
const INDEX_GUARD_CALLS: [&str; 12] = [
    "len",
    "is_empty",
    "get",
    "get_mut",
    "min",
    "max",
    "clamp",
    "chunks",
    "chunks_exact",
    "windows",
    "split_at",
    "need",
];

/// Assertion macros recognized as explicit bounds contracts: a
/// `debug_assert!(k < self.len())` above a hot-path index documents the
/// caller invariant and (in debug/fuzz builds) enforces it.
const ASSERT_MACROS: [&str; 6] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Analyzes one file.
pub fn analyze(input: FileInput<'_>) -> FileAnalysis {
    let tokens = lex(input.src);
    let (pragmas, pragma_findings) = pragma::collect(input.path, input.src, &tokens);
    let scan = Scan::new(input, &tokens);
    let mut out = FileAnalysis {
        pragmas,
        ..FileAnalysis::default()
    };
    out.findings.extend(pragma_findings);
    if input.hardened {
        scan.rule_panic_calls(&mut out.findings);
        scan.rule_panic_macros(&mut out.findings);
        scan.rule_panic_index(&mut out.findings);
        scan.rule_unbounded_alloc(&mut out.findings);
    }
    if input.is_lib {
        scan.rule_error_payload(&mut out.findings);
    }
    scan.collect_error_types(&mut out);
    out
}

/// Token-stream view shared by the rules.
struct Scan<'s, 't> {
    input: FileInput<'s>,
    /// Full token stream, comments included.
    tokens: &'t [Token],
    /// Indices into `tokens` of non-comment tokens.
    sig: Vec<usize>,
    /// Per-`sig` index: token sits in a test item or macro body.
    excluded: Vec<bool>,
}

impl<'s, 't> Scan<'s, 't> {
    fn new(input: FileInput<'s>, tokens: &'t [Token]) -> Self {
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut scan = Scan {
            input,
            tokens,
            excluded: vec![false; sig.len()],
            sig,
        };
        scan.mark_excluded_regions();
        scan
    }

    /// The `si`-th significant token, if any.
    fn tok(&self, si: usize) -> Option<&Token> {
        self.sig.get(si).and_then(|&i| self.tokens.get(i))
    }

    fn kind(&self, si: usize) -> Option<TokenKind> {
        self.tok(si).map(|t| t.kind)
    }

    fn text(&self, si: usize) -> &str {
        self.tok(si).map(|t| t.text(self.input.src)).unwrap_or("")
    }

    fn line(&self, si: usize) -> u32 {
        self.tok(si).map(|t| t.line).unwrap_or(0)
    }

    fn is_punct(&self, si: usize, c: char) -> bool {
        self.kind(si) == Some(TokenKind::Punct) && self.text(si) == c.to_string().as_str()
    }

    fn is_ident(&self, si: usize, s: &str) -> bool {
        self.kind(si) == Some(TokenKind::Ident) && self.text(si) == s
    }

    /// True when sig tokens `si` and `si + 1` are adjacent in the source
    /// (no whitespace/comments between) — used to recognize `->` and `=>`
    /// so their `>` is not mistaken for a closing angle bracket.
    fn adjacent(&self, si: usize) -> bool {
        match (self.tok(si), self.tok(si + 1)) {
            (Some(a), Some(b)) => a.end == b.start,
            _ => false,
        }
    }

    /// Is the `>` at `si` the tail of a `->` / `=>` arrow?
    fn gt_is_arrow(&self, si: usize) -> bool {
        si > 0 && (self.text(si - 1) == "-" || self.text(si - 1) == "=") && self.adjacent(si - 1)
    }

    /// Index of the sig token closing the bracket opened at `si_open`
    /// (`(`/`)`, `[`/`]`, `{`/`}`). Unbalanced input returns the last
    /// token index, keeping every scan bounded.
    fn match_forward(&self, si_open: usize, open: char, close: char) -> usize {
        let mut depth = 0i64;
        let mut si = si_open;
        while let Some(t) = self.tok(si) {
            if t.kind == TokenKind::Punct {
                let txt = self.text(si);
                if txt.len() == 1 {
                    let c = txt.as_bytes().first().copied().unwrap_or(0) as char;
                    if c == open {
                        depth += 1;
                    } else if c == close {
                        depth -= 1;
                        if depth == 0 {
                            return si;
                        }
                    }
                }
            }
            si += 1;
        }
        self.sig.len().saturating_sub(1)
    }

    /// Marks `#[cfg(test)]` / `#[test]` items and `macro_rules!` bodies.
    fn mark_excluded_regions(&mut self) {
        let mut si = 0usize;
        while si < self.sig.len() {
            if self.is_punct(si, '#') && self.is_punct(si + 1, '[') && self.attr_is_test(si + 1) {
                let end = self.item_end_after_attrs(si);
                for flag in self
                    .excluded
                    .iter_mut()
                    .skip(si)
                    .take(end.saturating_sub(si) + 1)
                {
                    *flag = true;
                }
                si = end + 1;
            } else if self.is_ident(si, "macro_rules") && self.is_punct(si + 1, '!') {
                // `macro_rules! name { body }` — exclude the body token
                // tree (any of the three delimiters).
                let mut j = si + 2;
                if self.kind(j) == Some(TokenKind::Ident) {
                    j += 1;
                }
                let end = match self.text(j) {
                    "{" => self.match_forward(j, '{', '}'),
                    "(" => self.match_forward(j, '(', ')'),
                    "[" => self.match_forward(j, '[', ']'),
                    _ => j,
                };
                for flag in self
                    .excluded
                    .iter_mut()
                    .skip(si)
                    .take(end.saturating_sub(si) + 1)
                {
                    *flag = true;
                }
                si = end + 1;
            } else {
                si += 1;
            }
        }
    }

    /// Does the attribute opening at `si_bracket` gate on `test`?
    fn attr_is_test(&self, si_bracket: usize) -> bool {
        let close = self.match_forward(si_bracket, '[', ']');
        let head = self.text(si_bracket + 1);
        if head == "test" {
            return true;
        }
        if head != "cfg" {
            return false;
        }
        (si_bracket..=close).any(|si| self.is_ident(si, "test"))
    }

    /// Given `si` at a `#` starting an attribute, skips that attribute and
    /// any following ones, then returns the sig index ending the annotated
    /// item (its closing `}`, or its `;` for braceless items).
    fn item_end_after_attrs(&self, mut si: usize) -> usize {
        while self.is_punct(si, '#') && self.is_punct(si + 1, '[') {
            si = self.match_forward(si + 1, '[', ']') + 1;
        }
        // Scan to the first `{` or a `;` before any brace.
        let mut j = si;
        while let Some(_t) = self.tok(j) {
            if self.is_punct(j, ';') {
                return j;
            }
            if self.is_punct(j, '{') {
                return self.match_forward(j, '{', '}');
            }
            j += 1;
        }
        self.sig.len().saturating_sub(1)
    }

    /// Sig indices of tokens on lines `[line - GUARD_WINDOW_LINES, line]`.
    fn window(&self, line: u32) -> impl Iterator<Item = usize> + '_ {
        let lo = line.saturating_sub(GUARD_WINDOW_LINES);
        (0..self.sig.len()).filter(move |&si| {
            let l = self.line(si);
            l >= lo && l <= line
        })
    }

    /// True when the guard window above `line` contains a bounds
    /// indicator: a `MAX_*` constant, a `bounded*` helper, a clamp, a
    /// length/lookup call, a loop header, an assertion contract, or an
    /// ordered comparison (`<=`/`>=` — the shape of an explicit range
    /// check, and unlike `<`/`>` never part of a generic argument list).
    fn window_has_index_guard(&self, line: u32) -> bool {
        self.window(line).any(|si| match self.kind(si) {
            Some(TokenKind::Ident) => {
                let t = self.text(si);
                t.starts_with("MAX_")
                    || t.contains("bounded")
                    || t == "for"
                    || t == "while"
                    || (INDEX_GUARD_CALLS.contains(&t) && self.is_punct(si + 1, '('))
                    || (ASSERT_MACROS.contains(&t) && self.is_punct(si + 1, '!'))
            }
            Some(TokenKind::Punct) => {
                let t = self.text(si);
                (t == "<" || t == ">") && self.adjacent(si) && self.text(si + 1) == "="
            }
            _ => false,
        })
    }

    /// True when the guard window above `line` contains an allocation
    /// bound: a `MAX_*` comparison, a `bounded*` helper, a `.min(` clamp,
    /// a size-of-held-data call (`len()`/`capacity()`/`nnz()` — the count
    /// visibly derives from data already in memory), or an assertion
    /// pinning the size. Deliberately stricter than the index guard: a
    /// plain comparison does not qualify.
    fn window_has_alloc_guard(&self, line: u32) -> bool {
        self.window(line).any(|si| {
            if self.kind(si) != Some(TokenKind::Ident) {
                return false;
            }
            let t = self.text(si);
            t.starts_with("MAX_")
                || t.contains("bounded")
                || ((t == "min" || SIZE_OF_HELD_DATA.contains(&t)) && self.is_punct(si + 1, '('))
                || (ASSERT_MACROS.contains(&t) && self.is_punct(si + 1, '!'))
        })
    }

    fn push(&self, findings: &mut Vec<Finding>, rule: RuleId, si: usize, message: String) {
        findings.push(Finding {
            rule,
            file: self.input.path.to_string(),
            line: self.line(si),
            message,
        });
    }

    /// R1: `.unwrap()` / `.expect(…)`.
    fn rule_panic_calls(&self, findings: &mut Vec<Finding>) {
        for si in 0..self.sig.len() {
            if self.excluded[si] {
                continue;
            }
            let t = self.text(si);
            if (t == "unwrap" || t == "expect")
                && self.kind(si) == Some(TokenKind::Ident)
                && si > 0
                && self.is_punct(si - 1, '.')
                && self.is_punct(si + 1, '(')
            {
                self.push(
                    findings,
                    RuleId::PanicCall,
                    si,
                    format!("`.{t}(…)` in a hardened module; return a structured error instead"),
                );
            }
        }
    }

    /// R1: `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    fn rule_panic_macros(&self, findings: &mut Vec<Finding>) {
        for si in 0..self.sig.len() {
            if self.excluded[si] {
                continue;
            }
            let t = self.text(si);
            if matches!(t, "panic" | "unreachable" | "todo" | "unimplemented")
                && self.kind(si) == Some(TokenKind::Ident)
                && self.is_punct(si + 1, '!')
            {
                self.push(
                    findings,
                    RuleId::PanicMacro,
                    si,
                    format!("`{t}!` in a hardened module; return a structured error instead"),
                );
            }
        }
    }

    /// R1: unguarded index expressions `expr[…]`.
    fn rule_panic_index(&self, findings: &mut Vec<Finding>) {
        for si in 0..self.sig.len() {
            if self.excluded[si] || !self.is_punct(si, '[') || si == 0 {
                continue;
            }
            // Expression position: the `[` directly follows a value.
            let prev_kind = self.kind(si - 1);
            let prev_text = self.text(si - 1);
            let is_expr = match prev_kind {
                Some(TokenKind::Ident) => !NON_INDEX_KEYWORDS.contains(&prev_text),
                Some(TokenKind::Punct) => prev_text == ")" || prev_text == "]",
                _ => false,
            };
            if !is_expr {
                continue;
            }
            let close = self.match_forward(si, '[', ']');
            if close <= si + 1 {
                continue; // `[]` — not an index expression.
            }
            // `&x[..]` never panics.
            let content: Vec<usize> = (si + 1..close).collect();
            if content.iter().all(|&j| self.is_punct(j, '.')) {
                continue;
            }
            if self.window_has_index_guard(self.line(si)) {
                continue;
            }
            self.push(
                findings,
                RuleId::PanicIndex,
                si,
                format!(
                    "unguarded index `{}[…]` in a hardened module; use `.get(…)` or guard the bound",
                    prev_text
                ),
            );
        }
    }

    /// R2: allocations sized by decoded/wire variables.
    fn rule_unbounded_alloc(&self, findings: &mut Vec<Finding>) {
        for si in 0..self.sig.len() {
            if self.excluded[si] || self.kind(si) != Some(TokenKind::Ident) {
                continue;
            }
            let t = self.text(si);
            let (label, expr): (&str, Vec<usize>) = match t {
                "with_capacity"
                    if si > 0
                        && (self.is_punct(si - 1, '.') || self.is_punct(si - 1, ':'))
                        && self.is_punct(si + 1, '(') =>
                {
                    let close = self.match_forward(si + 1, '(', ')');
                    ("with_capacity", (si + 2..close).collect())
                }
                "resize" | "reserve" | "reserve_exact" | "resize_with"
                    if si > 0 && self.is_punct(si - 1, '.') && self.is_punct(si + 1, '(') =>
                {
                    let close = self.match_forward(si + 1, '(', ')');
                    let first_arg_end = self.top_level_comma(si + 2, close).unwrap_or(close);
                    (t, (si + 2..first_arg_end).collect())
                }
                "vec" if self.is_punct(si + 1, '!') && self.is_punct(si + 2, '[') => {
                    let close = self.match_forward(si + 2, '[', ']');
                    match self.top_level_semi(si + 3, close) {
                        Some(semi) => ("vec![…; n]", (semi + 1..close).collect()),
                        None => continue, // `vec![a, b, c]` literal.
                    }
                }
                _ => continue,
            };
            if !self.size_expr_is_risky(&expr) {
                continue;
            }
            if self.window_has_alloc_guard(self.line(si)) {
                continue;
            }
            self.push(
                findings,
                RuleId::UnboundedAlloc,
                si,
                format!(
                    "`{label}` sized by a variable with no `MAX_*` guard or `bounded` helper in reach"
                ),
            );
        }
    }

    /// First top-level `,` in `(start..end)`, tracking nested brackets.
    fn top_level_comma(&self, start: usize, end: usize) -> Option<usize> {
        self.top_level_punct(start, end, ',')
    }

    /// First top-level `;` in `(start..end)`, tracking nested brackets.
    fn top_level_semi(&self, start: usize, end: usize) -> Option<usize> {
        self.top_level_punct(start, end, ';')
    }

    fn top_level_punct(&self, start: usize, end: usize, which: char) -> Option<usize> {
        let mut depth = 0i64;
        for si in start..end {
            if self.kind(si) != Some(TokenKind::Punct) {
                continue;
            }
            match self.text(si) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                s if depth == 0 && s.len() == 1 && s.starts_with(which) => return Some(si),
                _ => {}
            }
        }
        None
    }

    /// A size expression is risky when it mentions a *bare* variable — one
    /// that is neither a call name nor the head of a chain ending in
    /// `.len()`/`.capacity()`/`.count()` — and carries no inline clamp.
    fn size_expr_is_risky(&self, expr: &[usize]) -> bool {
        let mut has_bare = false;
        for (k, &si) in expr.iter().enumerate() {
            if self.kind(si) != Some(TokenKind::Ident) {
                continue;
            }
            let t = self.text(si);
            // Inline clamps make the expression self-bounding.
            if t.starts_with("MAX_") || t.contains("bounded") {
                return false;
            }
            // SCREAMING_CASE idents are constants, not decoded variables.
            if !t.is_empty()
                && t.chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            {
                continue;
            }
            if (t == "min" || t == "clamp") && self.is_punct(si + 1, '(') {
                return false;
            }
            // Call names are not variables.
            if self.is_punct(si + 1, '(') {
                continue;
            }
            // Path segments (`std::mem::size_of`) are not variables.
            if self.is_punct(si + 1, ':') || (si > 0 && self.is_punct(si - 1, ':')) {
                continue;
            }
            // Chain heads and fields: walk `ident (. ident)*`; if the chain
            // ends in a size-of-held-data call, the mention is fine.
            if k + 1 < expr.len() && self.is_punct(si + 1, '.') {
                let mut j = si;
                while self.is_punct(j + 1, '.') && self.kind(j + 2) == Some(TokenKind::Ident) {
                    j += 2;
                }
                if SIZE_OF_HELD_DATA.contains(&self.text(j)) && self.is_punct(j + 1, '(') {
                    continue;
                }
            }
            // Interior chain members are judged at the chain head.
            if si > 0 && self.is_punct(si - 1, '.') {
                continue;
            }
            has_bare = true;
        }
        has_bare
    }

    /// R3 (payload half): `pub fn … -> Result<_, String | Box<dyn …> |
    /// &str | ()>`.
    fn rule_error_payload(&self, findings: &mut Vec<Finding>) {
        for si in 0..self.sig.len() {
            if self.excluded[si] || !self.is_ident(si, "pub") {
                continue;
            }
            if self.is_punct(si + 1, '(') {
                continue; // pub(crate) etc. — not public API.
            }
            // Skip modifiers to find `fn`.
            let mut j = si + 1;
            loop {
                match self.text(j) {
                    "unsafe" | "async" | "extern" => j += 1,
                    "const" if self.is_ident(j + 1, "fn") => j += 1,
                    _ => break,
                }
                if self.kind(j) == Some(TokenKind::Str) {
                    j += 1; // extern "C"
                }
            }
            if !self.is_ident(j, "fn") {
                continue;
            }
            let name = self.text(j + 1).to_string();
            let Some((ret_start, ret_end)) = self.return_type_span(j + 1) else {
                continue;
            };
            if let Some(offender) = self.bad_result_payload(ret_start, ret_end) {
                self.push(
                    findings,
                    RuleId::ErrorPayload,
                    si,
                    format!(
                        "`pub fn {name}` returns `Result<_, {offender}>`; use a crate-local structured error type"
                    ),
                );
            }
        }
    }

    /// Given the sig index of a `fn`'s name, returns the sig-index span of
    /// its return type, or `None` when it returns `()` implicitly.
    fn return_type_span(&self, name_si: usize) -> Option<(usize, usize)> {
        let mut j = name_si + 1;
        // Optional generics.
        if self.is_punct(j, '<') {
            j = self.match_angle(j) + 1;
        }
        if !self.is_punct(j, '(') {
            return None;
        }
        j = self.match_forward(j, '(', ')') + 1;
        // Arrow?
        if !(self.text(j) == "-" && self.text(j + 1) == ">" && self.adjacent(j)) {
            return None;
        }
        let start = j + 2;
        let mut k = start;
        let mut depth = 0i64;
        while let Some(_t) = self.tok(k) {
            let txt = self.text(k);
            match txt {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "<" if self.kind(k) == Some(TokenKind::Punct) => depth += 1,
                ">" if self.kind(k) == Some(TokenKind::Punct) && !self.gt_is_arrow(k) => depth -= 1,
                "{" | ";" if depth <= 0 => return Some((start, k)),
                "where" if depth <= 0 => return Some((start, k)),
                _ => {}
            }
            k += 1;
        }
        Some((start, self.sig.len()))
    }

    /// Matches `<` at `si` to its closing `>`, skipping arrow `>`s.
    fn match_angle(&self, si_open: usize) -> usize {
        let mut depth = 0i64;
        let mut si = si_open;
        while let Some(t) = self.tok(si) {
            if t.kind == TokenKind::Punct {
                match self.text(si) {
                    "<" => depth += 1,
                    ">" if !self.gt_is_arrow(si) => {
                        depth -= 1;
                        if depth == 0 {
                            return si;
                        }
                    }
                    _ => {}
                }
            }
            si += 1;
        }
        self.sig.len().saturating_sub(1)
    }

    /// If the return type in `(start..end)` is a `Result` whose error
    /// parameter is a stringly/boxed payload, returns its description.
    fn bad_result_payload(&self, start: usize, end: usize) -> Option<String> {
        let result_si =
            (start..end).find(|&si| self.is_ident(si, "Result") && self.is_punct(si + 1, '<'))?;
        let close = self.match_angle(result_si + 1);
        let comma = self.top_level_comma_angle(result_si + 2, close)?;
        let err: Vec<usize> = (comma + 1..close).collect();
        let has = |s: &str| err.iter().any(|&si| self.is_ident(si, s));
        if has("String") {
            return Some("String".to_string());
        }
        if has("Box") && has("dyn") {
            return Some("Box<dyn …>".to_string());
        }
        if has("str") {
            return Some("&str".to_string());
        }
        if err.len() == 2
            && err
                .first()
                .map(|&si| self.is_punct(si, '('))
                .unwrap_or(false)
            && err
                .get(1)
                .map(|&si| self.is_punct(si, ')'))
                .unwrap_or(false)
        {
            return Some("()".to_string());
        }
        None
    }

    /// First `,` at angle-depth 0 in `(start..end)` (inside a `Result<…>`).
    fn top_level_comma_angle(&self, start: usize, end: usize) -> Option<usize> {
        let mut depth = 0i64;
        for si in start..end {
            if self.kind(si) != Some(TokenKind::Punct) {
                continue;
            }
            match self.text(si) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "<" => depth += 1,
                ">" if !self.gt_is_arrow(si) => depth -= 1,
                "," if depth == 0 => return Some(si),
                _ => {}
            }
        }
        None
    }

    /// Collects `pub enum *Error` definitions and `Display`/`Error` impl
    /// targets for the cross-file R3 check.
    fn collect_error_types(&self, out: &mut FileAnalysis) {
        for si in 0..self.sig.len() {
            if self.excluded[si] {
                continue;
            }
            if self.is_ident(si, "pub") && self.is_ident(si + 1, "enum") {
                let name = self.text(si + 2);
                if name.ends_with("Error") && !name.is_empty() {
                    out.error_enums.push((name.to_string(), self.line(si)));
                }
            }
            if self.is_ident(si, "for") && si > 0 {
                // `impl … Display for X` / `impl … Error for X` — the trait
                // path's last segment sits directly before `for`.
                let trait_seg = self.text(si - 1);
                if trait_seg != "Display" && trait_seg != "Error" {
                    continue;
                }
                // Confirm we are in an impl header: scan back for `impl`
                // on the same statement (bounded look-back).
                let is_impl = (si.saturating_sub(12)..si).any(|k| self.is_ident(k, "impl"));
                if !is_impl {
                    continue;
                }
                // Target: last ident of the path after `for`, before `<`,
                // `{`, or `where`.
                let mut j = si + 1;
                let mut target = String::new();
                while let Some(_t) = self.tok(j) {
                    let txt = self.text(j);
                    if txt == "{" || txt == "<" || txt == "where" {
                        break;
                    }
                    if self.kind(j) == Some(TokenKind::Ident) {
                        target = txt.to_string();
                    }
                    j += 1;
                }
                if target.is_empty() {
                    continue;
                }
                if trait_seg == "Display" {
                    out.display_impls.push(target);
                } else {
                    out.error_impls.push(target);
                }
            }
        }
    }
}
