//! The line-delimited request/response protocol.
//!
//! Requests, one per line:
//!
//! ```text
//! SOLVE <job-id> <objectives> <params> <deck>
//! STATS
//! SHUTDOWN
//! ```
//!
//! - `<job-id>`: `[A-Za-z0-9._-]{1,128}`.
//! - `<objectives>`: comma-separated `final:<node>`, `at:<step>:<node>`,
//!   `integral:<node>`, `integral2:<node>`.
//! - `<params>`: `*` (every parameter in the deck) or a comma-separated
//!   list of parameter paths (`R0.r,C1.c`).
//! - `<deck>`: the netlist text, newline-escaped (`\n` → newline,
//!   `\\` → backslash), extending to the end of the line.
//!
//! Responses, one per request (plus a final `BYE` on shutdown):
//!
//! ```text
//! OK <job-id> <hit|miss> steps=<n> values=<v,…> sens=<r;r;…>
//! ERR <job-id> <code> <message>
//! STATS <k>=<v> …
//! BYE
//! ```
//!
//! This module only parses and renders text; it allocates nothing larger
//! than its (size-capped) input line and never panics on hostile input.

// Hardened-surface rule R1 (DESIGN.md §3.10): this module parses
// client-controlled lines, so it never panics. An index that clippy cannot
// prove in bounds carries an
// `#[expect(clippy::indexing_slicing, reason = "<the guard>")]`.
#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]

/// Longest accepted request line (bytes), escaped deck included.
pub const MAX_LINE_BYTES: usize = 1 << 20;
/// Longest accepted job id.
pub const MAX_JOB_ID: usize = 128;
/// Most objectives in one job.
pub const MAX_OBJECTIVES: usize = 64;
/// Most explicitly named parameters in one job.
pub const MAX_PARAMS: usize = 256;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or replay) a sensitivity job.
    Solve(JobRequest),
    /// Report cache/server telemetry.
    Stats,
    /// Drain queued jobs, answer them, then stop.
    Shutdown,
}

/// A sensitivity job as it arrives on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id echoed on the response line.
    pub id: String,
    /// Objectives, by node name.
    pub objectives: Vec<ObjectiveSpec>,
    /// Which parameters to differentiate with respect to.
    pub params: ParamSelector,
    /// The netlist text (unescaped).
    pub deck: String,
}

/// One objective, referencing a node by name.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveSpec {
    /// The node voltage at the final time point.
    FinalValue {
        /// Node name.
        node: String,
    },
    /// The node voltage at a specific accepted step.
    AtStep {
        /// Node name.
        node: String,
        /// Step index (0 = DC point).
        step: usize,
    },
    /// The time integral of the node voltage.
    Integral {
        /// Node name.
        node: String,
    },
    /// The time integral of the squared node voltage.
    IntegralSquared {
        /// Node name.
        node: String,
    },
}

impl ObjectiveSpec {
    /// The node name this objective observes.
    pub fn node(&self) -> &str {
        match self {
            ObjectiveSpec::FinalValue { node }
            | ObjectiveSpec::AtStep { node, .. }
            | ObjectiveSpec::Integral { node }
            | ObjectiveSpec::IntegralSquared { node } => node,
        }
    }
}

/// Which parameters a job differentiates with respect to.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamSelector {
    /// Every parameter the deck defines, in deck order.
    All,
    /// An explicit list of parameter paths.
    Named(Vec<String>),
}

/// Why a request line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line was empty.
    Empty,
    /// The line is longer than [`MAX_LINE_BYTES`].
    LineTooLong {
        /// Observed length.
        len: usize,
    },
    /// The first token is not a known command.
    UnknownCommand(String),
    /// A required field is missing.
    MissingField(&'static str),
    /// The job id is empty, too long, or has characters outside
    /// `[A-Za-z0-9._-]`.
    BadJobId,
    /// An objective spec failed to parse.
    BadObjective(String),
    /// Too many objectives or parameters.
    TooMany {
        /// Which list overflowed.
        what: &'static str,
        /// The cap that was exceeded.
        max: usize,
    },
    /// The deck field ends inside an escape sequence or uses an unknown
    /// escape.
    BadEscape,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty request line"),
            ProtocolError::LineTooLong { len } => {
                write!(f, "request line of {len} bytes exceeds {MAX_LINE_BYTES}")
            }
            ProtocolError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            ProtocolError::MissingField(what) => write!(f, "missing field: {what}"),
            ProtocolError::BadJobId => {
                write!(f, "job id must be 1..={MAX_JOB_ID} chars of [A-Za-z0-9._-]")
            }
            ProtocolError::BadObjective(s) => write!(f, "bad objective spec {s:?}"),
            ProtocolError::TooMany { what, max } => {
                write!(f, "too many {what} (max {max})")
            }
            ProtocolError::BadEscape => write!(f, "bad escape sequence in deck field"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_JOB_ID
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

fn parse_objective(spec: &str) -> Result<ObjectiveSpec, ProtocolError> {
    let bad = || ProtocolError::BadObjective(spec.to_string());
    let (kind, rest) = spec.split_once(':').ok_or_else(bad)?;
    match kind {
        "final" | "integral" | "integral2" => {
            if rest.is_empty() || rest.contains(':') {
                return Err(bad());
            }
            let node = rest.to_string();
            Ok(match kind {
                "final" => ObjectiveSpec::FinalValue { node },
                "integral" => ObjectiveSpec::Integral { node },
                _ => ObjectiveSpec::IntegralSquared { node },
            })
        }
        "at" => {
            let (step, node) = rest.split_once(':').ok_or_else(bad)?;
            if node.is_empty() || node.contains(':') {
                return Err(bad());
            }
            let step: usize = step.parse().map_err(|_| bad())?;
            Ok(ObjectiveSpec::AtStep {
                node: node.to_string(),
                step,
            })
        }
        _ => Err(bad()),
    }
}

/// Unescapes the deck field (`\n` → newline, `\\` → backslash).
///
/// The output is never longer than the input, so this allocates at most
/// one input-sized buffer.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by `field.len() ≤ MAX_LINE_BYTES`, the held request line"
)]
fn unescape_deck(field: &str) -> Result<String, ProtocolError> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            _ => return Err(ProtocolError::BadEscape),
        }
    }
    Ok(out)
}

/// Escapes a deck for the `SOLVE` line (inverse of the parser's
/// unescaping). Carriage returns are dropped: the protocol is
/// line-delimited and decks are `\n`-separated card text.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: sized by `deck.len()`, a held string"
)]
pub fn escape_deck(deck: &str) -> String {
    let mut out = String::with_capacity(deck.len() + deck.len() / 8);
    for c in deck.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => {}
            c => out.push(c),
        }
    }
    out
}

/// Parses one request line (no trailing newline).
///
/// # Errors
///
/// Returns [`ProtocolError`] describing the first malformed field.
#[expect(
    clippy::disallowed_methods,
    reason = "`specs.len() ≤ MAX_OBJECTIVES`, checked just above"
)]
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::LineTooLong { len: line.len() });
    }
    let line = line.trim_end_matches(['\r', '\n']);
    if line.trim().is_empty() {
        return Err(ProtocolError::Empty);
    }
    let (command, rest) = match line.split_once(' ') {
        Some((c, r)) => (c, r),
        None => (line, ""),
    };
    match command {
        "STATS" => Ok(Request::Stats),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "SOLVE" => {
            let (id, rest) = rest
                .split_once(' ')
                .ok_or(ProtocolError::MissingField("objectives"))?;
            if !valid_job_id(id) {
                return Err(ProtocolError::BadJobId);
            }
            let (objectives, rest) = rest
                .split_once(' ')
                .ok_or(ProtocolError::MissingField("params"))?;
            let (params, deck) = rest
                .split_once(' ')
                .ok_or(ProtocolError::MissingField("deck"))?;
            if deck.is_empty() {
                return Err(ProtocolError::MissingField("deck"));
            }

            let specs: Vec<&str> = objectives.split(',').collect();
            if specs.len() > MAX_OBJECTIVES {
                return Err(ProtocolError::TooMany {
                    what: "objectives",
                    max: MAX_OBJECTIVES,
                });
            }
            let mut parsed = Vec::with_capacity(specs.len());
            for spec in specs {
                parsed.push(parse_objective(spec)?);
            }
            if parsed.is_empty() {
                return Err(ProtocolError::MissingField("objectives"));
            }

            let selector = if params == "*" {
                ParamSelector::All
            } else {
                let paths: Vec<&str> = params.split(',').collect();
                if paths.len() > MAX_PARAMS {
                    return Err(ProtocolError::TooMany {
                        what: "params",
                        max: MAX_PARAMS,
                    });
                }
                if paths.iter().any(|p| p.is_empty()) {
                    return Err(ProtocolError::MissingField("params"));
                }
                ParamSelector::Named(paths.iter().map(|p| p.to_string()).collect())
            };

            Ok(Request::Solve(JobRequest {
                id: id.to_string(),
                objectives: parsed,
                params: selector,
                deck: unescape_deck(deck)?,
            }))
        }
        other => Err(ProtocolError::UnknownCommand(other.to_string())),
    }
}

/// Renders a successful job response.
pub fn render_ok(id: &str, hit: bool, steps: usize, values: &[f64], sens: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str("OK ");
    out.push_str(id);
    out.push_str(if hit { " hit" } else { " miss" });
    out.push_str(&format!(" steps={steps} values="));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v:?}"));
    }
    out.push_str(" sens=");
    for (i, row) in sens.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{v:?}"));
        }
    }
    out
}

/// Renders an error response (`message` is flattened to one line).
pub fn render_err(id: &str, code: &str, message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {id} {code} {flat}")
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    #[test]
    fn solve_round_trip() {
        let deck = "I1 n0 0 DC 1e-3\nR0 n0 0 1000\n.tran 1u 10u\n.end";
        let line = format!(
            "SOLVE job-1 final:n0,at:3:n0,integral:n0 * {}",
            escape_deck(deck)
        );
        let req = parse_request(&line).unwrap();
        let Request::Solve(job) = req else {
            panic!("not a solve")
        };
        assert_eq!(job.id, "job-1");
        assert_eq!(job.deck, deck);
        assert_eq!(job.objectives.len(), 3);
        assert_eq!(
            job.objectives[1],
            ObjectiveSpec::AtStep {
                node: "n0".into(),
                step: 3
            }
        );
        assert_eq!(job.params, ParamSelector::All);
    }

    #[test]
    fn named_params_parse() {
        let line = "SOLVE j final:n1 R0.r,C1.c R0 n1 0 1k\\n.tran 1u 2u";
        let Request::Solve(job) = parse_request(line).unwrap() else {
            panic!("not a solve")
        };
        assert_eq!(
            job.params,
            ParamSelector::Named(vec!["R0.r".into(), "C1.c".into()])
        );
        assert!(job.deck.contains('\n'));
    }

    #[test]
    fn control_lines_parse() {
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("SHUTDOWN\n").unwrap(), Request::Shutdown);
    }

    #[test]
    fn hostile_lines_are_structured_errors() {
        for line in [
            "",
            "   ",
            "NOPE x",
            "SOLVE",
            "SOLVE id",
            "SOLVE id final:n0",
            "SOLVE id final:n0 *",
            "SOLVE id final:n0 * ",
            "SOLVE bad id! final:n0 * deck",
            "SOLVE id final * deck",
            "SOLVE id at:x:n0 * deck",
            "SOLVE id at:3 * deck",
            "SOLVE id wat:n0 * deck",
            "SOLVE id final:n0 * bad\\escape",
            "SOLVE id final:n0 * trailing\\",
            "SOLVE id final:n0 ,R0.r deck",
        ] {
            assert!(parse_request(line).is_err(), "line {line:?} should fail");
        }
        let long = format!("SOLVE id final:n0 * {}", "x".repeat(MAX_LINE_BYTES + 1));
        assert!(matches!(
            parse_request(&long),
            Err(ProtocolError::LineTooLong { .. })
        ));
        let many = format!(
            "SOLVE id {} * deck",
            vec!["final:n0"; MAX_OBJECTIVES + 1].join(",")
        );
        assert!(matches!(
            parse_request(&many),
            Err(ProtocolError::TooMany { .. })
        ));
    }

    #[test]
    fn render_ok_shapes_line() {
        let line = render_ok(
            "j1",
            true,
            0,
            &[1.5, -2.0],
            &[vec![0.25, 1.0], vec![3.0, 4.0]],
        );
        assert_eq!(
            line,
            "OK j1 hit steps=0 values=1.5,-2.0 sens=0.25,1.0;3.0,4.0"
        );
    }

    #[test]
    fn render_err_flattens_newlines() {
        assert_eq!(
            render_err("j", "parse", "line 3:\nbad card"),
            "ERR j parse line 3: bad card"
        );
    }
}
