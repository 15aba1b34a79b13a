//! SPICE-subset netlist parser.
//!
//! Supports the element cards needed by the paper's workload classes (R, C,
//! L, V, I, D, Q, M), SPICE engineering suffixes (`1k`, `2.2u`, `3meg`),
//! `key=value` model parameters, waveform specs (`DC`, `PULSE(…)`,
//! `SIN(…)`, `PWL(…)`), comments (`*`), and the `.tran`/`.end` directives.
//!
//! # Examples
//!
//! ```
//! use masc_circuit::parser::parse_netlist;
//!
//! let src = "\
//! * RC lowpass
//! V1 in 0 PULSE(0 5 0 1n 1n 1u 2u)
//! R1 in out 1k
//! C1 out 0 1n
//! .tran 10n 4u
//! .end";
//! let parsed = parse_netlist(src).expect("valid netlist");
//! assert_eq!(parsed.circuit.devices().len(), 3);
//! assert!(parsed.tran.is_some());
//! ```

// Hardened-surface rule R1 (DESIGN.md §3.10): this module parses untrusted
// netlist text, so it never panics. An index that clippy cannot prove in
// bounds carries an
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

use crate::circuit::Circuit;
use crate::devices::{
    Bjt, BjtPolarity, Capacitor, CurrentSource, Device, Diode, Inductor, MosPolarity, Mosfet,
    Resistor, Vccs, Vcvs, VoltageSource,
};
use crate::transient::TranOptions;
use crate::waveform::Waveform;
use core::fmt;

/// Most steps a `.tran` grid may ask for. Decks arrive from clients, and
/// a grid like `.tran 1e-300 1` would step for ever. The bound matches the
/// serve cache's time-point bound and is far above every real grid.
const MAX_TRAN_STEPS: usize = 1 << 22;

/// A parsed netlist: the circuit plus any `.tran` directive found.
#[derive(Debug, Clone)]
pub struct ParsedNetlist {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// `.tran dt tstop`, if present.
    pub tran: Option<TranOptions>,
    /// The netlist title (first line if it is not an element card).
    pub title: Option<String>,
}

/// A netlist syntax error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNetlistError {}

fn err(line: usize, message: impl Into<String>) -> ParseNetlistError {
    ParseNetlistError {
        line,
        message: message.into(),
    }
}

/// Error from [`parse_value`]: the token is not a SPICE number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseValueError {
    /// The offending token.
    pub text: String,
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid number {:?}", self.text)
    }
}

impl std::error::Error for ParseValueError {}

/// Parses a SPICE number with engineering suffix (`1k`, `2.2u`, `3meg`, …).
///
/// # Errors
///
/// Returns [`ParseValueError`] if the text is not a number.
pub fn parse_value(text: &str) -> Result<f64, ParseValueError> {
    let lower = text.to_ascii_lowercase();
    let (digits, mult) = if let Some(stripped) = lower.strip_suffix("meg") {
        (stripped, 1e6)
    } else if let Some(stripped) = lower.strip_suffix("mil") {
        (stripped, 25.4e-6)
    } else {
        let mult = match lower.chars().last() {
            Some('t') => 1e12,
            Some('g') => 1e9,
            Some('k') => 1e3,
            Some('m') => 1e-3,
            Some('u') => 1e-6,
            Some('n') => 1e-9,
            Some('p') => 1e-12,
            Some('f') => 1e-15,
            _ => 1.0,
        };
        if mult != 1.0 {
            (&lower[..lower.len() - 1], mult)
        } else {
            (lower.as_str(), 1.0)
        }
    };
    digits
        .parse::<f64>()
        .map(|v| v * mult)
        .map_err(|_| ParseValueError {
            text: text.to_string(),
        })
}

/// Splits `key=value` tokens out of a token list.
fn split_kv(tokens: &[&str]) -> (Vec<String>, Vec<(String, String)>) {
    let mut plain = Vec::new();
    let mut kv = Vec::new();
    for t in tokens {
        if let Some((k, v)) = t.split_once('=') {
            kv.push((k.to_ascii_lowercase(), v.to_string()));
        } else {
            plain.push(t.to_string());
        }
    }
    (plain, kv)
}

/// Parses a waveform spec from the tokens following the node list.
#[expect(
    clippy::indexing_slicing,
    reason = "each fixed index follows a `len()` check on the same list (`tokens` is non-empty; `a.len()` ≥ 7, 3 or 2); `chunks(2)` of an even-length list"
)]
fn parse_waveform(tokens: &[String], line: usize) -> Result<Waveform, ParseNetlistError> {
    if tokens.is_empty() {
        return Err(err(line, "source needs a value or waveform"));
    }
    let joined = tokens.join(" ");
    let upper = joined.to_ascii_uppercase();
    let args_of = |name: &str| -> Result<Vec<f64>, ParseNetlistError> {
        let open = upper
            .find('(')
            .ok_or_else(|| err(line, format!("{name} needs (")))?;
        let close = upper
            .rfind(')')
            .ok_or_else(|| err(line, format!("{name} needs )")))?;
        // `)` before `(` (e.g. "PULSE) (") would make the slice below
        // panic with start > end.
        if close < open + 1 {
            return Err(err(line, format!("{name}: ')' before '('")));
        }
        joined
            .get(open + 1..close)
            .ok_or_else(|| err(line, format!("{name}: malformed argument list")))?
            .split([' ', ','])
            .filter(|s| !s.is_empty())
            .map(|s| parse_value(s).map_err(|m| err(line, m.to_string())))
            .collect()
    };
    if upper.starts_with("PULSE") {
        let a = args_of("PULSE")?;
        if a.len() < 7 {
            return Err(err(line, "PULSE needs 7 arguments (v1 v2 td tr tf pw per)"));
        }
        Ok(Waveform::Pulse {
            v1: a[0],
            v2: a[1],
            td: a[2],
            tr: a[3],
            tf: a[4],
            pw: a[5],
            per: a[6],
        })
    } else if upper.starts_with("SIN") {
        let a = args_of("SIN")?;
        if a.len() < 3 {
            return Err(err(line, "SIN needs at least 3 arguments (vo va freq)"));
        }
        Ok(Waveform::Sin {
            vo: a[0],
            va: a[1],
            freq: a[2],
            td: a.get(3).copied().unwrap_or(0.0),
            theta: a.get(4).copied().unwrap_or(0.0),
        })
    } else if upper.starts_with("PWL") {
        let a = args_of("PWL")?;
        if a.len() < 2 || a.len() % 2 != 0 {
            return Err(err(line, "PWL needs an even number of arguments"));
        }
        let points = a.chunks(2).map(|p| (p[0], p[1])).collect();
        Ok(Waveform::Pwl(points))
    } else if upper.starts_with("DC") {
        let value = tokens.get(1).ok_or_else(|| err(line, "DC needs a value"))?;
        Ok(Waveform::Dc(
            parse_value(value).map_err(|m| err(line, m.to_string()))?,
        ))
    } else {
        Ok(Waveform::Dc(
            parse_value(&tokens[0]).map_err(|m| err(line, m.to_string()))?,
        ))
    }
}

/// Parses a complete netlist.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] with the offending line on any syntax or
/// semantic problem (bad numbers, missing nodes, duplicate names, …).
#[expect(
    clippy::indexing_slicing,
    reason = "each fixed `tokens[i]` follows a `need(n)?` or `len()` check with `n > i`"
)]
pub fn parse_netlist(source: &str) -> Result<ParsedNetlist, ParseNetlistError> {
    let mut circuit = Circuit::new();
    let mut tran = None;
    let mut title = None;

    // Join continuation lines (starting with '+').
    let mut lines: Vec<(usize, String)> = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix('+') {
            if let Some(last) = lines.last_mut() {
                last.1.push(' ');
                last.1.push_str(rest.trim());
                continue;
            }
        }
        lines.push((i + 1, line.to_string()));
    }

    let mut first_content = true;
    for (lineno, line) in lines {
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let is_first = first_content;
        first_content = false;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        // Defensive: a card whose every character is whitespace after
        // continuation joining has no tokens. Indexing would panic here;
        // report it as a malformed line instead.
        let Some(&head) = tokens.first() else {
            return Err(err(lineno, "blank device card"));
        };
        let upper_head = head.to_ascii_uppercase();
        if upper_head == ".END" {
            break;
        }
        if upper_head == ".TRAN" {
            if tokens.len() < 3 {
                return Err(err(lineno, ".tran needs dt and tstop"));
            }
            let dt = parse_value(tokens[1]).map_err(|m| err(lineno, m.to_string()))?;
            let t_stop = parse_value(tokens[2]).map_err(|m| err(lineno, m.to_string()))?;
            if dt <= 0.0 || t_stop < dt {
                return Err(err(lineno, ".tran needs 0 < dt <= tstop"));
            }
            let opts = TranOptions::new(t_stop, dt);
            if opts.step_count() > MAX_TRAN_STEPS {
                return Err(err(
                    lineno,
                    format!(".tran asks for more than {MAX_TRAN_STEPS} steps"),
                ));
            }
            tran = Some(opts);
            continue;
        }
        if upper_head.starts_with('.') {
            // Unknown directives are ignored (like .options in real decks).
            continue;
        }
        // Structured error instead of `expect`: `split_whitespace` never
        // yields an empty token today, but a panic here would take the
        // whole process down on an adversarial netlist if that invariant
        // ever shifts (e.g. a future tokenizer change).
        let Some(kind) = upper_head.chars().next() else {
            return Err(err(lineno, "empty device card"));
        };
        if !kind.is_ascii_alphabetic() {
            return Err(err(lineno, format!("unrecognized card {head:?}")));
        }
        // SPICE treats the first line as a title; we accept element cards
        // there too, falling back to title only when the line does not
        // parse as an element.
        let known = matches!(
            kind,
            'R' | 'C' | 'L' | 'V' | 'I' | 'D' | 'Q' | 'M' | 'G' | 'E'
        );
        if !known {
            if is_first && title.is_none() {
                title = Some(line.clone());
                continue;
            }
            return Err(err(lineno, format!("unknown element type {kind:?}")));
        }

        let need = |count: usize| -> Result<(), ParseNetlistError> {
            if tokens.len() < count {
                Err(err(lineno, format!("{head} needs at least {count} fields")))
            } else {
                Ok(())
            }
        };
        let name = head.to_string();
        // Snapshot so a failed first-line parse (title text that happens to
        // start with an element letter) does not leave stray nodes behind.
        let snapshot = if is_first {
            Some(circuit.clone())
        } else {
            None
        };
        let parsed: Result<Device, ParseNetlistError> = (|| {
            let device = match kind {
                'R' | 'C' | 'L' => {
                    need(4)?;
                    let a = circuit.node(tokens[1]).unknown();
                    let b = circuit.node(tokens[2]).unknown();
                    let value = parse_value(tokens[3]).map_err(|m| err(lineno, m.to_string()))?;
                    if value <= 0.0 {
                        return Err(err(lineno, format!("{head}: value must be positive")));
                    }
                    match kind {
                        'R' => Device::Resistor(Resistor::new(name, a, b, value)),
                        'C' => Device::Capacitor(Capacitor::new(name, a, b, value)),
                        _ => Device::Inductor(Inductor::new(name, a, b, value)),
                    }
                }
                'G' | 'E' => {
                    need(6)?;
                    let a = circuit.node(tokens[1]).unknown();
                    let b = circuit.node(tokens[2]).unknown();
                    let cp = circuit.node(tokens[3]).unknown();
                    let cn = circuit.node(tokens[4]).unknown();
                    let value = parse_value(tokens[5]).map_err(|m| err(lineno, m.to_string()))?;
                    if kind == 'G' {
                        Device::Vccs(Vccs::new(name, a, b, cp, cn, value))
                    } else {
                        Device::Vcvs(Vcvs::new(name, a, b, cp, cn, value))
                    }
                }
                'V' | 'I' => {
                    need(4)?;
                    let a = circuit.node(tokens[1]).unknown();
                    let b = circuit.node(tokens[2]).unknown();
                    let rest: Vec<String> = tokens[3..].iter().map(|s| s.to_string()).collect();
                    let wave = parse_waveform(&rest, lineno)?;
                    if kind == 'V' {
                        Device::VoltageSource(VoltageSource::new(name, a, b, wave))
                    } else {
                        Device::CurrentSource(CurrentSource::new(name, a, b, wave))
                    }
                }
                'D' => {
                    need(3)?;
                    let a = circuit.node(tokens[1]).unknown();
                    let c = circuit.node(tokens[2]).unknown();
                    let (_, kv) = split_kv(&tokens[3..]);
                    let mut d = Diode::new(name, a, c);
                    for (k, v) in kv {
                        let value = parse_value(&v).map_err(|m| err(lineno, m.to_string()))?;
                        match k.as_str() {
                            "is" => d.is_sat = value,
                            "n" => d.n_emission = value,
                            "cj0" => d.cj0 = value,
                            "vj" => d.vj = value,
                            "m" => d.mj = value,
                            _ => return Err(err(lineno, format!("unknown diode param {k}"))),
                        }
                    }
                    Device::Diode(d)
                }
                'Q' => {
                    need(4)?;
                    let c = circuit.node(tokens[1]).unknown();
                    let b = circuit.node(tokens[2]).unknown();
                    let e = circuit.node(tokens[3]).unknown();
                    let (plain, kv) = split_kv(&tokens[4..]);
                    let mut q = Bjt::new(name, c, b, e);
                    match plain.first().map(|s| s.to_ascii_uppercase()) {
                        Some(ref m) if m == "PNP" => q.polarity = BjtPolarity::Pnp,
                        Some(ref m) if m == "NPN" => {}
                        None => {}
                        Some(other) => {
                            return Err(err(lineno, format!("unknown bjt model {other}")))
                        }
                    }
                    for (k, v) in kv {
                        let value = parse_value(&v).map_err(|m| err(lineno, m.to_string()))?;
                        match k.as_str() {
                            "is" => q.is_sat = value,
                            "bf" => q.beta_f = value,
                            "br" => q.beta_r = value,
                            "tf" => q.tf = value,
                            "tr" => q.tr = value,
                            _ => return Err(err(lineno, format!("unknown bjt param {k}"))),
                        }
                    }
                    Device::Bjt(q)
                }
                'M' => {
                    need(4)?;
                    let d = circuit.node(tokens[1]).unknown();
                    let g = circuit.node(tokens[2]).unknown();
                    let s = circuit.node(tokens[3]).unknown();
                    let (plain, kv) = split_kv(&tokens[4..]);
                    let polarity = match plain.first().map(|s| s.to_ascii_uppercase()) {
                        Some(ref p) if p == "PMOS" => MosPolarity::Pmos,
                        Some(ref p) if p == "NMOS" => MosPolarity::Nmos,
                        None => MosPolarity::Nmos,
                        Some(other) => {
                            return Err(err(lineno, format!("unknown mosfet model {other}")))
                        }
                    };
                    let mut m = Mosfet::new(name, d, g, s, polarity);
                    for (k, v) in kv {
                        let value = parse_value(&v).map_err(|m| err(lineno, m.to_string()))?;
                        match k.as_str() {
                            "kp" => m.kp = value,
                            "vt0" => m.vt0 = value,
                            "lambda" => m.lambda = value,
                            "w" => m.w = value,
                            "l" => m.l = value,
                            "cgs" => m.cgs = value,
                            "cgd" => m.cgd = value,
                            _ => return Err(err(lineno, format!("unknown mosfet param {k}"))),
                        }
                    }
                    Device::Mosfet(m)
                }
                // The `known` filter above admits only the listed letters;
                // keep the residual arm a structured error, not a panic.
                _ => return Err(err(lineno, format!("unknown element type {kind:?}"))),
            };
            Ok(device)
        })();
        match parsed {
            Ok(device) => {
                circuit
                    .add(device)
                    .map_err(|e| err(lineno, e.to_string()))?;
            }
            Err(e) => {
                // Title fallback only for *structural* mismatches (too few
                // fields) — a first line like "My Test Circuit". Value or
                // parameter errors on a well-formed card are real errors.
                if is_first && title.is_none() && e.message.contains("needs at least") {
                    if let Some(snap) = snapshot {
                        circuit = snap;
                    }
                    title = Some(line.clone());
                    continue;
                }
                return Err(e);
            }
        }
    }
    Ok(ParsedNetlist {
        circuit,
        tran,
        title,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_with_suffixes() {
        assert_eq!(parse_value("100").unwrap(), 100.0);
        assert_eq!(parse_value("1k").unwrap(), 1000.0);
        assert_eq!(parse_value("2.2u").unwrap(), 2.2e-6);
        assert_eq!(parse_value("3meg").unwrap(), 3e6);
        assert_eq!(parse_value("5n").unwrap(), 5e-9);
        assert_eq!(parse_value("1.5p").unwrap(), 1.5e-12);
        assert_eq!(parse_value("2f").unwrap(), 2e-15);
        assert_eq!(parse_value("-3m").unwrap(), -3e-3);
        assert_eq!(parse_value("1e-9").unwrap(), 1e-9);
        assert!(parse_value("abc").is_err());
    }

    #[test]
    fn basic_rc_netlist() {
        let src = "\
V1 in 0 DC 5
R1 in out 1k
C1 out 0 1u
.tran 1u 1m
.end";
        let p = parse_netlist(src).unwrap();
        assert_eq!(p.circuit.devices().len(), 3);
        let tran = p.tran.unwrap();
        assert_eq!(tran.dt, 1e-6);
        assert_eq!(tran.t_stop, 1e-3);
    }

    #[test]
    fn title_and_comments() {
        let src = "\
My Test Circuit
* a comment
R1 a 0 1k
.end";
        let p = parse_netlist(src).unwrap();
        assert_eq!(p.title.as_deref(), Some("My Test Circuit"));
        assert_eq!(p.circuit.devices().len(), 1);
    }

    #[test]
    fn waveform_cards() {
        let src = "\
V1 a 0 PULSE(0 5 1n 2n 2n 10n 20n)
V2 b 0 SIN(0 1 1k)
V3 c 0 PWL(0 0 1u 1 2u 0)
I1 d 0 2m
.end";
        let p = parse_netlist(src).unwrap();
        assert_eq!(p.circuit.devices().len(), 4);
        match &p.circuit.devices()[0] {
            Device::VoltageSource(v) => {
                assert!(matches!(v.waveform, Waveform::Pulse { v2: 5.0, .. }))
            }
            other => panic!("expected vsource, got {other:?}"),
        }
        match &p.circuit.devices()[3] {
            Device::CurrentSource(i) => assert_eq!(i.waveform, Waveform::Dc(2e-3)),
            other => panic!("expected isource, got {other:?}"),
        }
    }

    #[test]
    fn semiconductor_cards_with_params() {
        let src = "\
D1 a 0 IS=1e-15 N=1.5 CJ0=2p
Q1 c b 0 BF=80 IS=1e-16 TF=1n
M1 d g 0 NMOS KP=5e-5 VT0=0.6 W=20u L=2u
M2 d2 g2 vdd PMOS
.end";
        let p = parse_netlist(src).unwrap();
        match &p.circuit.devices()[0] {
            Device::Diode(d) => {
                assert_eq!(d.is_sat, 1e-15);
                assert_eq!(d.n_emission, 1.5);
                assert_eq!(d.cj0, 2e-12);
            }
            other => panic!("{other:?}"),
        }
        match &p.circuit.devices()[1] {
            Device::Bjt(q) => {
                assert_eq!(q.beta_f, 80.0);
                assert_eq!(q.tf, 1e-9);
            }
            other => panic!("{other:?}"),
        }
        match &p.circuit.devices()[3] {
            Device::Mosfet(m) => assert_eq!(m.polarity, MosPolarity::Pmos),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn continuation_lines() {
        let src = "\
V1 a 0 PULSE(0 5
+ 1n 2n 2n 10n 20n)
.end";
        let p = parse_netlist(src).unwrap();
        assert_eq!(p.circuit.devices().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_netlist("R1 a 0 abc\n.end").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_netlist("R1 a 0 1k\nR1 b 0 2k\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));
        let e = parse_netlist("R1 a 0 1k\nD1 x y ZZZ=1\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        // A structurally-short card on line 1 becomes the title; after the
        // first line it is a hard error.
        let e = parse_netlist("R1 a 0 1k\nR2 a 0\n.end").unwrap_err();
        assert!(e.message.contains("at least"));
        let titled = parse_netlist("R1 a 0\nR2 a 0 1k\n.end").unwrap();
        assert_eq!(titled.title.as_deref(), Some("R1 a 0"));
    }

    #[test]
    fn adversarial_netlists_error_instead_of_panicking() {
        // Reversed parentheses in a waveform spec: `rfind(')')` lands
        // before `find('(')`, which used to slice with start > end.
        let e = parse_netlist("R1 a 0 1k\nV1 a 0 PULSE) (\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("')' before '('"), "{}", e.message);
        // Same shape through the SIN and PWL arms.
        assert!(parse_netlist("R1 a 0 1k\nV1 a 0 SIN) x (\n.end").is_err());
        assert!(parse_netlist("R1 a 0 1k\nI1 a 0 PWL)(\n.end").is_err());
        // Empty argument list is an argument-count error, not a panic.
        let e = parse_netlist("R1 a 0 1k\nV1 a 0 PULSE()\n.end").unwrap_err();
        assert!(e.message.contains("7 arguments"), "{}", e.message);
        // A deck that is nothing but continuation markers: the leading
        // `+` has no previous line to join, so it survives as a card.
        let e = parse_netlist("+\n.end").unwrap_err();
        assert_eq!(e.line, 1);
        // Non-alphabetic card heads after the title line are structured
        // errors with the right line number.
        let e = parse_netlist("R1 a 0 1k\n@bad card\n.end").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unrecognized"), "{}", e.message);
        // Blank/comment-only decks parse to an empty circuit.
        for src in ["", "\n\n", "* only a comment\n", ".end"] {
            let p = parse_netlist(src).expect("empty deck parses");
            assert!(p.circuit.devices().is_empty());
        }
    }

    #[test]
    fn negative_component_values_rejected() {
        assert!(parse_netlist("R1 a 0 -5\n.end").is_err());
        assert!(parse_netlist("C1 a 0 0\n.end").is_err());
    }

    #[test]
    fn bad_tran_rejected() {
        assert!(parse_netlist(".tran 1u\n.end").is_err());
        assert!(parse_netlist(".tran 2m 1m\n.end").is_err());
    }

    #[test]
    fn unbounded_tran_grid_rejected() {
        for deck in [".tran 1e-300 1\n.end", ".tran 1e-12 1\n.end"] {
            let e = parse_netlist(deck).unwrap_err();
            assert_eq!(e.line, 1, "{deck:?}");
            assert!(e.message.contains("steps"), "{deck:?}: {e}");
        }
        let p = parse_netlist(".tran 1 4194304\n.end").unwrap();
        assert_eq!(p.tran.unwrap().step_count(), MAX_TRAN_STEPS);
    }

    #[test]
    fn controlled_source_cards() {
        let src = "\
G1 out 0 ctrl 0 2m
E1 amp 0 ctrl 0 10
.end";
        let p = parse_netlist(src).unwrap();
        match &p.circuit.devices()[0] {
            Device::Vccs(g) => assert_eq!(g.gm, 2e-3),
            other => panic!("expected vccs, got {other:?}"),
        }
        match &p.circuit.devices()[1] {
            Device::Vcvs(e) => assert_eq!(e.gain, 10.0),
            other => panic!("expected vcvs, got {other:?}"),
        }
        // Too few fields is an error (after line 1).
        let e = parse_netlist("R1 a 0 1k\nG1 out 0 ctrl 2m\n.end").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn pnp_bjt_card() {
        let src = "\
Q1 c b e PNP IS=1e-15
Q2 c2 b2 e2 NPN
Q3 c3 b3 e3
.end";
        let p = parse_netlist(src).unwrap();
        match &p.circuit.devices()[0] {
            Device::Bjt(q) => {
                assert_eq!(q.polarity, BjtPolarity::Pnp);
                assert_eq!(q.is_sat, 1e-15);
            }
            other => panic!("{other:?}"),
        }
        for i in [1usize, 2] {
            match &p.circuit.devices()[i] {
                Device::Bjt(q) => assert_eq!(q.polarity, BjtPolarity::Npn),
                other => panic!("{other:?}"),
            }
        }
        let e = parse_netlist("R1 a 0 1k\nQ1 c b e JFET\n.end").unwrap_err();
        assert!(e.message.contains("unknown bjt model"));
    }

    #[test]
    fn vcvs_solves_as_ideal_amplifier() {
        // E amplifies a divider's midpoint by 5: out = 5 · 2.5 = 12.5 V.
        let src = "\
V1 in 0 DC 5
R1 in mid 1k
R2 mid 0 1k
E1 out 0 mid 0 5
RL out 0 10k
.end";
        let mut p = parse_netlist(src).unwrap();
        let mut sys = p.circuit.elaborate().unwrap();
        let sol = crate::dc::dc_operating_point(
            &p.circuit,
            &mut sys,
            &crate::newton::NewtonOptions::default(),
        )
        .unwrap();
        let out = p.circuit.find_node("out").unwrap().unknown().unwrap();
        assert!((sol.x[out] - 12.5).abs() < 1e-9, "v(out) = {}", sol.x[out]);
    }

    #[test]
    fn parsed_netlist_elaborates_and_solves() {
        let src = "\
V1 in 0 DC 10
R1 in out 1k
R2 out 0 1k
.end";
        let mut p = parse_netlist(src).unwrap();
        let mut sys = p.circuit.elaborate().unwrap();
        let sol = crate::dc::dc_operating_point(
            &p.circuit,
            &mut sys,
            &crate::newton::NewtonOptions::default(),
        )
        .unwrap();
        let out = p.circuit.find_node("out").unwrap().unknown().unwrap();
        assert!((sol.x[out] - 5.0).abs() < 1e-9);
    }
}
