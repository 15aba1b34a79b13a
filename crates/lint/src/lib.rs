//! `masc-lint`: a zero-dependency static analyzer for the MASC workspace.
//!
//! The DAC'24 paper's lossless decode chain only holds up in production if
//! three invariants hold everywhere bytes cross a trust boundary: wire
//! decoders never panic, attacker-claimed lengths are bounded before they
//! become allocations, and every fallible API surfaces a structured error.
//! PR 4's fuzz harness found violations of all three *dynamically*; this
//! crate fossilizes them as build-time rules:
//!
//! | rule | group | checks |
//! |------|-------|--------|
//! | `panic-call`     | R1 | no `.unwrap()` / `.expect(…)` in hardened modules |
//! | `panic-macro`    | R1 | no `panic!` / `unreachable!` / `todo!` / `unimplemented!` |
//! | `panic-index`    | R1 | index expressions carry a nearby bounds guard |
//! | `unbounded-alloc`| R2 | wire-derived allocation sizes are `MAX_*`-guarded or use `masc_bitio::bounded` |
//! | `error-payload`  | R3 | `pub fn … -> Result` uses structured error types |
//! | `error-impl`     | R3 | `pub enum *Error` implements `Display` + `Error` |
//!
//! Everything else is left to the standard toolchain: `missing_docs`
//! covers public docs, and a clippy `disallowed-methods` entry bans
//! `std::thread::spawn`.
//!
//! "Hardened modules" are declared in `lint-manifest.txt` (see
//! [`manifest`]); suppressions are inline pragmas with mandatory reasons
//! (see [`pragma`]). The analyzer has no dependencies: [`lexer`] is a
//! hand-rolled total Rust lexer.

#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod pragma;
pub mod rules;
pub mod workspace;

pub use diag::{Finding, LintError, RuleId};
pub use manifest::Manifest;
pub use rules::{analyze, FileInput};
pub use workspace::{find_root, run, run_sources, Report, SourceFile};
