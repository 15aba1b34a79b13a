//! Differential conformance and structure-aware fuzzing for MASC.
//!
//! This crate cross-checks every layer of the workspace against an
//! independent reference for the same computation:
//!
//! - every codec primitive and baseline compressor round-trips byte-exact
//!   (`codec-roundtrip`, `baseline-roundtrip`) and decodes arbitrary bytes
//!   without panicking (`codec-decode`, `baseline-decode`, `cache-decode`);
//! - the MASC tensor compressor round-trips bit-exact through every
//!   in-memory, serialized, and chained-backward path (`tensor-roundtrip`,
//!   `tensor-decode`);
//! - every [`masc_adjoint::JacobianStore`] backend produces the same
//!   objective values and adjoint gradients as the raw in-memory store
//!   (`store-equiv`), and the adjoint agrees with direct (forward)
//!   sensitivities and finite differences (`adjoint-oracle`);
//! - the netlist parser accepts/rejects without panicking and agrees with
//!   a serialize → re-parse round trip (`parser-roundtrip`).
//!
//! Inputs are generated from per-case seeds derived exactly like
//! `masc_testkit::prop` derives them, so any failure is replayable with
//! `MASC_PROP_REPRO=<hex> masc-conform --only <oracle>`. Failures are
//! minimized by a structure-aware shrinker and persisted under
//! `tests/corpus/`, which doubles as the regression suite.
//!
//! The harness itself is validated by mutation checks (see
//! `tests/mutation.rs`): deliberately injected defects behind the
//! `mutation-hooks` feature of `masc-compress`/`masc-adjoint` must be
//! caught by these oracles within a bounded budget.
//!
//! Scheduling bugs are out of reach of value fuzzing. `masc-serve` builds
//! its two coordination points (the worker queue and single flight) from
//! std primitives that cannot lose a wakeup, and its own tests in
//! `crates/serve/tests/fault.rs` pin their end-to-end guarantees on the
//! real code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod geninput;
pub mod minimize;
pub mod oracle;
pub mod oracles;
pub mod runner;

pub use oracle::{run_input, Oracle};
pub use runner::{run, FailureReport, OracleReport, RunConfig, RunReport};

/// All conformance oracles, in round-robin execution order.
pub fn all_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(oracles::codec::CodecRoundtrip),
        Box::new(oracles::codec::CodecDecode),
        Box::new(oracles::baselines::BaselineRoundtrip),
        Box::new(oracles::baselines::BaselineDecode),
        Box::new(oracles::tensor::TensorRoundtrip),
        Box::new(oracles::tensor::TensorDecode),
        Box::new(oracles::matrix::ChunkedRoundtrip),
        Box::new(oracles::matrix::ChunkedHeaderDecode),
        Box::new(oracles::cache::CacheDecode),
        Box::new(oracles::parser::ParserRoundtrip),
        Box::new(oracles::store::StoreEquivalence),
        Box::new(oracles::store::AdjointOracle),
        Box::new(oracles::sweep::SweepEquivalence),
        Box::new(oracles::serve::ServeCache),
        Box::new(oracles::window::WindowEquivalence),
    ]
}
