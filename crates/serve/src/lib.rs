//! `masc-serve`: a long-running sensitivity job server with a
//! content-addressed compressed-tensor cache.
//!
//! The server accepts netlist + objective jobs over a line-delimited text
//! protocol ([`protocol`]), shards them across a scoped worker pool
//! ([`server`]), and fronts the whole MASC pipeline with a two-tier
//! (memory + disk) cache of compressed Jacobian tensors ([`cache`]) keyed
//! by the *content* of the job: the canonical re-serialized netlist, the
//! transient options, and the compression configuration.
//!
//! A cache miss runs the full forward transient through a capturing
//! [`CompressedStore`](masc_adjoint::CompressedStore) and persists the two
//! sealed tensors; a cache hit replays **only the reverse pass** — the
//! tensors decode newest-first straight into an
//! [`AdjointCursor`](masc_adjoint::AdjointCursor), the forward pass is
//! skipped entirely (`steps = 0` in the hit telemetry), and the
//! sensitivities are bit-identical to the cold run because the compressed
//! tensors are lossless and the reverse arithmetic is deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Shipping code never unwraps (DESIGN.md §3.10); the cache and protocol
// modules carry the full rule R1.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod server;

pub use cache::{CacheError, CacheMetrics, TensorCache};
pub use engine::{JobOutcome, ResolvedJob};
pub use protocol::{JobRequest, ObjectiveSpec, ParamSelector, ProtocolError, Request};
pub use server::{ServeConfig, Server};

use masc_adjoint::{AdjointError, RunError, StoreError};
use masc_circuit::parser::ParseNetlistError;
use masc_circuit::transient::TranError;
use masc_circuit::CircuitError;
use masc_compress::CompressError;

/// Everything that can go wrong while resolving or running one job.
#[derive(Debug)]
pub enum ServeError {
    /// The request line failed to parse.
    Protocol(ProtocolError),
    /// The deck text failed to parse.
    Parse(ParseNetlistError),
    /// The deck has no `.tran` directive, so there is nothing to run.
    NoTran,
    /// An objective references a node name the deck does not define (or
    /// the ground node, which has no unknown).
    UnknownNode(String),
    /// A parameter path does not resolve in the deck.
    UnknownParam(String),
    /// An `at:<step>` objective points past the end of the transient.
    StepOutOfRange {
        /// The requested step.
        step: usize,
        /// The last valid step index.
        max: usize,
    },
    /// The circuit failed to elaborate.
    Circuit(CircuitError),
    /// The forward transient failed.
    Tran(TranError),
    /// The reverse pass failed.
    Adjoint(AdjointError),
    /// The Jacobian store failed.
    Store(StoreError),
    /// A cached tensor failed to decode.
    Compress(CompressError),
    /// A cache entry failed to load or persist.
    Cache(CacheError),
    /// A cache entry decoded but does not match the job's circuit
    /// structure (hash collision or stale entry) — treated as a miss.
    CacheMismatch,
    /// Server-side I/O (socket, stdin) failed.
    Io(std::io::Error),
}

impl ServeError {
    /// Stable one-token error code for the wire protocol's `ERR` line.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Protocol(_) => "protocol",
            ServeError::Parse(_) => "parse",
            ServeError::NoTran => "no-tran",
            ServeError::UnknownNode(_) => "unknown-node",
            ServeError::UnknownParam(_) => "unknown-param",
            ServeError::StepOutOfRange { .. } => "step-range",
            ServeError::Circuit(_) => "circuit",
            ServeError::Tran(_) => "tran",
            ServeError::Adjoint(_) => "adjoint",
            ServeError::Store(_) => "store",
            ServeError::Compress(_) => "compress",
            ServeError::Cache(_) => "cache",
            ServeError::CacheMismatch => "cache-mismatch",
            ServeError::Io(_) => "io",
        }
    }

    /// Whether the error indicts the cached entry rather than the job —
    /// the caller should drop the entry and re-run cold.
    pub fn is_cache_fault(&self) -> bool {
        matches!(
            self,
            ServeError::Compress(_) | ServeError::Cache(_) | ServeError::CacheMismatch
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Parse(e) => write!(f, "deck parse error: {e}"),
            ServeError::NoTran => write!(f, "deck has no .tran directive"),
            ServeError::UnknownNode(n) => write!(f, "objective node {n:?} not in deck"),
            ServeError::UnknownParam(p) => write!(f, "parameter {p:?} not in deck"),
            ServeError::StepOutOfRange { step, max } => {
                write!(f, "objective step {step} out of range (last step {max})")
            }
            ServeError::Circuit(e) => write!(f, "elaboration failed: {e}"),
            ServeError::Tran(e) => write!(f, "transient failed: {e}"),
            ServeError::Adjoint(e) => write!(f, "adjoint failed: {e}"),
            ServeError::Store(e) => write!(f, "store failed: {e}"),
            ServeError::Compress(e) => write!(f, "tensor decode failed: {e}"),
            ServeError::Cache(e) => write!(f, "cache failed: {e}"),
            ServeError::CacheMismatch => write!(f, "cache entry does not match job structure"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Protocol(e) => Some(e),
            ServeError::Parse(e) => Some(e),
            ServeError::Circuit(e) => Some(e),
            ServeError::Tran(e) => Some(e),
            ServeError::Adjoint(e) => Some(e),
            ServeError::Store(e) => Some(e),
            ServeError::Compress(e) => Some(e),
            ServeError::Cache(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<ParseNetlistError> for ServeError {
    fn from(e: ParseNetlistError) -> Self {
        ServeError::Parse(e)
    }
}

impl From<CircuitError> for ServeError {
    fn from(e: CircuitError) -> Self {
        ServeError::Circuit(e)
    }
}

impl From<TranError> for ServeError {
    fn from(e: TranError) -> Self {
        ServeError::Tran(e)
    }
}

impl From<AdjointError> for ServeError {
    fn from(e: AdjointError) -> Self {
        match e {
            AdjointError::StepOutOfRange { step, max } => ServeError::StepOutOfRange { step, max },
            e => ServeError::Adjoint(e),
        }
    }
}

impl From<RunError> for ServeError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Circuit(e) => e.into(),
            RunError::Tran(e) => e.into(),
            RunError::Store(e) => e.into(),
            RunError::Adjoint(e) => e.into(),
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<CompressError> for ServeError {
    fn from(e: CompressError) -> Self {
        ServeError::Compress(e)
    }
}

impl From<CacheError> for ServeError {
    fn from(e: CacheError) -> Self {
        ServeError::Cache(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
