//! Jacobian stores: an open, trait-based storage layer for the per-step
//! `G`/`C` tensors the adjoint reverse pass consumes (paper Fig. 7).
//!
//! A [`ForwardRecord`] plugs into the transient analysis as a
//! [`JacobianSink`] and captures, per accepted step, the solution `x_n`,
//! step size `h_n`, and — through a pluggable [`JacobianStore`] backend —
//! the `G`/`C` matrices. Three backends ship here, all synchronous: each
//! step is stored on the stepping thread, as the paper's Algorithm 2
//! compresses `M_{n-1}` against `M_n` inline (DESIGN.md §3.8 records why
//! there is no asynchronous path):
//!
//! - [`RecomputeStore`] — store nothing; the reverse pass re-evaluates
//!   every device (Xyce-like; the `T_Jac` cost of Table 1).
//! - [`RawStore`] — keep raw value arrays (the memory wall of Fig. 1).
//! - [`CompressedStore`] — MASC in-memory compression (paper Algorithm 2).
//!
//! A sealed tensor pair replays through one reader whether it comes
//! straight out of a [`CompressedStore`] or was kept by the caller and
//! reopened with [`BackwardJacobians::from_tensors`]: `masc-serve`'s cache
//! hits (a pair [`CompressedStore::capture`] handed over through a
//! [`TensorSlot`]) and `masc-window`'s per-window passes (a pair its fine
//! runs seal themselves) read exactly what `run_adjoint` reads.
//!
//! Custom backends implement [`JacobianStore`] + [`BackwardReader`] and
//! plug in through [`ForwardRecord::with_store`]; the throttled raw-disk
//! bar of the Fig. 7 reproducer (`masc-bench`) is one. A backend only
//! keeps bytes and reads them back: the [`StoreMetrics`] telemetry (bytes
//! written, peak residency, put and fetch time) belongs to the
//! [`ForwardRecord`] and then to its [`BackwardJacobians`], and the one
//! way to read stored matrices, raw ones included, is the newest-first
//! [`BackwardJacobians::next_back`].

// Hardened-surface rule R1 (DESIGN.md §3.10): the store decodes sealed
// Jacobian tensors, serve's on-disk entries included, so it never panics. An
// index that clippy cannot prove in bounds carries an
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

mod backends;

pub use backends::{CompressedStore, RawStore, RecomputeStore};

use masc_circuit::transient::{JacobianSink, SinkError};
use masc_circuit::{gather_into, System};
use masc_compress::{CompressedTensor, MascConfig};
use masc_sparse::{CsrMatrix, Pattern};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which Jacobian storage strategy to use.
#[derive(Debug, Clone)]
pub enum StoreConfig {
    /// Recompute matrices during the reverse pass (store only states).
    Recompute,
    /// Keep raw matrices in memory.
    RawMemory,
    /// MASC in-memory compression.
    Compressed(MascConfig),
}

impl StoreConfig {
    /// Builds the backend this configuration describes.
    pub fn build(&self, layout: &TensorLayout) -> Box<dyn JacobianStore> {
        match self {
            StoreConfig::Recompute => Box::new(RecomputeStore::new()),
            StoreConfig::RawMemory => Box::new(RawStore::new()),
            StoreConfig::Compressed(masc) => Box::new(CompressedStore::new(
                layout.g_pattern.clone(),
                layout.c_pattern.clone(),
                masc.clone(),
            )),
        }
    }
}

/// Errors from the Jacobian store layer.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure in a custom store's backing file.
    Io(std::io::Error),
    /// A compressed block failed to decode.
    Compress(masc_compress::CompressError),
    /// The stored tensor ended before the recorded step count.
    TensorTruncated {
        /// The step whose matrices were missing.
        step: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "jacobian store I/O: {e}"),
            StoreError::Compress(e) => write!(f, "jacobian decompression: {e}"),
            StoreError::TensorTruncated { step } => {
                write!(f, "jacobian tensor has no matrices for step {step}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Compress(e) => Some(e),
            StoreError::TensorTruncated { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<masc_compress::CompressError> for StoreError {
    fn from(e: masc_compress::CompressError) -> Self {
        StoreError::Compress(e)
    }
}

/// Telemetry for one Jacobian store, forward and reverse.
///
/// One per run, owned by the generic wrappers rather than by any backend:
/// [`ForwardRecord`] times each put, tracks the residency watermark and
/// takes the sealed payload size from the store's `finish`, then moves the
/// metrics into the [`BackwardJacobians`] reader, which times each fetch.
/// A drained reader therefore holds the forward and reverse picture.
///
/// `bytes_written` is the *payload* the store holds once sealed: both
/// tensors' compressed bytes for the compressed backend, Σ (nnz_G +
/// nnz_C)·8 for the raw one, zero for recompute. `store_time` /
/// `fetch_time` are the end-to-end per-step capture/fetch costs (they
/// *include* compression and decompression).
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Payload bytes the sealed store holds.
    pub bytes_written: u64,
    /// Peak storage footprint observed, in bytes.
    pub peak_resident_bytes: usize,
    /// Total time capturing steps during the forward pass.
    pub store_time: Duration,
    /// Total time fetching steps during the reverse pass.
    pub fetch_time: Duration,
}

/// The sealed `(G, C)` hand-off slot [`CompressedStore::capture`] fills at
/// `finish`.
pub type TensorSlot = Arc<Mutex<Option<(CompressedTensor, CompressedTensor)>>>;

/// How the per-step matrices are split into the two stored tensors.
///
/// `G` and `C` are gathered onto their own sub-patterns before storage so
/// the stored bytes are exactly the paper's `S_NZ` — no structural zeros
/// from the union pattern are stored or compressed.
#[derive(Debug, Clone)]
pub struct TensorLayout {
    /// The solver's union pattern.
    pub union: Arc<Pattern>,
    /// `G`'s own sub-pattern.
    pub g_pattern: Arc<Pattern>,
    /// `C`'s own sub-pattern.
    pub c_pattern: Arc<Pattern>,
    /// Union value index of each `G` sub-pattern non-zero.
    pub g_slots: Arc<Vec<u32>>,
    /// Union value index of each `C` sub-pattern non-zero.
    pub c_slots: Arc<Vec<u32>>,
}

impl TensorLayout {
    /// Extracts the layout from an elaborated system.
    pub fn of(system: &System) -> Self {
        Self {
            union: system.pattern.clone(),
            g_pattern: system.g_pattern.clone(),
            c_pattern: system.c_pattern.clone(),
            g_slots: system.g_slots.clone(),
            c_slots: system.c_slots.clone(),
        }
    }
}

/// One reverse-order step's matrices, or a request to recompute them.
#[derive(Debug, Clone, PartialEq)]
pub enum StepMatrices {
    /// The stored `G` and `C` value arrays in their *compact* sub-pattern
    /// form (scatter back with [`System::scatter_g`]/[`scatter_c`]).
    ///
    /// [`System::scatter_g`]: masc_circuit::System::scatter_g
    /// [`scatter_c`]: masc_circuit::System::scatter_c
    Stored {
        /// `G = ∂f/∂x` values over the `G` sub-pattern.
        g: Vec<f64>,
        /// `C = ∂q/∂x` values over the `C` sub-pattern.
        c: Vec<f64>,
    },
    /// Nothing stored — the caller must re-evaluate the devices at the
    /// recorded state (the Xyce-like baseline).
    Recompute,
}

/// A forward-pass Jacobian storage backend.
///
/// The transient sink feeds each accepted step's compact `G`/`C` value
/// arrays through [`put`](Self::put); [`finish`](Self::finish) seals the
/// store into a [`BackwardReader`] that replays the matrices newest-first.
/// A store keeps no telemetry: the generic wrapper ([`ForwardRecord`])
/// times every `put`, tracks the residency watermark through
/// [`resident_bytes`](Self::resident_bytes), and records the payload size
/// `finish` reports.
pub trait JacobianStore: std::fmt::Debug + Send {
    /// Whether the store wants the matrix values at all (the recompute
    /// backend skips the gather entirely).
    fn wants_matrices(&self) -> bool {
        true
    }

    /// Accepts step `step`'s compact `G`/`C` value arrays.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the step cannot be persisted.
    fn put(&mut self, step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError>;

    /// Current storage footprint in bytes (matrix data only).
    fn resident_bytes(&self) -> usize;

    /// Seals the store into a newest-first reader, with the payload bytes
    /// the sealed store holds (recorded as
    /// [`StoreMetrics::bytes_written`]).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if finalization I/O fails.
    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError>;
}

/// Reverse-order matrix supplier for one finished [`JacobianStore`].
///
/// [`fetch`](Self::fetch) is called with strictly decreasing step indices
/// (`N, N−1, …, 0`), matching the adjoint recursion's access order.
pub trait BackwardReader: std::fmt::Debug + Send {
    /// Produces step `step`'s matrices (or a recompute marker).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O or decode failure, and
    /// [`StoreError::TensorTruncated`] when the store holds fewer
    /// matrices than the recorded step count.
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError>;
}

/// Captures everything the reverse pass needs from the forward sweep.
#[derive(Debug)]
pub struct ForwardRecord {
    layout: TensorLayout,
    /// Per step: time.
    pub times: Vec<f64>,
    /// Per step: step size `h_n` (index 0 unused).
    pub hs: Vec<f64>,
    /// Per step: solution vector.
    pub states: Vec<Vec<f64>>,
    store: Box<dyn JacobianStore>,
    metrics: StoreMetrics,
    /// Gather buffers for the step's compact `G`/`C`, reused every step.
    g_compact: Vec<f64>,
    c_compact: Vec<f64>,
}

impl ForwardRecord {
    /// Creates a record for the given tensor layout and store strategy.
    ///
    /// # Errors
    ///
    /// None of the shipped stores fails to build; the `Result` is part of
    /// the public signature external callers match on.
    pub fn new(layout: TensorLayout, config: &StoreConfig) -> Result<Self, StoreError> {
        let store = config.build(&layout);
        Ok(Self::with_store(layout, store))
    }

    /// Creates a record over a custom [`JacobianStore`] backend — the
    /// extension point for stores this crate does not ship.
    pub fn with_store(layout: TensorLayout, store: Box<dyn JacobianStore>) -> Self {
        Self {
            layout,
            times: Vec::new(),
            hs: Vec::new(),
            states: Vec::new(),
            store,
            metrics: StoreMetrics::default(),
            g_compact: Vec::new(),
            c_compact: Vec::new(),
        }
    }

    /// Number of recorded steps (including the DC point).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Current storage footprint in bytes (matrix data only).
    pub fn storage_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Telemetry accumulated during the forward pass. The sealed payload
    /// (`bytes_written`) is recorded on the [`BackwardJacobians`] that
    /// [`into_parts`](Self::into_parts) returns.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Finalizes into a backward reader, discarding the run metadata
    /// (see [`ForwardRecord::into_parts`] to keep it).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the store cannot be sealed.
    pub fn into_reader(self) -> Result<BackwardJacobians, StoreError> {
        let (_, reader) = self.into_parts()?;
        Ok(reader)
    }

    /// Splits the record into the run metadata (times, steps, states) and
    /// the backward matrix reader.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the store cannot be sealed.
    pub fn into_parts(mut self) -> Result<(RunMeta, BackwardJacobians), StoreError> {
        let meta = RunMeta {
            times: std::mem::take(&mut self.times),
            hs: std::mem::take(&mut self.hs),
            states: std::mem::take(&mut self.states),
        };
        let steps = meta.times.len();
        let (reader, bytes_written) = self.store.finish()?;
        self.metrics.bytes_written = bytes_written;
        Ok((
            meta,
            BackwardJacobians {
                next_step: steps,
                reader,
                metrics: self.metrics,
            },
        ))
    }
}

/// The per-step scalars and states of a forward run.
#[derive(Debug, Clone, Default)]
pub struct RunMeta {
    /// Time points.
    pub times: Vec<f64>,
    /// Step sizes (`hs[0]` unused).
    pub hs: Vec<f64>,
    /// Solution vectors.
    pub states: Vec<Vec<f64>>,
}

impl JacobianSink for ForwardRecord {
    fn on_step(
        &mut self,
        step: usize,
        t: f64,
        h: f64,
        x: &[f64],
        g: &CsrMatrix,
        c: &CsrMatrix,
    ) -> Result<(), SinkError> {
        debug_assert_eq!(step, self.times.len(), "steps must arrive in order");
        self.times.push(t);
        self.hs.push(h);
        self.states.push(x.to_vec());
        let start = Instant::now();
        let result = if self.store.wants_matrices() {
            // Gather each tensor's real non-zeros off the union pattern.
            gather_into(&self.layout.g_slots, g.values(), &mut self.g_compact);
            gather_into(&self.layout.c_slots, c.values(), &mut self.c_compact);
            self.store.put(step, &self.g_compact, &self.c_compact)
        } else {
            self.store.put(step, &[], &[])
        };
        let elapsed = start.elapsed();
        result.map_err(SinkError::new)?;
        let m = &mut self.metrics;
        m.store_time += elapsed;
        m.peak_resident_bytes = m.peak_resident_bytes.max(self.store.resident_bytes());
        Ok(())
    }
}

/// Reverse-order reader over a [`ForwardRecord`]'s matrices; it owns the
/// run's telemetry from the seal on.
#[derive(Debug)]
pub struct BackwardJacobians {
    next_step: usize,
    reader: Box<dyn BackwardReader>,
    metrics: StoreMetrics,
}

impl BackwardJacobians {
    /// Creates a standalone recompute-mode reader (no stored matrices; the
    /// adjoint engine re-evaluates devices at every step). Used to run
    /// repeated reverse sweeps over one forward record, as a per-objective
    /// Xyce-like baseline does.
    pub fn recompute(steps: usize) -> Self {
        Self {
            next_step: steps,
            reader: Box::new(RecomputeStore),
            metrics: StoreMetrics::default(),
        }
    }

    /// Replays a sealed `(G, C)` tensor pair the caller kept (see
    /// [`CompressedStore::capture`]) through the same reader a
    /// [`CompressedStore`] seals into. A pair whose tensors disagree on
    /// length or step index surfaces as [`StoreError::TensorTruncated`] at
    /// the offending step.
    pub fn from_tensors(g: CompressedTensor, c: CompressedTensor) -> Self {
        Self {
            next_step: g.len(),
            reader: Box::new(backends::PairReader::new(g, c)),
            metrics: StoreMetrics::default(),
        }
    }

    /// Steps not yet fetched.
    pub fn remaining(&self) -> usize {
        self.next_step
    }

    /// Telemetry, forward pass included.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Fetches the matrices of the next step in reverse order
    /// (`N, N−1, …, 0`). Returns `None` when exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O or decompression failure.
    pub fn next_back(&mut self) -> Result<Option<(usize, StepMatrices)>, StoreError> {
        if self.next_step == 0 {
            return Ok(None);
        }
        self.next_step -= 1;
        let step = self.next_step;
        let start = Instant::now();
        let matrices = self.reader.fetch(step)?;
        self.metrics.fetch_time += start.elapsed();
        Ok(Some((step, matrices)))
    }
}
