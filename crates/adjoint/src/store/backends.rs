//! The three standard [`JacobianStore`] backends: recompute, raw
//! in-memory, and MASC in-memory compression. (Fig. 7's raw-disk bar is a
//! custom store inside the `masc-bench` reproducer.)

use super::{
    BackwardReader, JacobianStore, RawSeries, StepMatrices, StoreError, StoreMetrics, TensorSlot,
};
use crate::lanes::lock_ignoring_poison;
use masc_compress::{BackwardDecompressor, CompressedTensor, MascConfig, TensorCompressor};
use masc_sparse::Pattern;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Recompute
// ---------------------------------------------------------------------------

/// Stores nothing; every reverse-pass step re-evaluates the devices
/// (the Xyce-like baseline — `T_Jac` of paper Table 1).
#[derive(Debug, Default)]
pub struct RecomputeStore {
    metrics: StoreMetrics,
}

impl RecomputeStore {
    /// Creates the (stateless) recompute store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl JacobianStore for RecomputeStore {
    fn wants_matrices(&self) -> bool {
        false
    }

    fn put(&mut self, _step: usize, _g: &[f64], _c: &[f64]) -> Result<(), StoreError> {
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        0
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }

    fn finish(self: Box<Self>) -> Result<Box<dyn BackwardReader>, StoreError> {
        Ok(Box::new(RecomputeReader {
            metrics: self.metrics,
        }))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[derive(Debug, Default)]
struct RecomputeReader {
    metrics: StoreMetrics,
}

/// A standalone recompute-mode reader (no stored matrices).
pub(super) fn recompute_reader() -> Box<dyn BackwardReader> {
    Box::new(RecomputeReader::default())
}

impl BackwardReader for RecomputeReader {
    fn fetch(&mut self, _step: usize) -> Result<StepMatrices, StoreError> {
        Ok(StepMatrices::Recompute)
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }
}

// ---------------------------------------------------------------------------
// Raw in-memory
// ---------------------------------------------------------------------------

/// Keeps every step's raw value arrays in memory (the memory wall of
/// paper Fig. 1).
#[derive(Debug, Default)]
pub struct RawStore {
    g: Vec<Vec<f64>>,
    c: Vec<Vec<f64>>,
    bytes: usize,
    metrics: StoreMetrics,
}

impl RawStore {
    /// Creates an empty raw store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stored `G` and `C` histories in forward order (the direct
    /// method consumes these).
    pub fn series(&self) -> RawSeries<'_> {
        (&self.g, &self.c)
    }
}

impl JacobianStore for RawStore {
    fn put(&mut self, _step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        let bytes = (g.len() + c.len()) * 8;
        self.g.push(g.to_vec());
        self.c.push(c.to_vec());
        self.bytes += bytes;
        self.metrics.bytes_written += bytes as u64;
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.bytes
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }

    fn finish(self: Box<Self>) -> Result<Box<dyn BackwardReader>, StoreError> {
        Ok(Box::new(RawReader {
            g: self.g,
            c: self.c,
            metrics: self.metrics,
        }))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[derive(Debug)]
struct RawReader {
    g: Vec<Vec<f64>>,
    c: Vec<Vec<f64>>,
    metrics: StoreMetrics,
}

impl BackwardReader for RawReader {
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError> {
        // Steps arrive strictly decreasing, so popping frees each step's
        // memory as soon as it is consumed.
        match (self.g.pop(), self.c.pop()) {
            (Some(g), Some(c)) if self.g.len() == step => Ok(StepMatrices::Stored { g, c }),
            _ => Err(StoreError::TensorTruncated { step }),
        }
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }
}

// ---------------------------------------------------------------------------
// MASC compressed, in memory
// ---------------------------------------------------------------------------

/// Compressed bytes of the blocks `tc` sealed since `*accounted`, which is
/// advanced past them.
fn newly_sealed_bytes(tc: &TensorCompressor, accounted: &mut usize) -> u64 {
    let mut bytes = 0;
    while *accounted < tc.sealed_len() {
        bytes += tc.compressed_block(*accounted).map_or(0, <[u8]>::len) as u64;
        *accounted += 1;
    }
    bytes
}

/// MASC in-memory compression: two streaming [`TensorCompressor`]s (one
/// per tensor) sharing the paper's one-step-late compression schedule.
#[derive(Debug)]
pub struct CompressedStore {
    g: TensorCompressor,
    c: TensorCompressor,
    /// Sealed blocks already counted into `metrics.bytes_written`.
    g_accounted: usize,
    c_accounted: usize,
    metrics: StoreMetrics,
    slot: Option<TensorSlot>,
}

impl CompressedStore {
    /// Creates a compressed store over the two tensor sub-patterns.
    pub fn new(g_pattern: Arc<Pattern>, c_pattern: Arc<Pattern>, config: MascConfig) -> Self {
        Self {
            g: TensorCompressor::new(g_pattern, config.clone()),
            c: TensorCompressor::new(c_pattern, config),
            g_accounted: 0,
            c_accounted: 0,
            metrics: StoreMetrics::default(),
            slot: None,
        }
    }

    /// Makes `finish` also deposit a clone of the sealed tensor pair into
    /// the returned slot, so the caller keeps the compressed artifact after
    /// the reverse pass consumed its decoder (`masc-serve` caches the pair,
    /// `masc-window` replays one pair per window across iterations).
    pub fn capture(&mut self) -> TensorSlot {
        let slot = TensorSlot::default();
        self.slot = Some(Arc::clone(&slot));
        slot
    }

    /// Counts freshly sealed compressed blocks into `bytes_written`.
    fn account_sealed(&mut self) {
        self.metrics.bytes_written += newly_sealed_bytes(&self.g, &mut self.g_accounted)
            + newly_sealed_bytes(&self.c, &mut self.c_accounted);
        self.metrics.compress_time = self.g.compress_time() + self.c.compress_time();
    }
}

impl JacobianStore for CompressedStore {
    fn put(&mut self, _step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        self.g.push(g);
        self.c.push(c);
        self.account_sealed();
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.g.memory_bytes() + self.c.memory_bytes()
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }

    fn finish(mut self: Box<Self>) -> Result<Box<dyn BackwardReader>, StoreError> {
        self.g.seal();
        self.c.seal();
        self.account_sealed();
        let this = *self;
        let (g, c) = (this.g.finish(), this.c.finish());
        if let Some(slot) = &this.slot {
            *lock_ignoring_poison(slot) = Some((g.clone(), c.clone()));
        }
        Ok(Box::new(PairReader::new(g, c, this.metrics)))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The one newest-first replay of a sealed `(G, C)` tensor pair: both
/// tensors decode in lockstep and must agree on every step index.
#[derive(Debug)]
pub(super) struct PairReader {
    g: BackwardDecompressor,
    c: BackwardDecompressor,
    metrics: StoreMetrics,
    /// Injected-defect state: the previous fetch's `G`, replayed in place
    /// of the current one while `Defect::StaleReplayBlock` is armed.
    #[cfg(feature = "mutation-hooks")]
    last_g: Option<Vec<f64>>,
}

impl PairReader {
    pub(super) fn new(g: CompressedTensor, c: CompressedTensor, metrics: StoreMetrics) -> Self {
        Self {
            g: g.into_backward(),
            c: c.into_backward(),
            metrics,
            #[cfg(feature = "mutation-hooks")]
            last_g: None,
        }
    }
}

impl BackwardReader for PairReader {
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError> {
        let (gs, g) = self
            .g
            .next_matrix()?
            .ok_or(StoreError::TensorTruncated { step })?;
        let (cs, c) = self
            .c
            .next_matrix()?
            .ok_or(StoreError::TensorTruncated { step })?;
        if gs != step || cs != step {
            return Err(StoreError::TensorTruncated { step });
        }
        self.metrics.decompress_time = self.g.decompress_time() + self.c.decompress_time();
        #[cfg(feature = "mutation-hooks")]
        let g = crate::mutation::stale_replay(&mut self.last_g, g);
        Ok(StepMatrices::Stored { g, c })
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }
}
