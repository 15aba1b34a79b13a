//! The three standard [`JacobianStore`] backends: recompute, raw
//! in-memory, and MASC in-memory compression. (Fig. 7's raw-disk bar is a
//! custom store inside the `masc-bench` reproducer.)

use super::{BackwardReader, JacobianStore, StepMatrices, StoreError, TensorSlot};
use crate::lanes::lock_ignoring_poison;
use masc_compress::{BackwardDecompressor, CompressedTensor, MascConfig, TensorCompressor};
use masc_sparse::Pattern;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Recompute
// ---------------------------------------------------------------------------

/// Stores nothing; every reverse-pass step re-evaluates the devices
/// (the Xyce-like baseline — `T_Jac` of paper Table 1). The store is its
/// own reader.
#[derive(Debug, Default)]
pub struct RecomputeStore;

impl RecomputeStore {
    /// Creates the (stateless) recompute store.
    pub fn new() -> Self {
        Self
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

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        Ok((self, 0))
    }
}

impl BackwardReader for RecomputeStore {
    fn fetch(&mut self, _step: usize) -> Result<StepMatrices, StoreError> {
        Ok(StepMatrices::Recompute)
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
}

impl RawStore {
    /// Creates an empty raw store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl JacobianStore for RawStore {
    fn put(&mut self, _step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        self.g.push(g.to_vec());
        self.c.push(c.to_vec());
        self.bytes += (g.len() + c.len()) * 8;
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.bytes
    }

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        let bytes = self.bytes as u64;
        Ok((self, bytes))
    }
}

impl BackwardReader for RawStore {
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError> {
        // Steps arrive strictly decreasing, so popping frees each step's
        // memory as soon as it is consumed.
        match (self.g.pop(), self.c.pop()) {
            (Some(g), Some(c)) if self.g.len() == step => Ok(StepMatrices::Stored { g, c }),
            _ => Err(StoreError::TensorTruncated { step }),
        }
    }
}

// ---------------------------------------------------------------------------
// MASC compressed, in memory
// ---------------------------------------------------------------------------

/// MASC in-memory compression: two streaming [`TensorCompressor`]s (one
/// per tensor) sharing the paper's one-step-late compression schedule.
#[derive(Debug)]
pub struct CompressedStore {
    g: TensorCompressor,
    c: TensorCompressor,
    slot: Option<TensorSlot>,
}

impl CompressedStore {
    /// Creates a compressed store over the two tensor sub-patterns.
    pub fn new(g_pattern: Arc<Pattern>, c_pattern: Arc<Pattern>, config: MascConfig) -> Self {
        Self {
            g: TensorCompressor::new(g_pattern, config.clone()),
            c: TensorCompressor::new(c_pattern, config),
            slot: None,
        }
    }

    /// Makes `finish` also deposit a clone of the sealed tensor pair into
    /// the returned slot, so the caller keeps the compressed artifact after
    /// the reverse pass consumed its decoder (`masc-serve` caches the pair).
    pub fn capture(&mut self) -> TensorSlot {
        let slot = TensorSlot::default();
        self.slot = Some(Arc::clone(&slot));
        slot
    }
}

impl JacobianStore for CompressedStore {
    fn put(&mut self, _step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        self.g.push(g);
        self.c.push(c);
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.g.memory_bytes() + self.c.memory_bytes()
    }

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        let (g, c) = (self.g.finish(), self.c.finish());
        let bytes = (g.compressed_bytes() + c.compressed_bytes()) as u64;
        if let Some(slot) = &self.slot {
            *lock_ignoring_poison(slot) = Some((g.clone(), c.clone()));
        }
        Ok((Box::new(PairReader::new(g, c)), bytes))
    }
}

/// The one newest-first replay of a sealed `(G, C)` tensor pair: both
/// tensors decode in lockstep and must agree on every step index.
#[derive(Debug)]
pub(super) struct PairReader {
    g: BackwardDecompressor,
    c: BackwardDecompressor,
    /// Injected-defect state: the previous fetch's `G`, replayed in place
    /// of the current one while `Defect::StaleReplayBlock` is armed.
    #[cfg(feature = "mutation-hooks")]
    last_g: Option<Vec<f64>>,
}

impl PairReader {
    pub(super) fn new(g: CompressedTensor, c: CompressedTensor) -> Self {
        Self {
            g: g.into_backward(),
            c: c.into_backward(),
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
        #[cfg(feature = "mutation-hooks")]
        let g = crate::mutation::stale_replay(&mut self.last_g, g);
        Ok(StepMatrices::Stored { g, c })
    }
}
