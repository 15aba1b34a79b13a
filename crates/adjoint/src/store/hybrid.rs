//! The hybrid compressed+spill backend: MASC-compressed blocks for the
//! most recent `resident_blocks` steps stay in memory; older blocks spill
//! to disk *as compressed bytes*, so the paper's compression ratio
//! multiplies the effective disk bandwidth (a ~20× ratio turns a
//! 0.5 GB/s SSD into an effective ~10 GB/s tensor store).
//!
//! Spilling is oldest-first, which matches both sides of the access
//! pattern: the forward pass only ever appends, and the reverse pass
//! consumes newest-first, so the resident window holds exactly the blocks
//! the reverse sweep needs *first* and the disk holds the blocks it needs
//! *last* — reads overlap the early reverse-pass compute.

use super::backends::{newly_sealed_bytes, SpillFile};
use super::{
    check_bandwidth, throttle, BackwardReader, JacobianStore, StepMatrices, StoreError,
    StoreMetrics,
};
use masc_compress::{BackwardDecompressor, MascConfig, TensorCompressor};
use masc_sparse::Pattern;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Compressed in memory for the most recent `resident_blocks` steps per
/// tensor; older compressed blocks spill to a uniquely named disk file.
#[derive(Debug)]
pub struct HybridStore {
    g: TensorCompressor,
    c: TensorCompressor,
    resident_blocks: usize,
    spill: SpillFile,
    bandwidth: Option<f64>,
    /// Per spilled block, oldest first: (file offset, compressed length).
    g_spilled: Vec<(u64, u32)>,
    c_spilled: Vec<(u64, u32)>,
    write_pos: u64,
    /// Compressed bytes currently on disk.
    disk_bytes: usize,
    /// Sealed blocks already counted into `metrics.bytes_written`.
    g_accounted: usize,
    c_accounted: usize,
    metrics: StoreMetrics,
}

impl HybridStore {
    /// Creates the spill file in `dir` and an empty hybrid store over it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if `bandwidth` is not a positive finite
    /// number or the spill file cannot be created.
    pub fn create(
        g_pattern: Arc<Pattern>,
        c_pattern: Arc<Pattern>,
        config: MascConfig,
        dir: &Path,
        bandwidth: Option<f64>,
        resident_blocks: usize,
    ) -> Result<Self, StoreError> {
        check_bandwidth(bandwidth)?;
        Ok(Self {
            g: TensorCompressor::new(g_pattern, config.clone()),
            c: TensorCompressor::new(c_pattern, config),
            resident_blocks,
            spill: SpillFile::create_in(dir)?,
            bandwidth,
            g_spilled: Vec::new(),
            c_spilled: Vec::new(),
            write_pos: 0,
            disk_bytes: 0,
            g_accounted: 0,
            c_accounted: 0,
            metrics: StoreMetrics::default(),
        })
    }

    /// Counts freshly sealed compressed blocks into `bytes_written`
    /// (before any of them spill: spilled blocks leave an empty
    /// placeholder behind).
    fn account_sealed(&mut self) {
        self.metrics.bytes_written += newly_sealed_bytes(&self.g, &mut self.g_accounted)
            + newly_sealed_bytes(&self.c, &mut self.c_accounted);
        self.metrics.compress_time = self.g.compress_time() + self.c.compress_time();
    }

    /// Spills sealed blocks beyond the residency window, oldest first.
    fn spill_excess(&mut self) -> Result<(), StoreError> {
        loop {
            let g_excess = self.g.sealed_len() - self.g_spilled.len() > self.resident_blocks;
            let c_excess = self.c.sealed_len() - self.c_spilled.len() > self.resident_blocks;
            if !g_excess && !c_excess {
                return Ok(());
            }
            if g_excess {
                let t = self.g_spilled.len();
                let block = self
                    .g
                    .take_block(t)
                    .ok_or(StoreError::TensorTruncated { step: t })?;
                let entry = self.spill_block(&block)?;
                self.g_spilled.push(entry);
            }
            if c_excess {
                let t = self.c_spilled.len();
                let block = self
                    .c
                    .take_block(t)
                    .ok_or(StoreError::TensorTruncated { step: t })?;
                let entry = self.spill_block(&block)?;
                self.c_spilled.push(entry);
            }
        }
    }

    /// Appends one compressed block to the spill file, with throttled-I/O
    /// accounting, returning its (offset, length) table entry.
    fn spill_block(&mut self, block: &[u8]) -> Result<(u64, u32), StoreError> {
        let offset = self.write_pos;
        let start = Instant::now();
        let file = self.spill.file();
        file.seek(SeekFrom::Start(offset))?;
        std::io::Write::write_all(file, block)?;
        let io = start.elapsed();
        self.metrics.io_time += io;
        self.metrics.throttle_wait += throttle(block.len(), self.bandwidth, io);
        self.write_pos += block.len() as u64;
        self.disk_bytes += block.len();
        Ok((offset, block.len() as u32))
    }
}

impl JacobianStore for HybridStore {
    fn put(&mut self, _step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        self.g.push(g);
        self.c.push(c);
        self.account_sealed();
        self.spill_excess()
    }

    fn resident_bytes(&self) -> usize {
        // All tiers: resident compressed blocks + raw pending matrices in
        // memory, plus compressed bytes on disk.
        self.g.memory_bytes() + self.c.memory_bytes() + self.disk_bytes
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
        self.spill_excess()?;
        let mut this = *self;
        let g = TierTensor::assemble(&mut this.g, this.g_spilled);
        let c = TierTensor::assemble(&mut this.c, this.c_spilled);
        Ok(Box::new(HybridReader {
            spill: Some(this.spill),
            bandwidth: this.bandwidth,
            g,
            c,
            metrics: this.metrics,
        }))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One tensor's two-tier block set plus its chained decoder.
#[derive(Debug)]
struct TierTensor {
    /// Steps `0..spilled.len()` live on disk, oldest first.
    spilled: Vec<(u64, u32)>,
    /// Step `spilled.len() + i` lives in memory at `mem[i]`.
    mem: Vec<Option<Vec<u8>>>,
    steps: usize,
    decoder: BackwardDecompressor,
    /// Injected-defect state: the previously read disk block, replayed in
    /// place of the next one while `Defect::StaleSpillBlock` is active.
    #[cfg(feature = "mutation-hooks")]
    last_disk_block: Option<Vec<u8>>,
}

impl TierTensor {
    /// Moves the still-resident sealed blocks out of the compressor and
    /// pairs them with the spill table and a chained decoder.
    fn assemble(tc: &mut TensorCompressor, spilled: Vec<(u64, u32)>) -> Self {
        let steps = tc.sealed_len();
        let mem: Vec<Option<Vec<u8>>> = (spilled.len()..steps).map(|t| tc.take_block(t)).collect();
        let decoder = BackwardDecompressor::chained(tc.pattern(), tc.maps().clone(), tc.config());
        Self {
            spilled,
            mem,
            steps,
            decoder,
            #[cfg(feature = "mutation-hooks")]
            last_disk_block: None,
        }
    }

    /// Produces step `step`'s compressed bytes from whichever tier holds
    /// them. Memory blocks are surrendered (each is needed exactly once).
    fn block_bytes(
        &mut self,
        step: usize,
        spill: &mut Option<SpillFile>,
        bandwidth: Option<f64>,
        metrics: &mut StoreMetrics,
    ) -> Result<Vec<u8>, StoreError> {
        if step >= self.steps {
            return Err(StoreError::TensorTruncated { step });
        }
        if step >= self.spilled.len() {
            let i = step - self.spilled.len();
            return self
                .mem
                .get_mut(i)
                .and_then(Option::take)
                .ok_or(StoreError::TensorTruncated { step });
        }
        let (offset, len) = self.spilled[step];
        let spill = spill
            .as_mut()
            .ok_or_else(|| StoreError::Io(std::io::Error::other("spill file already removed")))?;
        let mut buf = vec![0u8; len as usize];
        let start = Instant::now();
        let file = spill.file();
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut buf)?;
        let io = start.elapsed();
        metrics.io_time += io;
        metrics.throttle_wait += throttle(buf.len(), bandwidth, io);
        metrics.bytes_read += buf.len() as u64;
        #[cfg(feature = "mutation-hooks")]
        if crate::mutation::active(crate::mutation::Defect::StaleSpillBlock) {
            if let Some(stale) = self.last_disk_block.replace(buf.clone()) {
                return Ok(stale);
            }
        }
        Ok(buf)
    }
}

#[derive(Debug)]
struct HybridReader {
    spill: Option<SpillFile>,
    bandwidth: Option<f64>,
    g: TierTensor,
    c: TierTensor,
    metrics: StoreMetrics,
}

impl BackwardReader for HybridReader {
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError> {
        let g_bytes =
            self.g
                .block_bytes(step, &mut self.spill, self.bandwidth, &mut self.metrics)?;
        let c_bytes =
            self.c
                .block_bytes(step, &mut self.spill, self.bandwidth, &mut self.metrics)?;
        let g = self.g.decoder.decode_block(&g_bytes)?;
        let c = self.c.decoder.decode_block(&c_bytes)?;
        self.metrics.decompress_time =
            self.g.decoder.decompress_time() + self.c.decoder.decompress_time();
        Ok(StepMatrices::Stored { g, c })
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }

    fn cleanup(&mut self) {
        self.spill = None;
    }
}
