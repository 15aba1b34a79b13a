//! The four standard [`JacobianStore`] backends (the fifth, hybrid, lives
//! in [`super::hybrid`]): recompute, raw in-memory, raw on-disk, and MASC
//! in-memory compression — the bars of the paper's Fig. 7.

use super::{
    check_bandwidth, throttle, BackwardReader, JacobianStore, RawSeries, StepMatrices, StoreError,
    StoreMetrics, TensorSlot,
};
use crate::lanes::lock_ignoring_poison;
use masc_compress::{BackwardDecompressor, CompressedTensor, MascConfig, TensorCompressor};
use masc_sparse::Pattern;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide counter so concurrent records in one directory never
/// collide on a spill filename.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// An owned spill file that removes itself from disk when dropped —
/// whichever side holds it last (a store abandoned on the error path, or
/// the backward reader after the reverse sweep) cleans up.
#[derive(Debug)]
pub(super) struct SpillFile {
    file: File,
    path: PathBuf,
}

/// Extracts the owning pid from a spill filename of the form
/// `masc-jacobians-{pid}-{seq}.bin`; any other name yields `None`.
fn spill_owner(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("masc-jacobians-")?;
    let rest = rest.strip_suffix(".bin")?;
    let (pid, seq) = rest.split_once('-')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse::<u64>().ok()
}

/// Removes spill files stranded in `dir` by processes that died before
/// their [`SpillFile`] drop could run (a SIGKILL mid-run leaks the file —
/// nothing else ever reclaims it, so spill directories grow without
/// bound). A file is reclaimed only when its owning pid is provably dead
/// (its `/proc/<pid>` entry is gone); files of this process, of any live
/// pid, or on systems without procfs are never touched, so a concurrent
/// run's spill is never at risk. Best-effort: I/O failures are ignored.
pub(super) fn scavenge_stale_spills(dir: &Path) {
    let procfs = Path::new("/proc");
    if !procfs.is_dir() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let own = u64::from(std::process::id());
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = spill_owner(name) else {
            continue;
        };
        if pid == own || procfs.join(pid.to_string()).exists() {
            continue;
        }
        let _ = std::fs::remove_file(entry.path());
    }
}

impl SpillFile {
    /// Creates a uniquely named spill file in `dir`
    /// (`masc-jacobians-{pid}-{seq}.bin`), scavenging any spill files
    /// stranded there by dead processes first.
    pub(super) fn create_in(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        scavenge_stale_spills(dir);
        let seq = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("masc-jacobians-{}-{seq}.bin", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok(Self { file, path })
    }

    pub(super) fn file(&mut self) -> &mut File {
        &mut self.file
    }

    /// A second writable handle onto the same file (shares the cursor; the
    /// reader always seeks absolutely, so this is safe).
    pub(super) fn clone_handle(&self) -> Result<File, StoreError> {
        Ok(self.file.try_clone()?)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Encodes `values` as little-endian f64 bytes.
fn to_le_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes little-endian f64 bytes (whole 8-byte words only).
fn from_le_bytes(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|b| {
            let mut word = [0u8; 8];
            word.copy_from_slice(b);
            f64::from_le_bytes(word)
        })
        .collect()
}

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
#[derive(Debug)]
pub struct RawStore {
    g: Vec<Vec<f64>>,
    c: Vec<Vec<f64>>,
    bytes: usize,
    metrics: StoreMetrics,
}

impl RawStore {
    /// Creates a raw store; nnz hints pre-size nothing but document shape.
    pub fn new(_g_nnz: usize, _c_nnz: usize) -> Self {
        Self {
            g: Vec::new(),
            c: Vec::new(),
            bytes: 0,
            metrics: StoreMetrics::default(),
        }
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
// Raw on-disk
// ---------------------------------------------------------------------------

/// Number of steps the backward reader pulls off disk per read: one seek +
/// one `read` per 16 steps instead of per step.
const CHUNK_STEPS: usize = 16;

/// Streams raw value arrays through a spill file, optionally throttled to
/// a simulated bandwidth (the page cache on a CI box would otherwise hide
/// the I/O wall the paper measures against a ~0.5 GB/s SSD).
pub struct DiskStore {
    spill: SpillFile,
    writer: Box<dyn Write + Send>,
    g_nnz: usize,
    c_nnz: usize,
    steps: usize,
    bandwidth: Option<f64>,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("spill", &self.spill)
            .field("steps", &self.steps)
            .field("bandwidth", &self.bandwidth)
            .finish_non_exhaustive()
    }
}

impl DiskStore {
    /// Creates the spill file in `dir` and an empty store over it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if `bandwidth` is not a positive finite
    /// number or the spill file cannot be created.
    pub fn create(
        dir: &Path,
        bandwidth: Option<f64>,
        g_nnz: usize,
        c_nnz: usize,
    ) -> Result<Self, StoreError> {
        check_bandwidth(bandwidth)?;
        let spill = SpillFile::create_in(dir)?;
        let writer: Box<dyn Write + Send> = Box::new(spill.clone_handle()?);
        Ok(Self {
            spill,
            writer,
            g_nnz,
            c_nnz,
            steps: 0,
            bandwidth,
            metrics: StoreMetrics::default(),
        })
    }

    /// Replaces the store's writer with a wrapped version of itself —
    /// the fault-injection hook (see [`FailingWriter`]).
    pub fn wrap_writer(
        &mut self,
        wrap: impl FnOnce(Box<dyn Write + Send>) -> Box<dyn Write + Send>,
    ) {
        let inner = std::mem::replace(&mut self.writer, Box::new(std::io::sink()));
        self.writer = wrap(inner);
    }
}

impl JacobianStore for DiskStore {
    fn put(&mut self, _step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        let payload = {
            let mut bytes = to_le_bytes(g);
            bytes.extend_from_slice(&to_le_bytes(c));
            bytes
        };
        let start = Instant::now();
        self.writer.write_all(&payload)?;
        let io = start.elapsed();
        self.metrics.io_time += io;
        self.metrics.throttle_wait += throttle(payload.len(), self.bandwidth, io);
        self.metrics.bytes_written += payload.len() as u64;
        self.steps += 1;
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        // All bytes live on disk; nothing raw is resident in memory.
        self.metrics.bytes_written as usize
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }

    fn finish(mut self: Box<Self>) -> Result<Box<dyn BackwardReader>, StoreError> {
        self.writer.flush()?;
        Ok(Box::new(DiskReader {
            spill: Some(self.spill),
            g_nnz: self.g_nnz,
            c_nnz: self.c_nnz,
            steps: self.steps,
            bandwidth: self.bandwidth,
            chunk: Vec::new(),
            chunk_lo: 0,
            chunk_hi: 0,
            metrics: self.metrics,
        }))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[derive(Debug)]
struct DiskReader {
    spill: Option<SpillFile>,
    g_nnz: usize,
    c_nnz: usize,
    steps: usize,
    bandwidth: Option<f64>,
    /// Raw bytes of steps `chunk_lo..chunk_hi`, read with one seek+read.
    chunk: Vec<u8>,
    chunk_lo: usize,
    chunk_hi: usize,
    metrics: StoreMetrics,
}

impl DiskReader {
    fn step_len(&self) -> usize {
        (self.g_nnz + self.c_nnz) * 8
    }

    /// Loads the chunk of up to [`CHUNK_STEPS`] steps ending at `step`
    /// (inclusive) — the steps the reverse sweep will ask for next.
    fn load_chunk(&mut self, step: usize) -> Result<(), StoreError> {
        let step_len = self.step_len();
        let lo = (step + 1).saturating_sub(CHUNK_STEPS);
        let hi = step + 1;
        let len = (hi - lo).min(CHUNK_STEPS) * step_len;
        let spill = self
            .spill
            .as_mut()
            .ok_or_else(|| StoreError::Io(std::io::Error::other("spill file already removed")))?;
        let mut buf = vec![0u8; len];
        let start = Instant::now();
        let file = spill.file();
        file.seek(SeekFrom::Start((lo * step_len) as u64))?;
        file.read_exact(&mut buf)?;
        let io = start.elapsed();
        self.metrics.io_time += io;
        // The throttle target is linear in bytes, so chunked reads keep the
        // simulated-bandwidth accounting identical to per-step reads.
        self.metrics.throttle_wait += throttle(len, self.bandwidth, io);
        self.metrics.bytes_read += len as u64;
        self.chunk = buf;
        self.chunk_lo = lo;
        self.chunk_hi = hi;
        Ok(())
    }
}

impl BackwardReader for DiskReader {
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError> {
        if step >= self.steps {
            return Err(StoreError::TensorTruncated { step });
        }
        if step < self.chunk_lo || step >= self.chunk_hi {
            self.load_chunk(step)?;
        }
        let step_len = self.step_len();
        let offset = (step - self.chunk_lo) * step_len;
        let record = self
            .chunk
            .get(offset..offset + step_len)
            .ok_or(StoreError::TensorTruncated { step })?;
        let (g_bytes, c_bytes) = record.split_at(self.g_nnz * 8);
        Ok(StepMatrices::Stored {
            g: from_le_bytes(g_bytes),
            c: from_le_bytes(c_bytes),
        })
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }

    fn cleanup(&mut self) {
        self.spill = None;
        self.chunk = Vec::new();
    }
}

/// A [`Write`] wrapper that fails with an I/O error once `allow_bytes`
/// bytes have passed through — fault injection for the disk store's error
/// path (install with [`DiskStore::wrap_writer`]).
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W> FailingWriter<W> {
    /// Wraps `inner`, allowing `allow_bytes` bytes before failing.
    pub fn new(inner: W, allow_bytes: usize) -> Self {
        Self {
            inner,
            remaining: allow_bytes,
        }
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.len() > self.remaining {
            return Err(std::io::Error::other("injected disk-full fault"));
        }
        self.remaining -= buf.len();
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// MASC compressed, in memory
// ---------------------------------------------------------------------------

/// Compressed bytes of the blocks `tc` sealed since `*accounted`, which is
/// advanced past them.
pub(super) fn newly_sealed_bytes(tc: &TensorCompressor, accounted: &mut usize) -> u64 {
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
}

impl PairReader {
    pub(super) fn new(g: CompressedTensor, c: CompressedTensor, metrics: StoreMetrics) -> Self {
        Self {
            g: g.into_backward(),
            c: c.into_backward(),
            metrics,
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
        Ok(StepMatrices::Stored { g, c })
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut StoreMetrics {
        &mut self.metrics
    }
}
