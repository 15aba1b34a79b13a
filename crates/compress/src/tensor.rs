//! The Jacobian-tensor store (paper Algorithm 2).
//!
//! During forward transient integration, [`TensorCompressor::push`]
//! receives each step's value array. It keeps only the newest matrix raw
//! ("store `M_n`") and compresses its predecessor against it ("compress
//! `M_{n−1}` using `M_n`"). [`CompressedTensor::into_backward`] replays the
//! matrices newest-first — exactly the order the adjoint reverse pass
//! consumes them — freeing each compressed block as it is expanded.

use crate::config::MascConfig;
use crate::matrix::{compress_matrix, compress_matrix_seeded, decode_matrix};
use crate::predictor::StampMaps;
use crate::stats::CompressStats;
use crate::CompressError;
use masc_bitio::cursor::{self, ByteCursor};
use masc_bitio::varint;
use masc_sparse::Pattern;
use std::sync::Arc;

/// Streaming compressor for a time series of same-pattern matrices.
#[derive(Debug, Clone)]
pub struct TensorCompressor {
    pattern: Arc<Pattern>,
    maps: Arc<StampMaps>,
    config: MascConfig,
    /// Newest matrix, kept raw until its successor arrives.
    pending: Option<Vec<f64>>,
    /// `blocks[t]` = `M_t` compressed against `M_{t+1}`.
    blocks: Vec<Vec<u8>>,
    stats: CompressStats,
}

impl TensorCompressor {
    /// Creates a compressor for matrices over `pattern`.
    pub fn new(pattern: Arc<Pattern>, config: MascConfig) -> Self {
        let maps = Arc::new(StampMaps::new(&pattern));
        Self {
            pattern,
            maps,
            config,
            pending: None,
            blocks: Vec::new(),
            stats: CompressStats::new(),
        }
    }

    /// Creates a compressor reusing precomputed stamp maps (two tensors of
    /// one run — `G` and `C` — share them).
    pub fn with_maps(pattern: Arc<Pattern>, maps: Arc<StampMaps>, config: MascConfig) -> Self {
        Self {
            pattern,
            maps,
            config,
            pending: None,
            blocks: Vec::new(),
            stats: CompressStats::new(),
        }
    }

    /// The shared pattern.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// The shared stamp maps.
    pub fn maps(&self) -> &Arc<StampMaps> {
        &self.maps
    }

    /// Accepts the matrix of the next timestep (paper Algorithm 2 line 6:
    /// "compress `M_{n−1}` using `M_n`; store `M_n`").
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the pattern's nnz.
    pub fn push(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.pattern.nnz(),
            "value count != pattern nnz"
        );
        match &mut self.pending {
            Some(prev) => {
                let (bytes, stats) = compress_matrix(prev, values, &self.maps, &self.config);
                self.stats.merge(&stats);
                self.blocks.push(bytes);
                // The newest matrix takes over the previous one's buffer.
                prev.copy_from_slice(values);
            }
            None => self.pending = Some(values.to_vec()),
        }
    }

    /// Number of matrices pushed so far.
    pub fn len(&self) -> usize {
        self.blocks.len() + usize::from(self.pending.is_some())
    }

    /// Whether no matrices have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current in-memory footprint: compressed blocks + the one raw
    /// pending matrix (what Fig. 1's "with compression" line would show).
    pub fn memory_bytes(&self) -> usize {
        let blocks: usize = self.blocks.iter().map(Vec::len).sum();
        blocks + self.pending.as_ref().map_or(0, |p| p.len() * 8)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CompressStats {
        &self.stats
    }

    /// Seals the trailing pending matrix by compressing it against a zero
    /// reference, so every pushed matrix is counted in the sealed blocks.
    /// No-op when nothing is pending.
    pub fn seal(&mut self) {
        if let Some(last) = self.pending.take() {
            let (bytes, stats) = compress_matrix_seeded(&last, &self.maps, &self.config);
            self.stats.merge(&stats);
            self.blocks.push(bytes);
        }
    }

    /// Finalizes the tensor. The trailing matrix is compressed against a
    /// zero reference so the whole tensor is compressed at rest.
    pub fn finish(mut self) -> CompressedTensor {
        self.seal();
        CompressedTensor {
            pattern: self.pattern,
            maps: self.maps,
            chunk_size: self.config.chunk_size,
            blocks: self.blocks,
            stats: self.stats,
        }
    }
}

/// A fully-compressed matrix time series.
#[derive(Debug, Clone)]
pub struct CompressedTensor {
    pattern: Arc<Pattern>,
    maps: Arc<StampMaps>,
    /// The encoder's `MascConfig::chunk_size`, echoed by `to_bytes`.
    chunk_size: usize,
    /// `blocks[t]` compressed against `blocks[t+1]`'s values (the final
    /// block against zeros).
    blocks: Vec<Vec<u8>>,
    stats: CompressStats,
}

impl CompressedTensor {
    /// Number of stored matrices.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total compressed payload bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Uncompressed size of the stored values (`S_NZ` of paper Table 2).
    pub fn raw_bytes(&self) -> usize {
        self.len() * self.pattern.nnz() * 8
    }

    /// Compression ratio over the non-zero values.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            return 0.0;
        }
        self.raw_bytes() as f64 / self.compressed_bytes() as f64
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CompressStats {
        &self.stats
    }

    /// The shared pattern.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// The compressed bytes of block `t`, if it exists.
    pub fn block(&self, t: usize) -> Option<&[u8]> {
        self.blocks.get(t).map(Vec::as_slice)
    }

    /// Decompresses every matrix, oldest first (testing/inspection; peak
    /// memory is the whole tensor). One newest-first chain from the final
    /// block, which was sealed against zeros.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] if any block fails to decode.
    #[expect(clippy::disallowed_methods, reason = "sized by the held block list")]
    pub fn decompress_all(&self) -> Result<Vec<Vec<f64>>, CompressError> {
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(self.blocks.len());
        for block in self.blocks.iter().rev() {
            let values = decode_matrix(block, out.last().map(Vec::as_slice), &self.maps)?;
            out.push(values);
        }
        out.reverse();
        Ok(out)
    }

    /// Consumes the tensor into a newest-first decompression stream — the
    /// adjoint pass's access order ("decompress `M_{n−1}` using `M_n`; free
    /// memory for `M_n`").
    pub fn into_backward(self) -> BackwardDecompressor {
        BackwardDecompressor {
            maps: self.maps,
            blocks: self.blocks,
            reference: None,
        }
    }
}

/// Newest-first decompression stream over a [`CompressedTensor`].
///
/// Each call to [`next_matrix`](Self::next_matrix) frees the block it
/// expanded, so peak residency is one raw matrix plus the not-yet-consumed
/// compressed blocks.
#[derive(Debug)]
pub struct BackwardDecompressor {
    maps: Arc<StampMaps>,
    blocks: Vec<Vec<u8>>,
    /// The previously yielded (newer) matrix — the reference for the next.
    reference: Option<Vec<f64>>,
}

impl BackwardDecompressor {
    /// Steps remaining.
    pub fn remaining(&self) -> usize {
        self.blocks.len()
    }

    /// Decompresses and yields the next matrix, newest first, against the
    /// previously yielded one (zeros for the newest, which was sealed
    /// against zeros). Returns `(step_index, values)`, or `None` when
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] if the block fails to decode.
    pub fn next_matrix(&mut self) -> Result<Option<(usize, Vec<f64>)>, CompressError> {
        let Some(block) = self.blocks.pop() else {
            return Ok(None);
        };
        let step = self.blocks.len();
        let values = decode_matrix(&block, self.reference.as_deref(), &self.maps)?;
        let reference = self.reference.get_or_insert_with(Vec::new);
        reference.clear();
        reference.extend_from_slice(&values);
        Ok(Some((step, values)))
    }

    /// Current memory footprint (remaining blocks + the reference matrix).
    pub fn memory_bytes(&self) -> usize {
        let blocks: usize = self.blocks.iter().map(Vec::len).sum();
        blocks + self.reference.as_ref().map_or(0, |r| r.len() * 8)
    }
}

/// Serialized form of a [`CompressedTensor`] (serve-cache entries and
/// fixtures): pattern + chunk-size echo + framed blocks.
impl CompressedTensor {
    /// Serializes the tensor to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        cursor::write_prefixed(&mut out, &self.pattern.to_compressed_bytes());
        varint::write_u64(&mut out, 0); // former parallel-decode flag; ignored on read
        varint::write_u64(&mut out, self.chunk_size as u64);
        varint::write_u64(&mut out, self.blocks.len() as u64);
        for b in &self.blocks {
            #[cfg(feature = "mutation-hooks")]
            varint::write_u64(&mut out, crate::mutation::perturb_block_len(b.len()));
            #[cfg(not(feature = "mutation-hooks"))]
            varint::write_u64(&mut out, b.len() as u64);
            out.extend_from_slice(b);
        }
        out
    }

    /// Deserializes a tensor written by [`CompressedTensor::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] on truncation or a malformed pattern.
    #[expect(
        clippy::disallowed_methods,
        reason = "`count ≤ bytes.len()`, checked just above"
    )]
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CompressError> {
        let mut cur = ByteCursor::new(bytes);
        let pattern = Pattern::from_compressed_bytes(cur.read_prefixed()?)
            .map_err(|_| CompressError::Corrupt("bad pattern in tensor header"))?;
        let _former_parallel_flag = cur.read_varint()?;
        let chunk_size = cur.read_varint()?;
        let count = cur.read_varint()?;
        // Every framed block costs at least its one-byte length varint, so a
        // claimed count beyond the remaining input is truncated garbage;
        // reject it before trusting it with an allocation.
        if count > bytes.len() as u64 {
            return Err(CompressError::Truncated);
        }
        let mut blocks = Vec::with_capacity(count as usize);
        for _ in 0..count {
            blocks.push(cur.read_prefixed()?.to_vec());
        }
        let pattern = Arc::new(pattern);
        let maps = Arc::new(StampMaps::new(&pattern));
        Ok(Self {
            pattern,
            maps,
            chunk_size: chunk_size as usize,
            blocks,
            stats: CompressStats::new(),
        })
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use masc_sparse::TripletMatrix;

    fn pattern(n: usize) -> Arc<Pattern> {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 1.0);
            if i > 0 {
                t.add(i, i - 1, 1.0);
                t.add(i - 1, i, 1.0);
            }
        }
        t.to_csr().pattern().clone()
    }

    fn series(p: &Pattern, steps: usize) -> Vec<Vec<f64>> {
        (0..steps)
            .map(|s| {
                let time = s as f64 * 0.01;
                (0..p.nnz())
                    .map(|k| {
                        let sign = if k % 3 == 0 { 2.0 } else { -1.0 };
                        // 3 of 4 entries are linear-device stamps: constant.
                        let wobble = if k % 4 == 0 {
                            0.001 * (time + k as f64).sin()
                        } else {
                            0.0
                        };
                        sign * 1e-3 * (1.0 + wobble)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tensor_round_trips_in_both_directions() {
        let p = pattern(25);
        let matrices = series(&p, 12);
        let mut tc = TensorCompressor::new(p.clone(), MascConfig::default());
        for m in &matrices {
            tc.push(m);
        }
        assert_eq!(tc.len(), 12);
        let tensor = tc.finish();
        assert_eq!(tensor.len(), 12);

        // Forward (testing) order.
        let all = tensor.decompress_all().unwrap();
        for (a, b) in all.iter().zip(&matrices) {
            assert_eq!(a, b);
        }

        // Backward (adjoint) order.
        let mut back = tensor.into_backward();
        let mut seen = Vec::new();
        while let Some((step, values)) = back.next_matrix().unwrap() {
            seen.push((step, values));
        }
        assert_eq!(seen.len(), 12);
        for (i, (step, values)) in seen.iter().enumerate() {
            assert_eq!(*step, 11 - i);
            assert_eq!(values, &matrices[*step]);
        }
        assert_eq!(back.remaining(), 0);
    }

    #[test]
    fn empty_pattern_tensor_round_trips() {
        // nnz == 0: every block is an empty value slice, both directions.
        let p = TripletMatrix::new(0, 0).to_csr().pattern().clone();
        let mut tc = TensorCompressor::new(p, MascConfig::default());
        for _ in 0..3 {
            tc.push(&[]);
        }
        let tensor = tc.finish();
        assert_eq!(tensor.len(), 3);
        let all = tensor.decompress_all().unwrap();
        assert!(all.iter().all(|m| m.is_empty()));
        let mut back = tensor.into_backward();
        let mut steps = 0;
        while let Some((_, values)) = back.next_matrix().unwrap() {
            assert!(values.is_empty());
            steps += 1;
        }
        assert_eq!(steps, 3);
    }

    #[test]
    fn zero_step_tensor_is_empty() {
        let p = pattern(10);
        let tc = TensorCompressor::new(p, MascConfig::default());
        assert!(tc.is_empty());
        let tensor = tc.finish();
        assert!(tensor.is_empty());
        assert!(tensor.decompress_all().unwrap().is_empty());
        let mut back = tensor.into_backward();
        assert!(back.next_matrix().unwrap().is_none());
    }

    #[test]
    fn memory_shrinks_as_backward_consumes() {
        let p = pattern(40);
        let matrices = series(&p, 20);
        let mut tc = TensorCompressor::new(p, MascConfig::default());
        for m in &matrices {
            tc.push(m);
        }
        let tensor = tc.finish();
        let mut back = tensor.into_backward();
        back.next_matrix().unwrap();
        let first = back.memory_bytes();
        for _ in 0..10 {
            back.next_matrix().unwrap();
        }
        let later = back.memory_bytes();
        assert!(later < first, "{later} should be < {first}");
    }

    #[test]
    fn smooth_series_beats_raw_storage() {
        let p = pattern(100);
        let matrices = series(&p, 50);
        let mut tc = TensorCompressor::new(p, MascConfig::default().with_markov(false));
        for m in &matrices {
            tc.push(m);
        }
        let tensor = tc.finish();
        assert!(
            tensor.ratio() > 4.0,
            "expected strong tensor compression, got {:.2}x",
            tensor.ratio()
        );
    }

    #[test]
    fn pending_matrix_counted_in_memory() {
        let p = pattern(30);
        let mut tc = TensorCompressor::new(p.clone(), MascConfig::default());
        assert!(tc.is_empty());
        assert_eq!(tc.memory_bytes(), 0);
        tc.push(&vec![1.0; p.nnz()]);
        assert_eq!(tc.len(), 1);
        assert_eq!(tc.memory_bytes(), p.nnz() * 8);
    }

    #[test]
    fn empty_tensor_is_fine() {
        let p = pattern(5);
        let tc = TensorCompressor::new(p, MascConfig::default());
        let tensor = tc.finish();
        assert!(tensor.is_empty());
        assert_eq!(tensor.ratio(), 0.0);
        let mut back = tensor.into_backward();
        assert!(back.next_matrix().unwrap().is_none());
    }

    #[test]
    fn single_matrix_tensor() {
        let p = pattern(10);
        let values: Vec<f64> = (0..p.nnz()).map(|k| k as f64 * 0.5 - 3.0).collect();
        let mut tc = TensorCompressor::new(p, MascConfig::default());
        tc.push(&values);
        let tensor = tc.finish();
        assert_eq!(tensor.len(), 1);
        let all = tensor.decompress_all().unwrap();
        assert_eq!(all[0], values);
    }

    #[test]
    fn serialization_round_trips() {
        let p = pattern(20);
        let matrices = series(&p, 8);
        let mut tc = TensorCompressor::new(p, MascConfig::default());
        for m in &matrices {
            tc.push(m);
        }
        let tensor = tc.finish();
        let bytes = tensor.to_bytes();
        let restored = CompressedTensor::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), 8);
        let all = restored.decompress_all().unwrap();
        for (a, b) in all.iter().zip(&matrices) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn corrupt_serialized_tensor_rejected() {
        let p = pattern(10);
        let mut tc = TensorCompressor::new(p, MascConfig::default());
        tc.push(&vec![1.0; 28]);
        let tensor = tc.finish();
        let bytes = tensor.to_bytes();
        assert!(CompressedTensor::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(CompressedTensor::from_bytes(&[]).is_err());
    }

    #[test]
    fn shared_maps_between_g_and_c_tensors() {
        let p = pattern(15);
        let maps = Arc::new(StampMaps::new(&p));
        let g = TensorCompressor::with_maps(p.clone(), maps.clone(), MascConfig::default());
        let c = TensorCompressor::with_maps(p, maps.clone(), MascConfig::default());
        assert!(Arc::ptr_eq(g.maps(), c.maps()));
        assert_eq!(Arc::strong_count(&maps), 3);
    }
}
