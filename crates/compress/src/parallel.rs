//! Parallel (chunked) matrix compression.
//!
//! The paper's compressor has an OpenMP-parallel version whose throughput
//! (~2.3 GB/s) comfortably exceeds SSD bandwidth — the key to Fig. 7's 6×
//! win over the disk baseline. This module reproduces the design: the
//! non-zero stream is split into fixed chunks, each encoded independently
//! (own residual window, own Markov warm-up, in-matrix predictions confined
//! to the chunk), so both compression and decompression parallelize.
//!
//! One chunked stream era is written and read (era 2) — per-chunk headers,
//! segregated selection/residual substreams, chunk-local decode buffers
//! (`decode_range_local` gives each chunk a buffer of exactly the chunk's
//! length):
//!
//! ```text
//! [common header with FLAG_CHUNKED | FLAG_CHUNK_HEADERS]
//! [varint chunk_size] [varint n_chunks]
//! per chunk: [u8 chunk flags (0)] [varint count] [varint sel_bits] [varint byte_len]
//! [chunk payloads, byte-aligned]
//! ```
//!
//! Era-1 chunked streams (`FLAG_CHUNKED` without `FLAG_CHUNK_HEADERS`,
//! interleaved selection/residual bits) were only ever minted inside this
//! repository and are rejected with a structured error.

use crate::config::MascConfig;
use crate::matrix::{
    checksum, decode_range_local, encode_range_split, parse_header, write_header, HeaderParams,
    ParsedHeader, FLAG_CHUNKED, FLAG_CHUNK_HEADERS, FLAG_CROSS_INSTANCE, FLAG_SEEDED,
};
use crate::predictor::StampMaps;
use crate::stats::CompressStats;
use crate::CompressError;
use masc_bitio::{varint, BitWriter};

/// Splits `0..nnz` into `chunk_size` ranges.
fn chunk_ranges(nnz: usize, chunk_size: usize) -> Vec<core::ops::Range<usize>> {
    let chunk = chunk_size.max(1);
    (0..nnz.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(nnz))
        .collect()
}

/// One independently-encoded chunk.
struct EncodedChunk {
    bytes: Vec<u8>,
    sel_bits: u64,
    stats: CompressStats,
}

fn encode_chunk(
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
) -> EncodedChunk {
    let mut stats = CompressStats::new();
    let mut w = BitWriter::with_capacity(range.len() / 2 + 16);
    let sel_bits = encode_range_split(&mut w, values, reference, maps, params, range, &mut stats);
    EncodedChunk {
        bytes: w.into_bytes(),
        sel_bits,
        stats,
    }
}

/// Encodes every chunk, in parallel when `threads > 1`; order restored by
/// index, so the output is thread-count invariant.
fn encode_chunks(
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    ranges: &[core::ops::Range<usize>],
    threads: usize,
) -> Vec<EncodedChunk> {
    if threads <= 1 || ranges.len() <= 1 {
        return ranges
            .iter()
            .map(|range| encode_chunk(values, reference, maps, params, range.clone()))
            .collect();
    }
    // Strided assignment (worker t takes chunks t, t+T, t+2T, …): chunk
    // cost is usually skewed toward one end of the matrix, and striding
    // spreads that skew across workers where a contiguous split would
    // pile it onto one.
    let threads = threads.min(ranges.len());
    let mut buckets: Vec<Vec<EncodedChunk>> = Vec::new();
    buckets.resize_with(threads, Vec::new);
    std::thread::scope(|scope| {
        for (tid, bucket) in buckets.iter_mut().enumerate() {
            // masc-lint: allow(spawn-discard, reason = "encode lanes return no value and write straight into their bucket; scope exit joins them and re-raises any panic, which is the intended propagation here")
            scope.spawn(move || {
                for i in (tid..ranges.len()).step_by(threads) {
                    bucket.push(encode_chunk(
                        values,
                        reference,
                        maps,
                        params,
                        ranges[i].clone(),
                    ));
                }
            });
        }
    });
    // Every bucket is complete before the scope exits (a panicking worker
    // aborts the scope); reassemble in chunk order.
    let mut slots: Vec<Option<EncodedChunk>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    for (tid, bucket) in buckets.into_iter().enumerate() {
        for (k, chunk) in bucket.into_iter().enumerate() {
            slots[tid + k * threads] = Some(chunk);
        }
    }
    slots.into_iter().flatten().collect()
}

/// Assembles the era-2 stream from encoded chunks. `block_flags` carries
/// the block-kind bits (none, [`FLAG_SEEDED`], or [`FLAG_CROSS_INSTANCE`])
/// on top of the chunked-layout flags.
fn assemble_chunked(
    values: &[f64],
    config: &MascConfig,
    ranges: &[core::ops::Range<usize>],
    encoded: &[EncodedChunk],
    block_flags: u8,
    stats: &mut CompressStats,
) -> Vec<u8> {
    let flags = FLAG_CHUNKED | FLAG_CHUNK_HEADERS | block_flags;
    let mut out = write_header(values, config, flags);
    varint::write_u64(&mut out, config.chunk_size as u64);
    varint::write_u64(&mut out, encoded.len() as u64);
    for (range, chunk) in ranges.iter().zip(encoded) {
        out.push(0); // per-chunk flags: none defined in era 2
        varint::write_u64(&mut out, range.len() as u64);
        varint::write_u64(&mut out, chunk.sel_bits);
        varint::write_u64(&mut out, chunk.bytes.len() as u64);
    }
    for chunk in encoded {
        out.extend_from_slice(&chunk.bytes);
        stats.merge(&chunk.stats);
    }
    stats.input_bytes = (values.len() * 8) as u64; // merge() double-adds; reset
    stats.output_bytes = out.len() as u64;
    out
}

fn compress_chunked(
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
    block_flags: u8,
) -> (Vec<u8>, CompressStats) {
    let nnz = maps.order().len();
    assert_eq!(values.len(), nnz, "value count != pattern nnz");
    assert_eq!(reference.len(), nnz, "reference count != pattern nnz");
    let ranges = chunk_ranges(nnz, config.chunk_size);
    let params = HeaderParams::from_config(config);
    let threads = config.threads.max(1).min(ranges.len().max(1));
    let encoded = encode_chunks(values, reference, maps, &params, &ranges, threads);
    let mut stats = CompressStats::new();
    let out = assemble_chunked(values, config, &ranges, &encoded, block_flags, &mut stats);
    (out, stats)
}

/// Compresses a matrix with chunk-level parallelism (era-2 stream).
///
/// The output is byte-identical for any thread count, so compression
/// results are reproducible.
///
/// # Panics
///
/// Panics if `values.len()` or `reference.len()` differ from the pattern
/// nnz.
pub fn compress_matrix_parallel(
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
) -> (Vec<u8>, CompressStats) {
    compress_chunked(values, reference, maps, config, 0)
}

/// Compresses a matrix as a *seed* block: encoded against an all-zero
/// reference and flagged so the decoder needs no temporal predecessor.
/// Seed blocks are what let a tensor's backward chain split into
/// independently-decodable groups.
///
/// # Panics
///
/// Panics if `values.len()` differs from the pattern nnz.
pub fn compress_matrix_seeded(
    values: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
) -> (Vec<u8>, CompressStats) {
    let zeros = vec![0.0f64; maps.order().len()];
    compress_chunked(values, &zeros, maps, config, FLAG_SEEDED)
}

/// Compresses a matrix as an era-3 *cross-instance* block: `reference` is
/// the same-timestep matrix of the *previous sweep instance* rather than
/// the temporal successor. Parameter sweeps elaborate the same netlist N
/// times with small parameter deltas, so adjacent instances' Jacobians at
/// the same step differ in only the swept stamps — the residuals are far
/// sparser than along the temporal axis. The payload layout is identical to
/// [`compress_matrix_parallel`]; the `FLAG_CROSS_INSTANCE` header bit
/// records which axis the reference came from, and decoding against the
/// wrong reference is caught by the stream checksum.
///
/// Decode with [`decompress_matrix_parallel`], passing the previous
/// instance's decoded same-step values as `reference`.
///
/// # Panics
///
/// Panics if `values.len()` or `reference.len()` differ from the pattern
/// nnz.
pub fn compress_matrix_cross(
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
) -> (Vec<u8>, CompressStats) {
    compress_chunked(values, reference, maps, config, FLAG_CROSS_INSTANCE)
}

/// Parsed era-2 per-chunk header entry.
struct ChunkEntry {
    sel_bits: u64,
    offset: usize,
    len: usize,
}

/// Parses the era-2 chunk table; returns the chunk grid and entries.
#[allow(clippy::type_complexity)]
fn parse_chunk_table(
    bytes: &[u8],
    nnz: usize,
    mut pos: usize,
) -> Result<(Vec<core::ops::Range<usize>>, Vec<ChunkEntry>), CompressError> {
    let (chunk_size, used) = varint::read_u64(bytes.get(pos..).ok_or(CompressError::Truncated)?)?;
    pos += used;
    let (n_chunks, used) = varint::read_u64(bytes.get(pos..).ok_or(CompressError::Truncated)?)?;
    pos += used;
    let ranges = chunk_ranges(nnz, chunk_size as usize);
    if ranges.len() != n_chunks as usize {
        return Err(CompressError::Corrupt("chunk count mismatch"));
    }
    let mut entries: Vec<ChunkEntry> = Vec::with_capacity(ranges.len());
    for range in &ranges {
        let chunk_flags = *bytes.get(pos).ok_or(CompressError::Truncated)?;
        pos += 1;
        if chunk_flags != 0 {
            return Err(CompressError::Corrupt("unknown chunk flag bits"));
        }
        let (count, used) = varint::read_u64(bytes.get(pos..).ok_or(CompressError::Truncated)?)?;
        pos += used;
        if count as usize != range.len() {
            return Err(CompressError::Corrupt("chunk element count mismatch"));
        }
        let (sel_bits, used) = varint::read_u64(bytes.get(pos..).ok_or(CompressError::Truncated)?)?;
        pos += used;
        let (len, used) = varint::read_u64(bytes.get(pos..).ok_or(CompressError::Truncated)?)?;
        pos += used;
        entries.push(ChunkEntry {
            sel_bits,
            offset: 0,
            len: len as usize,
        });
    }
    for entry in entries.iter_mut() {
        entry.offset = pos;
        pos = pos.checked_add(entry.len).ok_or(CompressError::Truncated)?;
    }
    if pos > bytes.len() {
        return Err(CompressError::Truncated);
    }
    Ok((ranges, entries))
}

/// Decodes one era-2 chunk into a freshly allocated chunk-local buffer.
fn decode_chunk_local(
    bytes: &[u8],
    entry: &ChunkEntry,
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
) -> Result<Vec<f64>, CompressError> {
    let payload = bytes
        .get(entry.offset..entry.offset + entry.len)
        .ok_or(CompressError::Truncated)?;
    let mut local = vec![0.0f64; range.len()];
    decode_range_local(
        payload,
        entry.sel_bits,
        &mut local,
        reference,
        maps,
        params,
        range,
    )?;
    Ok(local)
}

/// Era-2 decode: chunk-local buffers, parallel across chunks, one serial
/// scatter at the end.
fn decompress_chunked_v2(
    bytes: &[u8],
    reference: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
    header: &ParsedHeader,
) -> Result<Vec<f64>, CompressError> {
    let nnz = maps.order().len();
    let (ranges, entries) = parse_chunk_table(bytes, nnz, header.payload_offset)?;
    let threads = config.threads.max(1).min(ranges.len().max(1));
    let mut out = vec![0.0f64; nnz];
    if threads <= 1 || ranges.len() <= 1 {
        for (range, entry) in ranges.iter().zip(&entries) {
            let local =
                decode_chunk_local(bytes, entry, reference, maps, &header.params, range.clone())?;
            for (off, p) in range.clone().enumerate() {
                out[maps.order()[p]] = local[off];
            }
        }
    } else {
        // Same strided schedule as the encoder (worker t takes chunks
        // t, t+T, t+2T, …) to spread skewed chunk costs. Workers also
        // compute their chunks' checksum contributions, so the serial
        // epilogue is just the scatter plus an XOR fold.
        let want_checksum = header.expected_checksum.is_some();
        type ChunkValues = Vec<(usize, Vec<f64>, u64)>;
        let results: Vec<Result<ChunkValues, CompressError>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for tid in 0..threads {
                let ranges = &ranges;
                let entries = &entries;
                let params = &header.params;
                handles.push(scope.spawn(move || {
                    let mut locals = Vec::new();
                    for i in (tid..ranges.len()).step_by(threads) {
                        let local = decode_chunk_local(
                            bytes,
                            &entries[i],
                            reference,
                            maps,
                            params,
                            ranges[i].clone(),
                        )?;
                        let partial = if want_checksum {
                            checksum_partial(&local, ranges[i].clone(), maps, nnz)
                        } else {
                            0
                        };
                        locals.push((i, local, partial));
                    }
                    Ok(locals)
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    // Joining consumes a worker panic; surface it as a
                    // structured decode error instead of unwinding.
                    h.join()
                        .unwrap_or(Err(CompressError::Corrupt("decode worker panicked")))
                })
                .collect()
        });
        let mut acc = 0u64;
        for result in results {
            for (i, local, partial) in result? {
                acc ^= partial;
                for (off, p) in ranges[i].clone().enumerate() {
                    out[maps.order()[p]] = local[off];
                }
            }
        }
        if let Some(expected) = header.expected_checksum {
            if acc != expected {
                return Err(CompressError::ChecksumMismatch);
            }
        }
        return Ok(out);
    }
    if let Some(expected) = header.expected_checksum {
        if checksum(&out) != expected {
            return Err(CompressError::ChecksumMismatch);
        }
    }
    Ok(out)
}

/// One chunk's contribution to the whole-matrix chain checksum.
///
/// The chain `acc = rotl(acc, 1) ^ bits` is linear over XOR: the value
/// landing at output index `idx` contributes `rotl(bits, nnz − 1 − idx)`
/// to the final accumulator (rotation amounts wrap mod 64), so per-chunk
/// partials can be computed concurrently and XOR-folded — bit-identical
/// to the serial chain.
fn checksum_partial(
    local: &[f64],
    range: core::ops::Range<usize>,
    maps: &StampMaps,
    nnz: usize,
) -> u64 {
    let mut acc = 0u64;
    for (off, p) in range.enumerate() {
        let idx = maps.order()[p];
        acc ^= local[off]
            .to_bits()
            .rotate_left(((nnz - 1 - idx) % 64) as u32);
    }
    acc
}

/// Decompresses a chunked (era-2) stream.
///
/// # Errors
///
/// Returns [`CompressError`] on truncation, header inconsistency, or
/// checksum mismatch.
pub fn decompress_matrix_parallel(
    bytes: &[u8],
    reference: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
) -> Result<Vec<f64>, CompressError> {
    let nnz = maps.order().len();
    if reference.len() != nnz {
        return Err(CompressError::Corrupt("reference length != pattern nnz"));
    }
    let header = parse_header(bytes, nnz)?;
    if !header.chunked {
        return Err(CompressError::Corrupt(
            "serial stream passed to the chunked decoder",
        ));
    }
    if !header.chunk_headers {
        return Err(CompressError::Corrupt(
            "era-1 chunked stream (no per-chunk headers) is no longer readable",
        ));
    }
    let zeros;
    let reference: &[f64] = if header.seeded {
        zeros = vec![0.0f64; nnz];
        &zeros
    } else {
        reference
    };
    decompress_chunked_v2(bytes, reference, maps, config, &header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use masc_sparse::{Pattern, TripletMatrix};

    fn pattern(n: usize, band: usize) -> Pattern {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                t.add(i, j, 1.0);
            }
        }
        t.to_csr().pattern().as_ref().clone()
    }

    fn values(p: &Pattern, time: f64) -> Vec<f64> {
        (0..p.nnz())
            .map(|k| {
                let sign = if k % 5 == 0 { 3.0 } else { -1.0 };
                sign * (1.0 + 1e-4 * (time + k as f64 * 0.01).sin())
            })
            .collect()
    }

    fn check(config: &MascConfig, n: usize) {
        let p = pattern(n, 2);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 1.0);
        let reference = values(&p, 1.01);
        let (bytes, stats) = compress_matrix_parallel(&cur, &reference, &maps, config);
        assert!(stats.output_bytes > 0);
        let out = decompress_matrix_parallel(&bytes, &reference, &maps, config).unwrap();
        for (a, b) in cur.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_chunk_round_trip() {
        let config = MascConfig {
            chunk_size: 1 << 20,
            threads: 1,
            ..MascConfig::default()
        };
        check(&config, 40);
    }

    #[test]
    fn many_small_chunks_round_trip() {
        let config = MascConfig {
            chunk_size: 17, // deliberately awkward
            threads: 1,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        check(&config, 60);
    }

    #[test]
    fn multithreaded_round_trip() {
        let config = MascConfig {
            chunk_size: 64,
            threads: 4,
            markov_min_warmup: 8,
            ..MascConfig::default()
        };
        check(&config, 100);
    }

    #[test]
    fn checksum_partials_fold_to_the_chain_checksum() {
        let p = pattern(23, 2);
        let maps = StampMaps::new(&p);
        let nnz = p.nnz();
        let vals = values(&p, 0.7);
        // Decoded order: chunk elements land at maps.order()[p]; rebuild
        // out and fold partials over awkward chunk boundaries.
        let mut out = vec![0.0f64; nnz];
        let mut acc = 0u64;
        for range in chunk_ranges(nnz, 7) {
            let local: Vec<f64> = range.clone().map(|pos| vals[maps.order()[pos]]).collect();
            acc ^= checksum_partial(&local, range.clone(), &maps, nnz);
            for (off, pos) in range.enumerate() {
                out[maps.order()[pos]] = local[off];
            }
        }
        assert_eq!(out, vals);
        assert_eq!(acc, crate::matrix::checksum(&vals));
    }

    #[test]
    fn corrupted_payload_fails_the_parallel_checksum() {
        let p = pattern(40, 2);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 1.0);
        let reference = values(&p, 1.01);
        let config = MascConfig {
            chunk_size: 16,
            threads: 4,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_parallel(&cur, &reference, &maps, &config);
        // Flip one payload bit near the end (past the chunk table);
        // either the decoder rejects the stream structurally or the
        // XOR-folded checksum catches the damage — never a silent pass.
        let mut bad = bytes.clone();
        let idx = bad.len() - 3;
        bad[idx] ^= 0x10;
        if let Ok(out) = decompress_matrix_parallel(&bad, &reference, &maps, &config) {
            // The flip may land in dead padding; then the values must be
            // untouched. Different values with no error = silent corruption.
            assert!(
                cur.iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "corrupted stream decoded to different values without a checksum error"
            );
        }
    }

    #[test]
    fn degenerate_chunk_ranges() {
        assert!(chunk_ranges(0, 8).is_empty());
        assert!(chunk_ranges(0, 0).is_empty());
        // chunk_size 0 is clamped to 1 on both sides of the codec.
        assert_eq!(chunk_ranges(5, 0), chunk_ranges(5, 1));
        assert_eq!(chunk_ranges(5, 0).len(), 5);
    }

    #[test]
    fn zero_nnz_round_trip() {
        let p = TripletMatrix::new(0, 0).to_csr().pattern().as_ref().clone();
        let maps = StampMaps::new(&p);
        for threads in [1usize, 4] {
            let config = MascConfig {
                chunk_size: 8,
                threads,
                ..MascConfig::default()
            };
            let (bytes, _) = compress_matrix_parallel(&[], &[], &maps, &config);
            let out = decompress_matrix_parallel(&bytes, &[], &maps, &config).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn chunk_size_zero_round_trip() {
        let config = MascConfig {
            chunk_size: 0,
            threads: 3,
            markov_min_warmup: 2,
            ..MascConfig::default()
        };
        check(&config, 20);
    }

    #[test]
    fn more_threads_than_chunks_round_trip() {
        // (chunk, threads) shapes: single chunk with many threads; more
        // threads than chunks; and the rounded-up `per` case (4 chunks
        // over 3 threads) where a naive `0..threads` worker loop spawns
        // an idle worker with an empty chunk range.
        for (chunk, threads) in [(100_000, 8), (100, 8), (75, 3)] {
            let config = MascConfig {
                chunk_size: chunk,
                threads,
                markov_min_warmup: 4,
                ..MascConfig::default()
            };
            check(&config, 60);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let p = pattern(80, 2);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 2.0);
        let reference = values(&p, 2.02);
        let serial = MascConfig {
            chunk_size: 50,
            threads: 1,
            ..MascConfig::default()
        };
        let parallel = MascConfig {
            threads: 3,
            ..serial.clone()
        };
        let (b1, _) = compress_matrix_parallel(&cur, &reference, &maps, &serial);
        let (b2, _) = compress_matrix_parallel(&cur, &reference, &maps, &parallel);
        assert_eq!(b1, b2);
        // Cross-decode: serial-compressed stream with parallel decoder.
        let out = decompress_matrix_parallel(&b1, &reference, &maps, &parallel).unwrap();
        for (a, b) in cur.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunked_and_serial_formats_are_distinguished() {
        let p = pattern(30, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let config = MascConfig {
            chunk_size: 16,
            ..MascConfig::default()
        };
        let (chunked, _) = compress_matrix_parallel(&cur, &reference, &maps, &config);
        assert!(crate::matrix::decompress_matrix(&chunked, &reference, &maps).is_err());
        let (serial, _) = crate::matrix::compress_matrix(&cur, &reference, &maps, &config);
        assert!(decompress_matrix_parallel(&serial, &reference, &maps, &config).is_err());
    }

    #[test]
    fn truncated_chunked_stream_is_error() {
        let p = pattern(30, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let config = MascConfig {
            chunk_size: 16,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_parallel(&cur, &reference, &maps, &config);
        for cut in [0, 3, bytes.len() - 1] {
            assert!(decompress_matrix_parallel(&bytes[..cut], &reference, &maps, &config).is_err());
        }
    }

    #[test]
    fn hostile_values_round_trip_chunked() {
        let p = pattern(16, 1);
        let maps = StampMaps::new(&p);
        let specials = [f64::NAN, f64::INFINITY, -0.0, 1e-308, -1e308, 0.0];
        let cur: Vec<f64> = (0..p.nnz()).map(|i| specials[i % specials.len()]).collect();
        let reference: Vec<f64> = (0..p.nnz())
            .map(|i| specials[(i + 2) % specials.len()])
            .collect();
        let config = MascConfig {
            chunk_size: 7,
            threads: 2,
            markov_min_warmup: 2,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_parallel(&cur, &reference, &maps, &config);
        let out = decompress_matrix_parallel(&bytes, &reference, &maps, &config).unwrap();
        for (a, b) in cur.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn seeded_stream_ignores_caller_reference() {
        let p = pattern(24, 2);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 5.0);
        let config = MascConfig {
            chunk_size: 32,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_seeded(&cur, &maps, &config);
        // Decoding against garbage references must still reproduce `cur`:
        // the stream is self-referential.
        for reference in [vec![0.0; p.nnz()], values(&p, 99.0)] {
            let out = decompress_matrix_parallel(&bytes, &reference, &maps, &config).unwrap();
            for (a, b) in cur.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn cross_instance_round_trip_and_thread_invariance() {
        let p = pattern(60, 2);
        let maps = StampMaps::new(&p);
        // Adjacent sweep instances: same step, tiny parameter delta.
        let prev_instance = values(&p, 3.0);
        let cur: Vec<f64> = prev_instance
            .iter()
            .enumerate()
            .map(|(k, v)| if k % 11 == 0 { v * 1.001 } else { *v })
            .collect();
        let serial = MascConfig {
            chunk_size: 32,
            threads: 1,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        let parallel = MascConfig {
            threads: 4,
            ..serial.clone()
        };
        let (b1, stats) = compress_matrix_cross(&cur, &prev_instance, &maps, &serial);
        let (b2, _) = compress_matrix_cross(&cur, &prev_instance, &maps, &parallel);
        assert_eq!(b1, b2, "cross stream must be thread-count invariant");
        assert!(stats.output_bytes > 0);
        let flags = b1[0];
        assert!(flags & FLAG_CROSS_INSTANCE != 0 && flags & FLAG_SEEDED == 0);
        let header = parse_header(&b1, p.nnz()).unwrap();
        assert!(!header.seeded);
        for config in [&serial, &parallel] {
            let out = decompress_matrix_parallel(&b1, &prev_instance, &maps, config).unwrap();
            for (a, b) in cur.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn cross_block_with_wrong_reference_fails_checksum() {
        let p = pattern(40, 2);
        let maps = StampMaps::new(&p);
        let prev_instance = values(&p, 3.0);
        let cur = values(&p, 3.001);
        let config = MascConfig {
            chunk_size: 16,
            threads: 2,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_cross(&cur, &prev_instance, &maps, &config);
        // Handing the decoder a *temporal* reference (what a reader that
        // ignored the flag would do) must be caught, not silently wrong.
        let wrong = values(&p, 7.0);
        assert_eq!(
            decompress_matrix_parallel(&bytes, &wrong, &maps, &config),
            Err(CompressError::ChecksumMismatch)
        );
    }

    #[test]
    fn cross_plus_seeded_flags_rejected() {
        let p = pattern(20, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 1.0);
        let reference = values(&p, 1.001);
        let config = MascConfig {
            chunk_size: 16,
            ..MascConfig::default()
        };
        let (mut bytes, _) = compress_matrix_cross(&cur, &reference, &maps, &config);
        // A block cannot be both reference-free and cross-referenced.
        bytes[0] |= crate::matrix::FLAG_SEEDED;
        assert_eq!(
            decompress_matrix_parallel(&bytes, &reference, &maps, &config),
            Err(CompressError::Corrupt(
                "cross-instance flag combined with seeded flag"
            ))
        );
    }

    #[test]
    fn hostile_chunk_headers_error_not_panic() {
        let p = pattern(30, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let config = MascConfig {
            chunk_size: 16,
            markov_min_warmup: 2,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_parallel(&cur, &reference, &maps, &config);
        // The chunk table sits right after the common header; flipping any
        // single byte of the stream must never panic, only error or (for
        // payload bits) be caught by the checksum.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xFF;
            let _ = decompress_matrix_parallel(&mutated, &reference, &maps, &config);
        }
    }

    #[test]
    fn unknown_chunk_flag_bits_rejected() {
        let p = pattern(20, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let config = MascConfig {
            chunk_size: 16,
            checksum: false,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_parallel(&cur, &reference, &maps, &config);
        let header = parse_header(&bytes, p.nnz()).unwrap();
        // Skip [varint chunk_size][varint n_chunks] to the first per-chunk
        // flag byte and set a bit there.
        let mut pos = header.payload_offset;
        let (_, used) = varint::read_u64(&bytes[pos..]).unwrap();
        pos += used;
        let (_, used) = varint::read_u64(&bytes[pos..]).unwrap();
        pos += used;
        let mut mutated = bytes.clone();
        mutated[pos] = 0x01;
        assert_eq!(
            decompress_matrix_parallel(&mutated, &reference, &maps, &config),
            Err(CompressError::Corrupt("unknown chunk flag bits"))
        );
    }
}
