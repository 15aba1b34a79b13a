//! Per-matrix compression (paper Algorithm 1).
//!
//! [`compress_matrix`] losslessly encodes one Jacobian's value array against
//! the temporally-adjacent reference matrix (`M_{t+1}`);
//! [`decompress_matrix`] inverts it bit-exactly. The stream is
//! self-describing (mode flags, Markov warm-up parameters and the chunk grid
//! live in the header), so a matrix can be decoded knowing only the shared
//! pattern and the reference values.
//!
//! The non-zero stream is split into fixed `chunk_size` chunks, each encoded
//! independently (own residual window, own Markov warm-up, in-matrix
//! predictions confined to the chunk). Every stream is the era-2 chunked
//! layout — per-chunk headers, segregated selection/residual substreams:
//!
//! ```text
//! [flags u8: FLAG_CHUNKED | FLAG_CHUNK_HEADERS | …] [varint nnz]
//! [u64 checksum]                                   (checksum flag only)
//! [u16 warmup ‰] [varint min warmup]               (markov flag only)
//! [varint chunk_size] [varint n_chunks]
//! per chunk: [u8 chunk flags (0)] [varint count] [varint sel_bits] [varint byte_len]
//! [chunk payloads, byte-aligned]
//! ```
//!
//! Streams without `FLAG_CHUNK_HEADERS` — the era-0 serial stream and the
//! era-1 chunked stream, both only ever minted inside this repository — are
//! rejected with a structured error.

use crate::config::MascConfig;
use crate::markov::MarkovModel;
use crate::predictor::{best_fit, Region, RunPredictor, StampMaps};
use crate::residual::{decode_residual, encode_residuals_batched, ResidualState};
use crate::stats::CompressStats;
use crate::CompressError;
use masc_bitio::cursor::ByteCursor;
use masc_bitio::{varint, BitReader, BitWriter};

pub(crate) const FLAG_MARKOV: u8 = 1 << 0;
pub(crate) const FLAG_SIGN_INVERT: u8 = 1 << 1;
pub(crate) const FLAG_CHECKSUM: u8 = 1 << 2;
pub(crate) const FLAG_CHUNKED: u8 = 1 << 3;
/// The stream was encoded against an all-zero reference (a *seed* block):
/// the decoder substitutes zeros for whatever reference the caller hands
/// it, making the block decodable with no temporal predecessor.
pub(crate) const FLAG_SEEDED: u8 = 1 << 4;
/// Era-2 chunked layout: each chunk carries its own header (flags, element
/// count, selection-substream length, byte length) ahead of the payloads.
/// Always set together with [`FLAG_CHUNKED`].
pub(crate) const FLAG_CHUNK_HEADERS: u8 = 1 << 5;
/// Era-3 cross-instance block: the reference is the *same-timestep* matrix
/// of the previous sweep instance, not the temporal successor. The payload
/// layout is unchanged — the flag only tells the reader which reference the
/// encoder used, so decoding with a temporal reference (or vice versa) is
/// caught by the checksum instead of silently producing garbage.
/// Mutually exclusive with [`FLAG_SEEDED`]: a block cannot be both
/// reference-free and cross-referenced.
pub(crate) const FLAG_CROSS_INSTANCE: u8 = 1 << 6;
/// Bits no known era uses; streams carrying them are from the future and
/// must be rejected rather than misread.
const FLAG_UNKNOWN_MASK: u8 = !(FLAG_MARKOV
    | FLAG_SIGN_INVERT
    | FLAG_CHECKSUM
    | FLAG_CHUNKED
    | FLAG_SEEDED
    | FLAG_CHUNK_HEADERS
    | FLAG_CROSS_INSTANCE);

/// Rotating XOR fold over value bit patterns — cheap integrity check.
pub(crate) fn checksum(values: &[f64]) -> u64 {
    let mut acc = 0u64;
    for v in values {
        acc = acc.rotate_left(1) ^ v.to_bits();
    }
    acc
}

/// Decoded header parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeaderParams {
    pub markov: bool,
    pub sign_invert: bool,
    pub warmup_permille: u32,
    pub min_warmup: usize,
}

impl HeaderParams {
    pub(crate) fn from_config(config: &MascConfig) -> Self {
        Self {
            markov: config.markov,
            sign_invert: config.sign_invert_diag,
            warmup_permille: (config.markov_warmup_frac.clamp(0.0, 1.0) * 1000.0).round() as u32,
            min_warmup: config.markov_min_warmup,
        }
    }

    /// Warm-up budget of a region run of `len` values in one chunk:
    /// `max(min_warmup, ⌈frac·len⌉)` capped at `len`, or every value when
    /// Markov is off (best fit everywhere).
    fn warmup(&self, len: usize) -> usize {
        if !self.markov {
            return len;
        }
        let frac = (len as u64 * u64::from(self.warmup_permille)).div_ceil(1000) as usize;
        frac.max(self.min_warmup).min(len)
    }
}

/// Number of selection bits a chunk over `range` (order positions)
/// carries under `config`: the warm-up values' 1–2 bit codes, as
/// Markov-predicted selections cost nothing.
pub fn selection_bit_count(
    maps: &StampMaps,
    range: core::ops::Range<usize>,
    config: &MascConfig,
) -> u64 {
    chunk_selection_bits(maps, range, &HeaderParams::from_config(config))
}

/// [`selection_bit_count`] from header parameters. Deterministic, so
/// encoder and decoder independently agree on where the selection
/// substream ends; O(1), as a region's values in a chunk form one run.
fn chunk_selection_bits(
    maps: &StampMaps,
    range: core::ops::Range<usize>,
    params: &HeaderParams,
) -> u64 {
    maps.region_runs(range)
        .map(|(region, run)| params.warmup(run.len()) as u64 * u64::from(region.selection_bits()))
        .sum()
}

/// The chunk's values in encode order.
#[expect(
    clippy::indexing_slicing,
    reason = "`order` holds value indices `< nnz`, and `values.len() == nnz` (asserted by `compress_chunked`)"
)]
fn gather(values: &[f64], order: &[usize]) -> Vec<f64> {
    order.iter().map(|&k| values[k]).collect()
}

/// Writes a chunk's values, held in encode order, to their value indices.
#[expect(
    clippy::indexing_slicing,
    reason = "`order` holds value indices `< nnz`, and `out.len() == nnz`"
)]
fn scatter(out: &mut [f64], order: &[usize], local: &[f64]) {
    for (&k, &v) in order.iter().zip(local) {
        out[k] = v;
    }
}

/// Era-2 chunk encoder: selection substream first, then the residual
/// substream, in one bit-contiguous payload. Returns the number of
/// selection bits written (recorded in the chunk header so the decoder can
/// split the payload without replaying the warm-up bookkeeping).
///
/// Segregating the substreams is what lets the residual side run through
/// the batched u64-lane kernels ([`crate::lanes`]): predictions for the
/// whole chunk are resolved in one scalar pass (the encoder has every true
/// value, so spatial candidates never wait on decoding), after which the
/// XOR and leading/trailing-zero classification are straight-line
/// lane-parallel array work.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: sized by `range.len() ≤ nnz` of the held pattern"
)]
pub(crate) fn encode_range_split(
    w: &mut BitWriter,
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
    stats: &mut CompressStats,
) -> u64 {
    let ordered = gather(values, maps.order().get(range.clone()).unwrap_or_default());
    let mut preds = Vec::with_capacity(ordered.len());
    let sel_start = w.bit_len() as u64;
    // Pass 1 (scalar): resolve every selection, emit the warm-up selection
    // bits, and collect the chosen predictions.
    for run in maps.region_runs(range.clone()) {
        let predictor = maps.run_predictor(run, reference, params.sign_invert, range.start);
        let warmup = params.warmup(predictor.len());
        select_run(w, &predictor, warmup, &ordered, &mut preds, stats);
    }
    let sel_bits = w.bit_len() as u64 - sel_start;
    // Pass 2 (lanes): batched XOR + leading/trailing-zero classification.
    let mut residuals = vec![0u64; ordered.len()];
    crate::lanes::xor_residuals(&ordered, &preds, &mut residuals);
    let mut lz = vec![0u8; residuals.len()];
    let mut tz = vec![0u8; residuals.len()];
    crate::lanes::classify_residuals(&residuals, &mut lz, &mut tz);
    // Pass 3: batched residual bit-packing appended after the selections.
    let mut res_state = ResidualState::new();
    encode_residuals_batched(w, &mut res_state, &residuals, &lz, &tz, stats);
    sel_bits
}

/// Resolves the selections of one region run: best fit over the first
/// `warmup` values (codes written and trained on), then the frozen Markov
/// walk. Pushes each chosen prediction's bits to `preds`; `ordered` is the
/// chunk's true values in encode order.
fn select_run(
    w: &mut BitWriter,
    predictor: &RunPredictor<'_>,
    warmup: usize,
    ordered: &[f64],
    preds: &mut Vec<u64>,
    stats: &mut CompressStats,
) {
    let region = predictor.region;
    let truths = ordered.get(predictor.offset..).unwrap_or_default();
    let mut markov = MarkovModel::new();
    for (i, &truth) in truths.iter().enumerate().take(warmup) {
        let candidates = [0, 1, 2, 3].map(|c| predictor.at(i, c, ordered));
        let code = best_fit(&candidates, region.candidate_count(), truth);
        #[cfg(feature = "mutation-hooks")]
        let wire = crate::mutation::perturb_selection(code, region.candidate_count());
        #[cfg(not(feature = "mutation-hooks"))]
        let wire = code;
        w.write_bits(u64::from(wire), region.selection_bits());
        markov.observe(region, code);
        stats.record_selection(StampMaps::model_class(region, code));
        preds.push(predictor.at(i, code, ordered).to_bits());
    }
    stats.markov_predicted += (predictor.len() - warmup) as u64;
    for (i, code) in (warmup..predictor.len()).zip(markov.frozen_walk(region)) {
        stats.record_selection(StampMaps::model_class(region, code));
        preds.push(predictor.at(i, code, ordered).to_bits());
    }
}

/// A matrix's decode buffers, reused from chunk to chunk.
struct ChunkBuffers {
    /// The chunk's selection codes in encode order.
    codes: Vec<u32>,
    /// The chunk's decoded values in encode order: `values[p - start]`
    /// is order position `p`.
    values: Vec<f64>,
}

/// Era-2 chunk decoder into chunk-local buffers.
///
/// `payload` is one chunk's bit-contiguous substreams; `sel_bits` is the
/// selection-substream length claimed by the chunk header (validated here
/// against the independently recomputed count). The chunk's values land in
/// `buffers.values`, so no nnz-sized scratch is touched.
///
/// # Errors
///
/// Returns [`CompressError`] on truncation, invalid selection codes, or a
/// selection-substream length that disagrees with the header parameters.
fn decode_range_local(
    payload: &[u8],
    sel_bits: u64,
    buffers: &mut ChunkBuffers,
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
) -> Result<(), CompressError> {
    if sel_bits != chunk_selection_bits(maps, range.clone(), params) {
        return Err(CompressError::Corrupt(
            "chunk selection-substream length mismatch",
        ));
    }
    if sel_bits > (payload.len() as u64) * 8 {
        return Err(CompressError::Truncated);
    }
    let ChunkBuffers { codes, values } = buffers;
    // Pass 1: resolve the full selection-code sequence. Only the selection
    // substream is consumed; codes never depend on decoded values.
    codes.clear();
    let mut sel = BitReader::new(payload);
    for (region, run) in maps.region_runs(range.clone()) {
        read_run_codes(&mut sel, region, run.len(), params.warmup(run.len()), codes)?;
    }
    // Pass 2: decode the residual substream and reconstruct each value
    // against the chunk-local prediction state.
    values.clear();
    let mut res = BitReader::at_bit(payload, sel_bits as usize);
    let mut res_state = ResidualState::new();
    for run in maps.region_runs(range.clone()) {
        let predictor = maps.run_predictor(run, reference, params.sign_invert, range.start);
        let run_codes = codes.get(predictor.offset..predictor.offset + predictor.len());
        let run_codes = run_codes.unwrap_or_default();
        decode_run_values(&mut res, &mut res_state, &predictor, run_codes, values)?;
    }
    Ok(())
}

/// Reads one region run's selection codes: `warmup` codes from the wire,
/// each validated and trained on, then the frozen Markov walk for the
/// remaining `len - warmup`.
fn read_run_codes(
    sel: &mut BitReader<'_>,
    region: Region,
    len: usize,
    warmup: usize,
    codes: &mut Vec<u32>,
) -> Result<(), CompressError> {
    let mut markov = MarkovModel::new();
    for _ in 0..warmup {
        let code = sel.read_bits(region.selection_bits())? as u32;
        if code as usize >= region.candidate_count() {
            return Err(CompressError::Corrupt("selection code out of range"));
        }
        markov.observe(region, code);
        codes.push(code);
    }
    codes.extend(markov.frozen_walk(region).take(len - warmup));
    Ok(())
}

/// Decodes one region run's residuals and appends its values to `local`.
/// A `1` bit is a zero residual, so a run of ones is read at once and
/// those values are their predictions.
fn decode_run_values(
    res: &mut BitReader<'_>,
    res_state: &mut ResidualState,
    predictor: &RunPredictor<'_>,
    codes: &[u32],
    local: &mut Vec<f64>,
) -> Result<(), CompressError> {
    let mut i = 0;
    while i < codes.len() {
        let zeros = res.read_ones(codes.len() - i);
        for (j, &code) in codes.iter().enumerate().skip(i).take(zeros) {
            local.push(predictor.at(j, code, local));
        }
        i += zeros;
        if let Some(&code) = codes.get(i) {
            let residual = decode_residual(res, res_state)?;
            local.push(f64::from_bits(
                predictor.at(i, code, local).to_bits() ^ residual,
            ));
            i += 1;
        }
    }
    Ok(())
}

/// Writes the common stream header; returns the buffer.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: a constant 24-byte hint"
)]
pub(crate) fn write_header(values: &[f64], config: &MascConfig, extra_flags: u8) -> Vec<u8> {
    let mut header = Vec::with_capacity(24);
    let mut flags = extra_flags;
    if config.markov {
        flags |= FLAG_MARKOV;
    }
    if config.sign_invert_diag {
        flags |= FLAG_SIGN_INVERT;
    }
    if config.checksum {
        flags |= FLAG_CHECKSUM;
    }
    header.push(flags);
    varint::write_u64(&mut header, values.len() as u64);
    if config.checksum {
        header.extend_from_slice(&checksum(values).to_le_bytes());
    }
    if config.markov {
        let params = HeaderParams::from_config(config);
        header.extend_from_slice(&(params.warmup_permille as u16).to_le_bytes());
        varint::write_u64(&mut header, params.min_warmup as u64);
    }
    header
}

/// Parsed stream header.
pub(crate) struct ParsedHeader {
    pub params: HeaderParams,
    pub expected_checksum: Option<u64>,
    /// Seed block: decode against zeros, not the caller's reference.
    pub seeded: bool,
}

/// Parses a stream header, validating the era and nnz against the maps;
/// leaves `cur` at the chunk table.
pub(crate) fn parse_header(
    cur: &mut ByteCursor<'_>,
    expected_nnz: usize,
) -> Result<ParsedHeader, CompressError> {
    let flags = cur.read_u8()?;
    if flags & FLAG_UNKNOWN_MASK != 0 {
        return Err(CompressError::Corrupt("unknown header flag bits"));
    }
    const ERA_2: u8 = FLAG_CHUNKED | FLAG_CHUNK_HEADERS;
    if flags & ERA_2 != ERA_2 {
        return Err(CompressError::Corrupt(
            "pre-era-2 stream (no per-chunk headers) is not readable",
        ));
    }
    if flags & FLAG_CROSS_INSTANCE != 0 && flags & FLAG_SEEDED != 0 {
        return Err(CompressError::Corrupt(
            "cross-instance flag combined with seeded flag",
        ));
    }
    if cur.read_varint()? as usize != expected_nnz {
        return Err(CompressError::Corrupt("stored nnz != pattern nnz"));
    }
    let expected_checksum = if flags & FLAG_CHECKSUM != 0 {
        Some(u64::from_le_bytes(cur.read_array()?))
    } else {
        None
    };
    let markov = flags & FLAG_MARKOV != 0;
    let (warmup_permille, min_warmup) = if markov {
        let pm = u16::from_le_bytes(cur.read_array()?);
        (u32::from(pm), cur.read_varint()? as usize)
    } else {
        (0, 0)
    };
    Ok(ParsedHeader {
        params: HeaderParams {
            markov,
            sign_invert: flags & FLAG_SIGN_INVERT != 0,
            warmup_permille,
            min_warmup,
        },
        expected_checksum,
        seeded: flags & FLAG_SEEDED != 0,
    })
}

/// Splits `0..nnz` into `chunk_size` ranges.
fn chunk_ranges(nnz: usize, chunk_size: usize) -> Vec<core::ops::Range<usize>> {
    let chunk = chunk_size.max(1);
    (0..nnz.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(nnz))
        .collect()
}

/// Encodes every chunk and assembles the stream. `block_flags` carries the
/// block-kind bits (none, [`FLAG_SEEDED`], or [`FLAG_CROSS_INSTANCE`]) on
/// top of the chunked-layout flags.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: one entry per chunk of the held pattern"
)]
fn compress_chunked(
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
    block_flags: u8,
) -> (Vec<u8>, CompressStats) {
    let nnz = maps.order().len();
    assert_eq!(values.len(), nnz, "value count != pattern nnz");
    // A seed block passes an empty reference, which predicts as all zeros.
    let seeded = block_flags & FLAG_SEEDED != 0 && reference.is_empty();
    assert!(
        seeded || reference.len() == nnz,
        "reference count != pattern nnz"
    );
    let ranges = chunk_ranges(nnz, config.chunk_size);
    let params = HeaderParams::from_config(config);
    let mut stats = CompressStats::new();
    let mut out = write_header(
        values,
        config,
        FLAG_CHUNKED | FLAG_CHUNK_HEADERS | block_flags,
    );
    varint::write_u64(&mut out, config.chunk_size as u64);
    varint::write_u64(&mut out, ranges.len() as u64);
    let mut payloads = Vec::with_capacity(ranges.len());
    for range in &ranges {
        let mut w = BitWriter::with_capacity(range.len() / 2 + 16);
        let sel_bits = encode_range_split(
            &mut w,
            values,
            reference,
            maps,
            &params,
            range.clone(),
            &mut stats,
        );
        let payload = w.into_bytes();
        out.push(0); // per-chunk flags: none defined in era 2
        varint::write_u64(&mut out, range.len() as u64);
        varint::write_u64(&mut out, sel_bits);
        varint::write_u64(&mut out, payload.len() as u64);
        payloads.push(payload);
    }
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    stats.input_bytes = (nnz * 8) as u64;
    stats.output_bytes = out.len() as u64;
    (out, stats)
}

/// Compresses `values` (the matrix `M_t`) against `reference` (`M_{t+1}`).
///
/// Returns the compressed bytes and the statistics of this matrix.
///
/// # Panics
///
/// Panics if `values.len()`, `reference.len()` and the maps' pattern nnz
/// disagree — these all derive from one shared pattern, so a mismatch is a
/// caller bug.
pub fn compress_matrix(
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
) -> (Vec<u8>, CompressStats) {
    compress_chunked(values, reference, maps, config, 0)
}

/// Compresses a matrix as a *seed* block: encoded against an all-zero
/// reference and flagged so the decoder needs no temporal predecessor.
/// A tensor's final block is a seed: the root of its backward chain.
///
/// # Panics
///
/// Panics if `values.len()` differs from the pattern nnz.
pub fn compress_matrix_seeded(
    values: &[f64],
    maps: &StampMaps,
    config: &MascConfig,
) -> (Vec<u8>, CompressStats) {
    compress_chunked(values, &[], maps, config, FLAG_SEEDED)
}

/// Compresses a matrix as an era-3 *cross-instance* block: `reference` is
/// the same-timestep matrix of the *previous sweep instance* rather than
/// the temporal successor. Parameter sweeps elaborate the same netlist N
/// times with small parameter deltas, so adjacent instances' Jacobians at
/// the same step differ in only the swept stamps — the residuals are far
/// sparser than along the temporal axis. The payload layout is identical to
/// [`compress_matrix`]; the `FLAG_CROSS_INSTANCE` header bit records which
/// axis the reference came from, and decoding against the wrong reference
/// is caught by the stream checksum.
///
/// Decode with [`decompress_matrix`], passing the previous instance's
/// decoded same-step values as `reference`.
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
struct ChunkEntry<'a> {
    sel_bits: u64,
    payload: &'a [u8],
}

/// Parses the era-2 chunk table and locates every chunk's payload;
/// returns the chunk grid and entries.
#[expect(
    clippy::disallowed_methods,
    reason = "`ranges` comes from `chunk_ranges(nnz, …)` over the held pattern, at most `nnz` entries"
)]
fn parse_chunk_table<'a>(
    cur: &mut ByteCursor<'a>,
    nnz: usize,
) -> Result<(Vec<core::ops::Range<usize>>, Vec<ChunkEntry<'a>>), CompressError> {
    let chunk_size = cur.read_varint()?;
    let n_chunks = cur.read_varint()?;
    let ranges = chunk_ranges(nnz, chunk_size as usize);
    if ranges.len() != n_chunks as usize {
        return Err(CompressError::Corrupt("chunk count mismatch"));
    }
    let mut heads = Vec::with_capacity(ranges.len());
    for range in &ranges {
        if cur.read_u8()? != 0 {
            return Err(CompressError::Corrupt("unknown chunk flag bits"));
        }
        if cur.read_varint()? as usize != range.len() {
            return Err(CompressError::Corrupt("chunk element count mismatch"));
        }
        let sel_bits = cur.read_varint()?;
        heads.push((sel_bits, cur.read_varint()?));
    }
    let entries = heads
        .into_iter()
        .map(|(sel_bits, len)| {
            let payload = cur.read_bytes(len as usize)?;
            Ok(ChunkEntry { sel_bits, payload })
        })
        .collect::<Result<_, CompressError>>()?;
    Ok((ranges, entries))
}

/// Decompresses a matrix produced by [`compress_matrix`],
/// [`compress_matrix_seeded`] or [`compress_matrix_cross`].
///
/// `reference` must be the same values used at compression time (ignored
/// for a seed block). Chunks decode one after another into chunk-local
/// buffers, then scatter into pattern order.
///
/// # Errors
///
/// Returns [`CompressError`] on truncation, header inconsistency, a stream
/// without per-chunk headers, or checksum mismatch.
pub fn decompress_matrix(
    bytes: &[u8],
    reference: &[f64],
    maps: &StampMaps,
) -> Result<Vec<f64>, CompressError> {
    if reference.len() != maps.order().len() {
        return Err(CompressError::Corrupt("reference length != pattern nnz"));
    }
    decode_matrix(bytes, Some(reference), maps)
}

/// [`decompress_matrix`] against `reference`, or against an all-zero
/// reference when it is `None`. Neither a seed block nor a missing
/// reference allocates zeros: the predictor reads an empty reference as
/// all zeros.
#[expect(
    clippy::disallowed_methods,
    reason = "sized by `nnz` of the held pattern and by its longest `chunk_ranges` sub-range"
)]
pub(crate) fn decode_matrix(
    bytes: &[u8],
    reference: Option<&[f64]>,
    maps: &StampMaps,
) -> Result<Vec<f64>, CompressError> {
    let nnz = maps.order().len();
    let mut cur = ByteCursor::new(bytes);
    let header = parse_header(&mut cur, nnz)?;
    let reference = match reference {
        Some(r) if !header.seeded => r,
        _ => &[],
    };
    let (ranges, entries) = parse_chunk_table(&mut cur, nnz)?;
    let longest = ranges.first().map_or(0, ExactSizeIterator::len);
    let mut out = vec![0.0f64; nnz];
    let mut buffers = ChunkBuffers {
        codes: Vec::with_capacity(longest),
        values: Vec::with_capacity(longest),
    };
    for (range, entry) in ranges.into_iter().zip(&entries) {
        decode_range_local(
            entry.payload,
            entry.sel_bits,
            &mut buffers,
            reference,
            maps,
            &header.params,
            range.clone(),
        )?;
        let order = maps.order().get(range).unwrap_or_default();
        scatter(&mut out, order, &buffers.values);
    }
    if let Some(expected) = header.expected_checksum {
        if checksum(&out) != expected {
            return Err(CompressError::ChecksumMismatch);
        }
    }
    Ok(out)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use masc_sparse::{Pattern, TripletMatrix};

    pub(crate) fn banded_pattern(n: usize, band: usize) -> Pattern {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                t.add(i, j, 1.0);
            }
        }
        t.to_csr().pattern().as_ref().clone()
    }

    /// Simulated-looking values: diagonal positive, off-diagonal negative,
    /// smooth in "time".
    pub(crate) fn jacobian_like(pattern: &Pattern, time: f64) -> Vec<f64> {
        // Realistic mix: most entries come from linear devices and are
        // constant over time; a minority (nonlinear device stamps) vary
        // smoothly. This is the structure the paper's 60 %-zero-residual
        // statistic reflects.
        let mut vals = vec![0.0; pattern.nnz()];
        #[expect(
            clippy::needless_range_loop,
            reason = "`r` also sets the row's waveform and its diagonal test"
        )]
        for r in 0..pattern.rows() {
            for k in pattern.row_ptr()[r]..pattern.row_ptr()[r + 1] {
                let c = pattern.col_idx()[k];
                let varying = r % 3 == 0;
                let base = if varying {
                    1e-3 * (1.0 + 0.01 * (time + r as f64 * 0.1).sin())
                } else {
                    1e-3 * (1.0 + (r as f64) * 1e-4)
                };
                vals[k] = if r == c { 2.0 * base } else { -base };
            }
        }
        vals
    }

    /// Values with a per-element wobble and no row structure.
    fn values(p: &Pattern, time: f64) -> Vec<f64> {
        (0..p.nnz())
            .map(|k| {
                let sign = if k % 5 == 0 { 3.0 } else { -1.0 };
                sign * (1.0 + 1e-4 * (time + k as f64 * 0.01).sin())
            })
            .collect()
    }

    fn check_round_trip(values: &[f64], reference: &[f64], maps: &StampMaps, config: &MascConfig) {
        let (bytes, stats) = compress_matrix(values, reference, maps, config);
        assert!(stats.output_bytes > 0);
        let out = decompress_matrix(&bytes, reference, maps).expect("decompress");
        for (i, (a, b)) in values.iter().zip(&out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "value {i} differs");
        }
    }

    /// `check_round_trip` on a band-2 pattern of `n` rows.
    fn check(config: &MascConfig, n: usize) {
        let p = banded_pattern(n, 2);
        let maps = StampMaps::new(&p);
        check_round_trip(&values(&p, 1.0), &values(&p, 1.01), &maps, config);
    }

    #[test]
    fn best_fit_round_trip() {
        let p = banded_pattern(20, 2);
        let maps = StampMaps::new(&p);
        let config = MascConfig::default().with_markov(false);
        let cur = jacobian_like(&p, 1.0);
        let reference = jacobian_like(&p, 1.01);
        check_round_trip(&cur, &reference, &maps, &config);
    }

    #[test]
    fn warmup_clamps_to_region_length() {
        // A min_warmup far beyond the matrix size must clamp each
        // region's budget to that region's element count, never past it.
        let p = banded_pattern(3, 1);
        let maps = StampMaps::new(&p);
        let params = HeaderParams {
            markov: true,
            sign_invert: true,
            warmup_permille: 125,
            min_warmup: 1000,
        };
        let mut counts = [0usize; 3];
        for i in 0..p.nnz() {
            counts[maps.region_at(i).index()] += 1;
        }
        assert_eq!(maps.region_runs(0..p.nnz()).count(), 3);
        for (region, run) in maps.region_runs(0..p.nnz()) {
            assert_eq!(params.warmup(run.len()), counts[region.index()]);
        }
        // An empty range has no runs, and an empty run no budget.
        assert_eq!(maps.region_runs(0..0).count(), 0);
        assert_eq!(params.warmup(0), 0);
    }

    #[test]
    fn markov_round_trip() {
        let p = banded_pattern(30, 3);
        let maps = StampMaps::new(&p);
        let config = MascConfig {
            markov_min_warmup: 8,
            ..MascConfig::default()
        };
        let cur = jacobian_like(&p, 2.0);
        let reference = jacobian_like(&p, 2.01);
        check_round_trip(&cur, &reference, &maps, &config);
    }

    #[test]
    fn identical_matrices_compress_to_almost_nothing() {
        let p = banded_pattern(50, 2);
        let maps = StampMaps::new(&p);
        let config = MascConfig::default().with_markov(false);
        let cur = jacobian_like(&p, 3.0);
        let (bytes, stats) = compress_matrix(&cur, &cur, &maps, &config);
        // Temporal prediction is exact: ~3 bits/value (selection + zero).
        assert!(stats.zero_residual_rate() > 0.99);
        assert!(
            bytes.len() < cur.len(),
            "{} bytes for {} values",
            bytes.len(),
            cur.len()
        );
        check_round_trip(&cur, &cur, &maps, &config);
    }

    #[test]
    fn hostile_values_round_trip() {
        let p = banded_pattern(8, 1);
        let maps = StampMaps::new(&p);
        let nnz = p.nnz();
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            -1e300,
        ];
        let cur: Vec<f64> = (0..nnz).map(|i| specials[i % specials.len()]).collect();
        let reference: Vec<f64> = (0..nnz)
            .map(|i| specials[(i + 3) % specials.len()])
            .collect();
        for markov in [false, true] {
            let config = MascConfig {
                markov,
                markov_min_warmup: 4,
                ..MascConfig::default()
            };
            check_round_trip(&cur, &reference, &maps, &config);
        }
    }

    #[test]
    fn hostile_values_round_trip_chunked() {
        let p = banded_pattern(16, 1);
        let maps = StampMaps::new(&p);
        let specials = [f64::NAN, f64::INFINITY, -0.0, 1e-308, -1e308, 0.0];
        let cur: Vec<f64> = (0..p.nnz()).map(|i| specials[i % specials.len()]).collect();
        let reference: Vec<f64> = (0..p.nnz())
            .map(|i| specials[(i + 2) % specials.len()])
            .collect();
        let config = MascConfig {
            chunk_size: 7,
            markov_min_warmup: 2,
            ..MascConfig::default()
        };
        check_round_trip(&cur, &reference, &maps, &config);
    }

    #[test]
    fn zero_reference_still_round_trips() {
        // The newest matrix of a tensor has no successor: compressed
        // against a zero reference.
        let p = banded_pattern(15, 2);
        let maps = StampMaps::new(&p);
        let cur = jacobian_like(&p, 0.5);
        let zeros = vec![0.0; p.nnz()];
        check_round_trip(&cur, &zeros, &maps, &MascConfig::default());
    }

    #[test]
    fn corrupt_stream_detected_by_checksum() {
        let p = banded_pattern(20, 2);
        let maps = StampMaps::new(&p);
        let cur = jacobian_like(&p, 1.0);
        let reference = jacobian_like(&p, 1.01);
        let (mut bytes, _) = compress_matrix(&cur, &reference, &maps, &MascConfig::default());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let result = decompress_matrix(&bytes, &reference, &maps);
        assert!(
            matches!(
                result,
                Err(CompressError::ChecksumMismatch)
                    | Err(CompressError::Truncated)
                    | Err(CompressError::Corrupt(_))
            ),
            "corruption not detected: {result:?}"
        );
    }

    #[test]
    fn corrupted_chunk_payload_fails_the_checksum() {
        let p = banded_pattern(40, 2);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 1.0);
        let reference = values(&p, 1.01);
        let config = MascConfig {
            chunk_size: 16,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        let (mut bytes, _) = compress_matrix(&cur, &reference, &maps, &config);
        // Flip one payload bit near the end (past the chunk table);
        // either the decoder rejects the stream structurally or the
        // checksum catches the damage — never a silent pass.
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x10;
        if let Ok(out) = decompress_matrix(&bytes, &reference, &maps) {
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
    fn truncated_stream_is_error() {
        let p = banded_pattern(20, 2);
        let maps = StampMaps::new(&p);
        let cur = jacobian_like(&p, 1.0);
        let reference = jacobian_like(&p, 1.01);
        let (bytes, _) = compress_matrix(&cur, &reference, &maps, &MascConfig::default());
        for cut in [0, 1, 5, bytes.len() / 2] {
            assert!(decompress_matrix(&bytes[..cut], &reference, &maps).is_err());
        }
    }

    #[test]
    fn truncated_chunked_stream_is_error() {
        let p = banded_pattern(30, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let config = MascConfig {
            chunk_size: 16,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix(&cur, &reference, &maps, &config);
        for cut in [0, 3, bytes.len() - 1] {
            assert!(decompress_matrix(&bytes[..cut], &reference, &maps).is_err());
        }
    }

    #[test]
    fn wrong_nnz_rejected() {
        let p = banded_pattern(10, 1);
        let maps = StampMaps::new(&p);
        let cur = jacobian_like(&p, 1.0);
        let (bytes, _) = compress_matrix(&cur, &cur, &maps, &MascConfig::default());
        let p2 = banded_pattern(11, 1);
        let maps2 = StampMaps::new(&p2);
        let ref2 = vec![0.0; p2.nnz()];
        assert!(decompress_matrix(&bytes, &ref2, &maps2).is_err());
    }

    #[test]
    fn smooth_temporal_data_compresses_well() {
        let p = banded_pattern(100, 3);
        let maps = StampMaps::new(&p);
        let cur = jacobian_like(&p, 5.0);
        let reference = jacobian_like(&p, 5.0001); // very close in time
        let (bytes, stats) = compress_matrix(
            &cur,
            &reference,
            &maps,
            &MascConfig::default().with_markov(false),
        );
        let ratio = stats.input_bytes as f64 / bytes.len() as f64;
        assert!(ratio > 3.0, "expected decent compression, got {ratio:.2}x");
    }

    #[test]
    fn markov_has_lower_or_equal_accuracy_but_round_trips() {
        let p = banded_pattern(80, 2);
        let maps = StampMaps::new(&p);
        let cur = jacobian_like(&p, 4.0);
        let reference = jacobian_like(&p, 4.01);
        let (_, best_stats) = compress_matrix(
            &cur,
            &reference,
            &maps,
            &MascConfig::default().with_markov(false),
        );
        let config = MascConfig {
            markov_min_warmup: 16,
            ..MascConfig::default()
        };
        let (_, mk_stats) = compress_matrix(&cur, &reference, &maps, &config);
        assert!(mk_stats.markov_predicted > 0);
        assert_eq!(best_stats.markov_predicted, 0);
        check_round_trip(&cur, &reference, &maps, &config);
    }

    #[test]
    fn sign_inversion_helps_on_stamp_symmetric_data() {
        // Values with exact MNA stamp symmetry: offdiag = −diag. The
        // reference's off-diagonals are useless (noise) but its diagonals
        // track the truth, so the only good off-diagonal predictor is the
        // (negated) diagonal — precisely the paper's sign-inversion case.
        let p = banded_pattern(60, 1);
        let maps = StampMaps::new(&p);
        let g = |r: usize| 1e-3 * (1.0 + 0.05 * (r as f64).sin());
        let mut cur = vec![0.0; p.nnz()];
        let mut reference = vec![0.0; p.nnz()];
        let mut noise = 0x9E37_79B9u64;
        for r in 0..p.rows() {
            for k in p.row_ptr()[r]..p.row_ptr()[r + 1] {
                let c = p.col_idx()[k];
                if r == c {
                    cur[k] = g(r);
                    reference[k] = g(r) * 1.0001;
                } else {
                    cur[k] = -g(r);
                    noise = noise.wrapping_mul(6364136223846793005).wrapping_add(1);
                    reference[k] = ((noise >> 40) as f64) * 1e-7 + 0.5;
                }
            }
        }
        let (with_bytes, _) = compress_matrix(
            &cur,
            &reference,
            &maps,
            &MascConfig::default()
                .with_markov(false)
                .with_sign_invert(true),
        );
        let (without_bytes, _) = compress_matrix(
            &cur,
            &reference,
            &maps,
            &MascConfig::default()
                .with_markov(false)
                .with_sign_invert(false),
        );
        assert!(
            with_bytes.len() < without_bytes.len(),
            "sign inversion should help: {} vs {}",
            with_bytes.len(),
            without_bytes.len()
        );
        check_round_trip(
            &cur,
            &reference,
            &maps,
            &MascConfig::default().with_sign_invert(false),
        );
    }

    #[test]
    fn single_chunk_round_trip() {
        let config = MascConfig {
            chunk_size: 1 << 20,
            ..MascConfig::default()
        };
        check(&config, 40);
    }

    #[test]
    fn many_small_chunks_round_trip() {
        let config = MascConfig {
            chunk_size: 17, // deliberately awkward
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        check(&config, 60);
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
        let config = MascConfig {
            chunk_size: 8,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix(&[], &[], &maps, &config);
        let out = decompress_matrix(&bytes, &[], &maps).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_size_zero_round_trip() {
        let config = MascConfig {
            chunk_size: 0,
            markov_min_warmup: 2,
            ..MascConfig::default()
        };
        check(&config, 20);
    }

    /// Era-0 (neither chunk flag) and era-1 (`FLAG_CHUNKED` alone) headers
    /// fail with the one structured error.
    #[test]
    fn streams_without_chunk_headers_are_rejected() {
        let p = banded_pattern(30, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let (bytes, _) = compress_matrix(&cur, &reference, &maps, &MascConfig::default());
        for clear in [FLAG_CHUNKED | FLAG_CHUNK_HEADERS, FLAG_CHUNK_HEADERS] {
            let mut old = bytes.clone();
            old[0] &= !clear;
            assert_eq!(
                decompress_matrix(&old, &reference, &maps),
                Err(CompressError::Corrupt(
                    "pre-era-2 stream (no per-chunk headers) is not readable"
                ))
            );
        }
    }

    #[test]
    fn seeded_stream_ignores_caller_reference() {
        let p = banded_pattern(24, 2);
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
            let out = decompress_matrix(&bytes, &reference, &maps).unwrap();
            for (a, b) in cur.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn cross_instance_round_trip() {
        let p = banded_pattern(60, 2);
        let maps = StampMaps::new(&p);
        // Adjacent sweep instances: same step, tiny parameter delta.
        let prev_instance = values(&p, 3.0);
        let cur: Vec<f64> = prev_instance
            .iter()
            .enumerate()
            .map(|(k, v)| if k % 11 == 0 { v * 1.001 } else { *v })
            .collect();
        let config = MascConfig {
            chunk_size: 32,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        let (bytes, stats) = compress_matrix_cross(&cur, &prev_instance, &maps, &config);
        assert!(stats.output_bytes > 0);
        let flags = bytes[0];
        assert!(flags & FLAG_CROSS_INSTANCE != 0 && flags & FLAG_SEEDED == 0);
        let header = parse_header(&mut ByteCursor::new(&bytes), p.nnz()).unwrap();
        assert!(!header.seeded);
        let out = decompress_matrix(&bytes, &prev_instance, &maps).unwrap();
        for (a, b) in cur.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cross_block_with_wrong_reference_fails_checksum() {
        let p = banded_pattern(40, 2);
        let maps = StampMaps::new(&p);
        let prev_instance = values(&p, 3.0);
        let cur = values(&p, 3.001);
        let config = MascConfig {
            chunk_size: 16,
            markov_min_warmup: 4,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix_cross(&cur, &prev_instance, &maps, &config);
        // Handing the decoder a *temporal* reference (what a reader that
        // ignored the flag would do) must be caught, not silently wrong.
        let wrong = values(&p, 7.0);
        assert_eq!(
            decompress_matrix(&bytes, &wrong, &maps),
            Err(CompressError::ChecksumMismatch)
        );
    }

    #[test]
    fn cross_plus_seeded_flags_rejected() {
        let p = banded_pattern(20, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 1.0);
        let reference = values(&p, 1.001);
        let config = MascConfig {
            chunk_size: 16,
            ..MascConfig::default()
        };
        let (mut bytes, _) = compress_matrix_cross(&cur, &reference, &maps, &config);
        // A block cannot be both reference-free and cross-referenced.
        bytes[0] |= FLAG_SEEDED;
        assert_eq!(
            decompress_matrix(&bytes, &reference, &maps),
            Err(CompressError::Corrupt(
                "cross-instance flag combined with seeded flag"
            ))
        );
    }

    #[test]
    fn hostile_chunk_headers_error_not_panic() {
        let p = banded_pattern(30, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let config = MascConfig {
            chunk_size: 16,
            markov_min_warmup: 2,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix(&cur, &reference, &maps, &config);
        // The chunk table sits right after the common header; flipping any
        // single byte of the stream must never panic, only error or (for
        // payload bits) be caught by the checksum.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xFF;
            let _ = decompress_matrix(&mutated, &reference, &maps);
        }
    }

    #[test]
    fn unknown_chunk_flag_bits_rejected() {
        let p = banded_pattern(20, 1);
        let maps = StampMaps::new(&p);
        let cur = values(&p, 0.0);
        let reference = values(&p, 0.01);
        let config = MascConfig {
            chunk_size: 16,
            checksum: false,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix(&cur, &reference, &maps, &config);
        let mut reader = ByteCursor::new(&bytes);
        parse_header(&mut reader, p.nnz()).unwrap();
        // Skip [varint chunk_size][varint n_chunks] to the first per-chunk
        // flag byte and set a bit there.
        reader.read_varint().unwrap();
        reader.read_varint().unwrap();
        let mut mutated = bytes.clone();
        mutated[reader.position()] = 0x01;
        assert_eq!(
            decompress_matrix(&mutated, &reference, &maps),
            Err(CompressError::Corrupt("unknown chunk flag bits"))
        );
    }
}
