//! Per-matrix compression (paper Algorithm 1).
//!
//! `compress_matrix` losslessly encodes one Jacobian's value array against
//! the temporally-adjacent reference matrix (`M_{t+1}`); `decompress_matrix`
//! inverts it bit-exactly. The stream is self-describing (mode flags and
//! Markov warm-up parameters live in the header), so a matrix can be
//! decoded knowing only the shared pattern and the reference values.
//!
//! Stream layout:
//!
//! ```text
//! [flags u8] [varint nnz] [u64 checksum]?
//! [u16 warmup ‰] [varint min warmup]      (markov flag only)
//! [payload bits…]
//! ```
//!
//! The encode loop itself is expressed over an *order range* so the
//! parallel codec in [`crate::parallel`] can reuse it per chunk.

use crate::config::MascConfig;
use crate::markov::MarkovModel;
use crate::predictor::{best_fit, StampMaps};
use crate::residual::{decode_residual, encode_residual, encode_residuals_batched, ResidualState};
use crate::stats::CompressStats;
use crate::CompressError;
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

/// Decoded header parameters shared by the serial and chunked formats.
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
}

/// Per-region warm-up budget within one encode range.
fn region_warmups(
    maps: &StampMaps,
    range: core::ops::Range<usize>,
    params: &HeaderParams,
) -> [usize; 3] {
    if !params.markov {
        // Best-fit everywhere.
        return [usize::MAX; 3];
    }
    let mut counts = [0usize; 3];
    for i in range {
        counts[maps.region_of(maps.order()[i]).index()] += 1;
    }
    let mut out = [0usize; 3];
    for (o, &cnt) in out.iter_mut().zip(&counts) {
        let frac = (cnt as u64 * u64::from(params.warmup_permille)).div_ceil(1000) as usize;
        *o = frac.max(params.min_warmup).min(cnt);
    }
    out
}

/// Number of selection bits the encoder emits for `range` — the warm-up
/// elements' 1–2 bit codes (post-warm-up selections are Markov-predicted
/// and cost nothing). Deterministic from the maps and params, so encoder
/// and decoder independently agree on where the selection substream ends.
pub(crate) fn selection_bit_count(
    maps: &StampMaps,
    range: core::ops::Range<usize>,
    params: &HeaderParams,
) -> u64 {
    let warmups = region_warmups(maps, range.clone(), params);
    let mut seen = [0usize; 3];
    let mut bits = 0u64;
    for i in range {
        let region = maps.region_of(maps.order()[i]);
        let ri = region.index();
        if seen[ri] < warmups[ri] {
            seen[ri] += 1;
            bits += u64::from(region.selection_bits());
        }
    }
    bits
}

/// Encodes the order positions `range` of `values` into `w`.
///
/// `chunk_start` marks the first order position of the enclosing
/// independently-decodable unit (equal to `range.start` for chunks, `0` for
/// the serial whole-matrix codec).
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_range(
    w: &mut BitWriter,
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
    chunk_start: usize,
    stats: &mut CompressStats,
) {
    let warmups = region_warmups(maps, range.clone(), params);
    let mut seen = [0usize; 3];
    let mut res_state = ResidualState::new();
    let mut markov = MarkovModel::new();
    for i in range {
        let k = maps.order()[i];
        let region = maps.region_of(k);
        let ri = region.index();
        let truth = values[k];
        let cands = maps.candidates(k, reference, values, params.sign_invert, chunk_start);
        let code = if seen[ri] < warmups[ri] {
            seen[ri] += 1;
            let code = best_fit(&cands, region.candidate_count(), truth);
            #[cfg(feature = "mutation-hooks")]
            let wire = crate::mutation::perturb_selection(code, region.candidate_count());
            #[cfg(not(feature = "mutation-hooks"))]
            let wire = code;
            w.write_bits(u64::from(wire), region.selection_bits());
            markov.observe(region, code);
            code
        } else {
            let predicted = markov.predict(region);
            stats.markov_predicted += 1;
            if predicted != best_fit(&cands, region.candidate_count(), truth) {
                stats.markov_misses += 1;
            }
            predicted
        };
        stats.record_selection(StampMaps::model_class(region, code));
        debug_assert!((code as usize) < cands.len(), "selection within candidates");
        let residual = truth.to_bits() ^ cands[code as usize].to_bits();
        encode_residual(w, &mut res_state, residual, stats);
    }
}

/// Decodes the order positions `range` from `r` into `out`.
///
/// # Errors
///
/// Returns [`CompressError`] on truncation or invalid selection codes.
pub(crate) fn decode_range(
    r: &mut BitReader<'_>,
    out: &mut [f64],
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
) -> Result<(), CompressError> {
    let chunk_start = range.start;
    let warmups = region_warmups(maps, range.clone(), params);
    let mut seen = [0usize; 3];
    let mut res_state = ResidualState::new();
    let mut markov = MarkovModel::new();
    for i in range {
        let k = maps.order()[i];
        let region = maps.region_of(k);
        let ri = region.index();
        let cands = maps.candidates(k, reference, out, params.sign_invert, chunk_start);
        let code = if seen[ri] < warmups[ri] {
            seen[ri] += 1;
            let code = r.read_bits(region.selection_bits())? as u32;
            if code as usize >= region.candidate_count() {
                return Err(CompressError::Corrupt("selection code out of range"));
            }
            markov.observe(region, code);
            code
        } else {
            markov.predict(region)
        };
        let residual = decode_residual(r, &mut res_state)?;
        out[k] = f64::from_bits(cands[code as usize].to_bits() ^ residual);
    }
    Ok(())
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
pub(crate) fn encode_range_split(
    w: &mut BitWriter,
    values: &[f64],
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
    stats: &mut CompressStats,
) -> u64 {
    let chunk_start = range.start;
    let warmups = region_warmups(maps, range.clone(), params);
    let mut seen = [0usize; 3];
    let mut markov = MarkovModel::new();
    let len = range.len();
    let mut ordered = Vec::with_capacity(len);
    let mut preds = Vec::with_capacity(len);
    let sel_start = w.bit_len() as u64;
    // Pass 1 (scalar): resolve every selection, emit the warm-up selection
    // bits, and collect ordered truths + chosen predictions.
    for i in range {
        let k = maps.order()[i];
        let region = maps.region_of(k);
        let ri = region.index();
        let truth = values[k];
        let cands = maps.candidates(k, reference, values, params.sign_invert, chunk_start);
        let code = if seen[ri] < warmups[ri] {
            seen[ri] += 1;
            let code = best_fit(&cands, region.candidate_count(), truth);
            #[cfg(feature = "mutation-hooks")]
            let wire = crate::mutation::perturb_selection(code, region.candidate_count());
            #[cfg(not(feature = "mutation-hooks"))]
            let wire = code;
            w.write_bits(u64::from(wire), region.selection_bits());
            markov.observe(region, code);
            code
        } else {
            let predicted = markov.predict(region);
            stats.markov_predicted += 1;
            if predicted != best_fit(&cands, region.candidate_count(), truth) {
                stats.markov_misses += 1;
            }
            predicted
        };
        stats.record_selection(StampMaps::model_class(region, code));
        debug_assert!((code as usize) < cands.len(), "selection within candidates");
        ordered.push(truth);
        preds.push(cands[code as usize].to_bits());
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

/// Era-2 chunk decoder into a *chunk-local* buffer.
///
/// `payload` is one chunk's bit-contiguous substreams; `sel_bits` is the
/// selection-substream length claimed by the chunk header (validated here
/// against the independently recomputed count). `local` must have exactly
/// the range's length; `local[p - range.start]` receives order position
/// `p`'s value. No nnz-sized scratch is touched, so N chunks decode
/// truly concurrently.
///
/// # Errors
///
/// Returns [`CompressError`] on truncation, invalid selection codes, or a
/// selection-substream length that disagrees with the header parameters.
pub(crate) fn decode_range_local(
    payload: &[u8],
    sel_bits: u64,
    local: &mut [f64],
    reference: &[f64],
    maps: &StampMaps,
    params: &HeaderParams,
    range: core::ops::Range<usize>,
) -> Result<(), CompressError> {
    let chunk_start = range.start;
    let len = range.len();
    if local.len() != len {
        return Err(CompressError::Corrupt("chunk buffer length mismatch"));
    }
    if sel_bits != selection_bit_count(maps, range.clone(), params) {
        return Err(CompressError::Corrupt(
            "chunk selection-substream length mismatch",
        ));
    }
    if sel_bits > (payload.len() as u64) * 8 {
        return Err(CompressError::Truncated);
    }
    // Pass 1: resolve the full selection-code sequence. Only the selection
    // substream is consumed; codes never depend on decoded values.
    let warmups = region_warmups(maps, range.clone(), params);
    let mut seen = [0usize; 3];
    let mut markov = MarkovModel::new();
    let mut sel = BitReader::new(payload);
    let mut codes: Vec<u32> = Vec::with_capacity(range.len());
    for i in range.clone() {
        let region = maps.region_of(maps.order()[i]);
        let ri = region.index();
        let code = if seen[ri] < warmups[ri] {
            seen[ri] += 1;
            let code = sel.read_bits(region.selection_bits())? as u32;
            if code as usize >= region.candidate_count() {
                return Err(CompressError::Corrupt("selection code out of range"));
            }
            markov.observe(region, code);
            code
        } else {
            markov.predict(region)
        };
        codes.push(code);
    }
    // Pass 2: decode the residual substream (bit-serial, value-independent).
    let mut res = BitReader::at_bit(payload, sel_bits as usize);
    let mut res_state = ResidualState::new();
    let mut residuals = vec![0u64; codes.len()];
    for slot in residuals.iter_mut() {
        *slot = decode_residual(&mut res, &mut res_state)?;
    }
    // Pass 3: reconstruct values against the chunk-local prediction state.
    for (off, i) in range.enumerate() {
        let k = maps.order()[i];
        let cands = maps.candidates_local(k, reference, local, params.sign_invert, chunk_start);
        let code = codes[off] as usize;
        local[off] = f64::from_bits(cands[code].to_bits() ^ residuals[off]);
    }
    Ok(())
}

/// Writes the common stream header; returns the buffer.
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

/// Parsed header plus the offset where the payload begins.
pub(crate) struct ParsedHeader {
    pub params: HeaderParams,
    pub expected_checksum: Option<u64>,
    pub chunked: bool,
    /// Era-2 chunked layout with per-chunk headers.
    pub chunk_headers: bool,
    /// Seed block: decode against zeros, not the caller's reference.
    pub seeded: bool,
    pub payload_offset: usize,
}

/// Parses a stream header, validating nnz against the maps.
pub(crate) fn parse_header(
    bytes: &[u8],
    expected_nnz: usize,
) -> Result<ParsedHeader, CompressError> {
    let mut pos = 0usize;
    let flags = *bytes.first().ok_or(CompressError::Truncated)?;
    pos += 1;
    if flags & FLAG_UNKNOWN_MASK != 0 {
        return Err(CompressError::Corrupt("unknown header flag bits"));
    }
    if flags & FLAG_CHUNK_HEADERS != 0 && flags & FLAG_CHUNKED == 0 {
        return Err(CompressError::Corrupt(
            "chunk-header flag without chunked flag",
        ));
    }
    if flags & FLAG_CROSS_INSTANCE != 0 && flags & FLAG_SEEDED != 0 {
        return Err(CompressError::Corrupt(
            "cross-instance flag combined with seeded flag",
        ));
    }
    let (stored_nnz, used) = varint::read_u64(bytes.get(pos..).ok_or(CompressError::Truncated)?)?;
    pos += used;
    if stored_nnz as usize != expected_nnz {
        return Err(CompressError::Corrupt("stored nnz != pattern nnz"));
    }
    let expected_checksum = if flags & FLAG_CHECKSUM != 0 {
        let cs: [u8; 8] = bytes
            .get(pos..pos + 8)
            .and_then(|s| s.try_into().ok())
            .ok_or(CompressError::Truncated)?;
        pos += 8;
        Some(u64::from_le_bytes(cs))
    } else {
        None
    };
    let markov = flags & FLAG_MARKOV != 0;
    let (warmup_permille, min_warmup) = if markov {
        let pm: [u8; 2] = bytes
            .get(pos..pos + 2)
            .and_then(|s| s.try_into().ok())
            .ok_or(CompressError::Truncated)?;
        pos += 2;
        let (mw, used) = varint::read_u64(bytes.get(pos..).ok_or(CompressError::Truncated)?)?;
        pos += used;
        (u32::from(u16::from_le_bytes(pm)), mw as usize)
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
        chunked: flags & FLAG_CHUNKED != 0,
        chunk_headers: flags & FLAG_CHUNK_HEADERS != 0,
        seeded: flags & FLAG_SEEDED != 0,
        payload_offset: pos,
    })
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
    let nnz = maps.order().len();
    assert_eq!(values.len(), nnz, "value count != pattern nnz");
    assert_eq!(reference.len(), nnz, "reference count != pattern nnz");

    let mut stats = CompressStats::new();
    stats.input_bytes = (nnz * 8) as u64;
    let mut out = write_header(values, config, 0);
    let params = HeaderParams::from_config(config);
    let mut w = BitWriter::with_capacity(nnz / 2 + 64);
    encode_range(
        &mut w,
        values,
        reference,
        maps,
        &params,
        0..nnz,
        0,
        &mut stats,
    );
    out.extend_from_slice(&w.into_bytes());
    stats.output_bytes = out.len() as u64;
    (out, stats)
}

/// Decompresses a matrix produced by [`compress_matrix`].
///
/// `reference` must be the same `M_{t+1}` values used at compression time.
///
/// # Errors
///
/// Returns [`CompressError`] on truncation, header inconsistency, or
/// checksum mismatch.
pub fn decompress_matrix(
    bytes: &[u8],
    reference: &[f64],
    maps: &StampMaps,
) -> Result<Vec<f64>, CompressError> {
    let nnz = maps.order().len();
    if reference.len() != nnz {
        return Err(CompressError::Corrupt("reference length != pattern nnz"));
    }
    let header = parse_header(bytes, nnz)?;
    if header.chunked {
        return Err(CompressError::Corrupt(
            "chunked stream passed to the serial decoder",
        ));
    }
    let zeros;
    let reference: &[f64] = if header.seeded {
        zeros = vec![0.0f64; nnz];
        &zeros
    } else {
        reference
    };
    let mut out = vec![0.0f64; nnz];
    let payload = bytes
        .get(header.payload_offset..)
        .ok_or(CompressError::Corrupt("payload offset past end of stream"))?;
    let mut r = BitReader::new(payload);
    decode_range(&mut r, &mut out, reference, maps, &header.params, 0..nnz)?;
    if let Some(expected) = header.expected_checksum {
        if checksum(&out) != expected {
            return Err(CompressError::ChecksumMismatch);
        }
    }
    Ok(out)
}

#[cfg(test)]
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
        #[allow(clippy::needless_range_loop)]
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

    fn check_round_trip(values: &[f64], reference: &[f64], maps: &StampMaps, config: &MascConfig) {
        let (bytes, _) = compress_matrix(values, reference, maps, config);
        let out = decompress_matrix(&bytes, reference, maps).expect("decompress");
        for (i, (a, b)) in values.iter().zip(&out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "value {i} differs");
        }
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
        let warmups = region_warmups(&maps, 0..p.nnz(), &params);
        let mut counts = [0usize; 3];
        for i in 0..p.nnz() {
            counts[maps.region_of(maps.order()[i]).index()] += 1;
        }
        assert_eq!(warmups, counts);
        // An empty range gets an all-zero budget.
        assert_eq!(region_warmups(&maps, 0..0, &params), [0; 3]);
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
            let (bytes, _) = compress_matrix(&cur, &reference, &maps, &config);
            let out = decompress_matrix(&bytes, &reference, &maps).unwrap();
            for (a, b) in cur.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
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
        assert!(mk_stats.markov_accuracy() <= 1.0);
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
}
