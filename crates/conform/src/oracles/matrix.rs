//! Chunked-matrix (era-2 wire format) oracles.
//!
//! The per-chunk-header format exists so chunks decode independently; its
//! safety story is that every header field is validated before any
//! payload is touched. `chunked-roundtrip` checks losslessness, and that a
//! seeded stream ignores the caller's reference; `chunked-headers` feeds
//! mutated and arbitrary streams to the decoder, which must reject them
//! with a structured error — never a panic, never an out-of-bounds
//! scatter.

use crate::geninput;
use crate::oracle::Oracle;
use masc_compress::{
    compress_matrix, compress_matrix_seeded, decompress_matrix, MascConfig, StampMaps,
};
use masc_sparse::{Pattern, TripletMatrix};
use masc_testkit::Rng;
use std::sync::Arc;

/// Wire header: n, band, flags, chunk lo, chunk hi. Flag bits 3–4 once
/// chose a worker count and are ignored, so recorded cases replay as-is.
const HEADER_LEN: usize = 5;

/// Banded `n × n` pattern with half-bandwidth `band`.
fn banded_pattern(n: usize, band: usize) -> Arc<Pattern> {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        for j in i.saturating_sub(band)..(i + band + 1).min(n) {
            t.add(i, j, 1.0);
        }
    }
    t.to_csr().pattern().clone()
}

struct MatrixCase {
    maps: StampMaps,
    config: MascConfig,
    seeded: bool,
    values: Vec<f64>,
    reference: Vec<f64>,
}

fn read_values(payload: &[u8], offset: usize, nnz: usize) -> Vec<f64> {
    (0..nnz)
        .map(|k| {
            let i = offset + k;
            let mut bits = [0u8; 8];
            for (b, slot) in bits.iter_mut().enumerate() {
                *slot = payload
                    .get((i * 8 + b) % payload.len().max(1))
                    .copied()
                    .unwrap_or((i as u8).wrapping_mul(41).wrapping_add(b as u8));
            }
            f64::from_le_bytes(bits)
        })
        .collect()
}

fn decode_case(input: &[u8]) -> Option<MatrixCase> {
    let header = input.get(..HEADER_LEN)?;
    let n = 1 + (header[0] as usize) % 12;
    let band = (header[1] as usize) % n.min(3);
    let flags = header[2];
    let chunk_size = (usize::from(header[3]) | usize::from(header[4]) << 8) % 65;
    let pattern = banded_pattern(n, band);
    let nnz = pattern.nnz();
    let config = MascConfig {
        markov: flags & 1 != 0,
        sign_invert_diag: flags & 2 != 0,
        checksum: flags & 4 != 0,
        chunk_size,
        ..MascConfig::default()
    };
    let payload = &input[HEADER_LEN..];
    Some(MatrixCase {
        maps: StampMaps::new(&pattern),
        config,
        seeded: flags & 0x80 != 0,
        values: read_values(payload, 0, nnz),
        reference: read_values(payload, nnz, nnz),
    })
}

fn generate_case(rng: &mut Rng) -> Vec<u8> {
    let mut out = vec![
        rng.next_u32() as u8,
        rng.next_u32() as u8,
        rng.next_u32() as u8,
        rng.next_u32() as u8,
        rng.next_u32() as u8,
    ];
    // Smooth-series payload with occasional raw-bit specials.
    let values = rng.range_usize(0, 500);
    let mut v = 1.0f64;
    for _ in 0..values {
        v += rng.range_f64(-1.0, 1.0) * 1e-3;
        let out_v = match rng.below(12) {
            0 => f64::from_bits(rng.next_u64()),
            1 => -v,
            _ => v,
        };
        out.extend_from_slice(&out_v.to_le_bytes());
    }
    out
}

/// The era-2 chunked codec is lossless, and a seeded stream must decode
/// identically under any caller-supplied reference.
pub struct ChunkedRoundtrip;

impl Oracle for ChunkedRoundtrip {
    fn name(&self) -> &'static str {
        "chunked-roundtrip"
    }

    fn describe(&self) -> &'static str {
        "era-2 chunked matrix lossless, seeded stream reference-free"
    }

    fn generate(&self, rng: &mut Rng) -> Vec<u8> {
        generate_case(rng)
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let Some(case) = decode_case(input) else {
            return Ok(());
        };
        let bytes = if case.seeded {
            compress_matrix_seeded(&case.values, &case.maps, &case.config).0
        } else {
            compress_matrix(&case.values, &case.reference, &case.maps, &case.config).0
        };
        // A seeded stream must ignore the reference; an unseeded one
        // needs the true reference back.
        let reference = if case.seeded {
            &case.values // deliberately not the all-zero vector it was encoded against
        } else {
            &case.reference
        };
        let out = decompress_matrix(&bytes, reference, &case.maps)
            .map_err(|e| format!("decode of our own stream failed: {e:?}"))?;
        if out.len() != case.values.len() {
            return Err("decoded length mismatch".to_string());
        }
        for (k, (a, b)) in case.values.iter().zip(&out).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!("value mismatch at nnz index {k}"));
            }
        }
        Ok(())
    }
}

/// Hostile per-chunk headers: the era-2 decoder must reject corrupted and
/// arbitrary streams with a structured error, never a panic.
pub struct ChunkedHeaderDecode;

impl Oracle for ChunkedHeaderDecode {
    fn name(&self) -> &'static str {
        "chunked-headers"
    }

    fn describe(&self) -> &'static str {
        "era-2 per-chunk headers survive mutation panic-free"
    }

    fn generate(&self, rng: &mut Rng) -> Vec<u8> {
        let mut case = generate_case(rng);
        if rng.below(4) == 0 {
            // Pure noise exercises the outer header validation.
            return geninput::structured_bytes(rng, 300);
        }
        // Otherwise: a valid case whose *encoded stream* gets mutated in
        // check() — mutate the case bytes here too so header fields
        // (chunk size, flags) roam.
        geninput::mutate(rng, &mut case);
        case
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let Some(case) = decode_case(input) else {
            // Too short for a case: treat the raw input as a stream.
            return Ok(());
        };
        let (bytes, _) = compress_matrix(&case.values, &case.reference, &case.maps, &case.config);
        // Deterministic single-byte corruptions of a valid stream: every
        // header field and payload byte gets hit as the corpus roams.
        let mut hostile = bytes.clone();
        for i in 0..hostile.len() {
            let flip = input
                .get(i % input.len().max(1))
                .copied()
                .unwrap_or(0xFF)
                .wrapping_add(1);
            let orig = hostile[i];
            hostile[i] ^= flip;
            let _ = decompress_matrix(&hostile, &case.reference, &case.maps);
            hostile[i] = orig;
        }
        // Truncations at every prefix length.
        for len in 0..bytes.len() {
            let _ = decompress_matrix(&bytes[..len], &case.reference, &case.maps);
        }
        // And the fuzz input itself as a stream.
        let _ = decompress_matrix(input, &case.reference, &case.maps);
        Ok(())
    }
}
