//! Wire-format compatibility: golden era-2 chunked streams must keep
//! decoding bit-exactly forever; the kept era-0 serial and era-1 chunked
//! streams must keep failing with a structured error.
//!
//! The fixture inputs are regenerated in-test from a fixed LCG (no
//! transcendentals, so the values are reproducible to the bit on any
//! platform); the compressed fixtures under `tests/corpus_v1/` (pre-era-2
//! encoders) and `tests/corpus_v2/` (era-2 encoder) are frozen artifacts
//! and must never be regenerated.

use masc_compress::{
    compress_matrix, decompress_matrix, CompressError, CompressedTensor, MascConfig, StampMaps,
    TensorCompressor,
};
use masc_sparse::{Pattern, TripletMatrix};
use std::sync::Arc;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Deterministic Jacobian-like values: sign structure plus a small wobble
/// derived from integer arithmetic only.
fn jac_values(nnz: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..nnz)
        .map(|k| {
            let wob = ((lcg(&mut s) >> 11) as f64) / (1u64 << 53) as f64;
            let sign = if k % 5 == 0 { 2.0 } else { -1.0 };
            sign * 1e-3 * (1.0 + 1e-4 * wob)
        })
        .collect()
}

fn banded_pattern(n: usize, band: usize) -> Arc<Pattern> {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        for j in i.saturating_sub(band)..(i + band + 1).min(n) {
            t.add(i, j, 1.0);
        }
    }
    t.to_csr().pattern().clone()
}

/// The fixed input corpus: (pattern, current values, reference values).
fn matrix_inputs() -> (Arc<Pattern>, Vec<f64>, Vec<f64>) {
    let p = banded_pattern(40, 2);
    let cur = jac_values(p.nnz(), 0x4D41_5343_0001);
    let reference = jac_values(p.nnz(), 0x4D41_5343_0002);
    (p, cur, reference)
}

/// The fixed tensor series: 6 steps over a 25-node tridiagonal pattern.
fn tensor_inputs() -> (Arc<Pattern>, Vec<Vec<f64>>) {
    let p = banded_pattern(25, 1);
    let series = (0..6u64)
        .map(|s| jac_values(p.nnz(), 0x7454_0000 + s))
        .collect();
    (p, series)
}

// Minting configs:
// - corpus_v1/serial_default.bin         era-0 serial, MascConfig::default()
// - corpus_v1/chunked_17.bin             era-1 chunked, chunked_cfg(17)
// - corpus_v2/chunked_headers_17.bin     era-2, chunked_cfg(17)
// - corpus_v2/tensor_default.bin         era-2 tensor, MascConfig::default()
fn chunked_cfg(chunk_size: usize) -> MascConfig {
    MascConfig {
        chunk_size,
        markov_min_warmup: 4,
        ..MascConfig::default()
    }
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus_v1")
}

fn fixture(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn assert_bits_eq(decoded: &[f64], expected: &[f64]) {
    assert_eq!(decoded.len(), expected.len());
    for (i, (a, b)) in decoded.iter().zip(expected).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "value {i} differs");
    }
}

/// The matrix decoder (which the backward tensor decoder calls per block)
/// on a pre-era-2 stream: the one structured rejection.
fn assert_pre_era_2_rejected(bytes: &[u8]) {
    let (p, _, reference) = matrix_inputs();
    let maps = StampMaps::new(&p);
    match decompress_matrix(bytes, &reference, &maps) {
        Err(CompressError::Corrupt(why)) => {
            assert!(why.starts_with("pre-era-2 stream"), "{why}")
        }
        other => panic!("expected pre-era-2 rejection, got {other:?}"),
    }
}

/// Era-0 serial streams (neither chunk flag) are no longer readable.
#[test]
fn v1_serial_fixture_is_rejected_as_era_0() {
    assert_pre_era_2_rejected(&fixture("serial_default.bin"));
}

/// Era-1 chunked streams (`FLAG_CHUNKED` without `FLAG_CHUNK_HEADERS`) are
/// no longer readable either.
#[test]
fn v1_chunked_fixture_is_rejected_as_era_1() {
    assert_pre_era_2_rejected(&fixture("chunked_17.bin"));
}

#[test]
fn v1_truncated_fixtures_error_not_panic() {
    let (p, _, reference) = matrix_inputs();
    let maps = StampMaps::new(&p);
    let bytes = fixture("chunked_17.bin");
    for cut in [0, 1, 2, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            decompress_matrix(&bytes[..cut], &reference, &maps).is_err(),
            "cut {cut} should fail"
        );
    }
}

// ---------------------------------------------------------------------------
// Era sniff on hostile short streams
// ---------------------------------------------------------------------------
//
// The decoder reads the era off the first header byte: only era 2 (both
// FLAG_CHUNKED and FLAG_CHUNK_HEADERS) decodes. *Every* strict prefix of a
// valid stream — any era — must come back as a structured error: never a
// panic, and never a misclassified decode that "succeeds" on garbage.

fn corpus_v2_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus_v2")
}

fn fixture_v2(name: &str) -> Vec<u8> {
    let path = corpus_v2_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// Mints the `corpus_v2/` fixtures — the era-2 encodings of the same fixed
/// matrix inputs as the era-1 corpus, and of the fixed tensor series.
/// Frozen once; rerun only to create the files on a fresh checkout of the
/// revision that introduced them, or into a scratch copy to check that
/// today's encoder still emits the same bytes — never to regenerate them:
///
/// ```sh
/// MASC_MINT_V2=1 cargo test -p masc-compress --test format_compat mint_v2
/// ```
#[test]
fn mint_v2_fixtures() {
    if std::env::var_os("MASC_MINT_V2").is_none() {
        return;
    }
    let (p, cur, reference) = matrix_inputs();
    let maps = StampMaps::new(&p);
    let (bytes, _) = compress_matrix(&cur, &reference, &maps, &chunked_cfg(17));
    std::fs::create_dir_all(corpus_v2_dir()).unwrap();
    std::fs::write(corpus_v2_dir().join("chunked_headers_17.bin"), bytes).unwrap();
    let (p, series) = tensor_inputs();
    let mut tc = TensorCompressor::new(p, MascConfig::default());
    for m in &series {
        tc.push(m);
    }
    let tensor = tc.finish().to_bytes();
    std::fs::write(corpus_v2_dir().join("tensor_default.bin"), tensor).unwrap();
}

#[test]
fn v2_chunk_header_fixture_decodes_bit_exact() {
    let (p, cur, reference) = matrix_inputs();
    let maps = StampMaps::new(&p);
    let bytes = fixture_v2("chunked_headers_17.bin");
    // Era-2 signature: FLAG_CHUNKED (1<<3) and FLAG_CHUNK_HEADERS (1<<5)
    // both set in the first header byte.
    assert_eq!(bytes[0] & (1 << 3), 1 << 3, "era-2 stream must be chunked");
    assert_eq!(
        bytes[0] & (1 << 5),
        1 << 5,
        "era-2 stream carries chunk headers"
    );
    let out = decompress_matrix(&bytes, &reference, &maps).unwrap();
    assert_bits_eq(&out, &cur);
}

#[test]
fn v2_tensor_fixture_decodes_bit_exact() {
    let (_, series) = tensor_inputs();
    let tensor = CompressedTensor::from_bytes(&fixture_v2("tensor_default.bin")).unwrap();
    assert_eq!(tensor.len(), series.len());
    let all = tensor.decompress_all().unwrap();
    for (a, b) in all.iter().zip(&series) {
        assert_bits_eq(a, b);
    }
    let mut back = tensor.into_backward();
    while let Some((step, values)) = back.next_matrix().unwrap() {
        assert_bits_eq(&values, &series[step]);
    }
}

/// Every strict prefix of every matrix fixture — the rejected era-0 and
/// era-1 streams and the era-2 one — fed to the decoder: structured error,
/// no panic, no bogus success.
#[test]
fn era_sniff_every_prefix_truncation_errors() {
    let (p, _, reference) = matrix_inputs();
    let maps = StampMaps::new(&p);
    let fixtures: Vec<(&str, Vec<u8>)> = vec![
        ("serial_default.bin", fixture("serial_default.bin")),
        ("chunked_17.bin", fixture("chunked_17.bin")),
        (
            "v2/chunked_headers_17.bin",
            fixture_v2("chunked_headers_17.bin"),
        ),
    ];
    for (name, bytes) in &fixtures {
        for cut in 0..bytes.len() {
            let result = decompress_matrix(&bytes[..cut], &reference, &maps);
            assert!(
                result.is_err(),
                "{name} truncated to {cut}/{} bytes must error, got Ok",
                bytes.len()
            );
        }
    }
}

/// Every strict prefix of the tensor fixture must fail structured —
/// either at `from_bytes` framing or when the surviving blocks decode.
#[test]
fn tensor_every_prefix_truncation_errors() {
    let bytes = fixture_v2("tensor_default.bin");
    for cut in 0..bytes.len() {
        let result = CompressedTensor::from_bytes(&bytes[..cut]).and_then(|t| t.decompress_all());
        assert!(
            result.is_err(),
            "tensor_default.bin truncated to {cut}/{} bytes must error, got Ok",
            bytes.len()
        );
    }
}
