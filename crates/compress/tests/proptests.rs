//! Property tests: the MASC compressor's central claim is *bit-exact
//! losslessness* for arbitrary values over arbitrary patterns
//! (masc-testkit).

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_compress::{
    compress_matrix, decompress_matrix, CompressError, MascConfig, StampMaps, TensorCompressor,
};
use masc_sparse::{Pattern, TripletMatrix};
use masc_testkit::gen::{self, Gen};
use masc_testkit::rng::Rng;
use masc_testkit::{prop, prop_assert_eq};
use std::sync::Arc;

/// Arbitrary sparse square patterns (mix of symmetric and ragged).
fn patterns() -> impl Gen<Value = Arc<Pattern>> {
    gen::sparse_coords(2..20, 80).map(|(n, coords)| {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 0.0); // diagonals usually exist in MNA
        }
        for (r, c) in coords {
            t.add(r, c, 0.0);
        }
        t.to_csr().pattern().clone()
    })
}

/// Tiny patterns (1×1 up to 4×4) whose regions hold far fewer elements
/// than any realistic Markov warm-up budget.
fn tiny_patterns() -> impl Gen<Value = Arc<Pattern>> {
    gen::sparse_coords(1..5, 6).map(|(n, coords)| {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 0.0);
        }
        for (r, c) in coords {
            t.add(r, c, 0.0);
        }
        t.to_csr().pattern().clone()
    })
}

/// Value vectors including special floats.
fn values(nnz: usize) -> impl Gen<Value = Vec<f64>> {
    gen::vecs(gen::f64_payloads(), nnz..nnz + 1)
}

fn configs() -> impl Gen<Value = MascConfig> {
    gen::from_fn(|rng| MascConfig {
        markov: rng.bool(),
        markov_min_warmup: rng.range_usize(1, 40),
        sign_invert_diag: rng.bool(),
        checksum: rng.bool(),
        ..MascConfig::default()
    })
}

prop! {
    #![cases = 64]

    /// The production shape: one chunk (the default `chunk_size`) under
    /// every header mode.
    fn matrix_round_trip_is_bit_exact(
        (pattern, values, reference, config) in patterns().flat_map(|p| {
            let nnz = p.nnz();
            (gen::just(p), values(nnz), values(nnz), configs())
        })
    ) {
        let maps = StampMaps::new(&pattern);
        let (bytes, stats) = compress_matrix(&values, &reference, &maps, &config);
        prop_assert_eq!(stats.total_values(), values.len() as u64);
        let out = decompress_matrix(&bytes, &reference, &maps).unwrap();
        for (a, b) in values.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The adversarial chunk sizes: `0` (clamped to 1), small awkward
    /// sizes, `nnz` (exactly one chunk) and `nnz + 1` (one chunk with
    /// slack), under every header mode.
    fn chunked_round_trip_is_bit_exact(
        (pattern, values, reference, chunk, config) in patterns().flat_map(|p| {
            let nnz = p.nnz();
            let chunks = gen::one_of(vec![
                gen::range_usize(0, 30).boxed(),
                gen::just(nnz).boxed(),
                gen::just(nnz + 1).boxed(),
            ]);
            (gen::just(p), values(nnz), values(nnz), chunks, configs())
        })
    ) {
        let maps = StampMaps::new(&pattern);
        let config = MascConfig { chunk_size: chunk, ..config };
        let (bytes, stats) = compress_matrix(&values, &reference, &maps, &config);
        prop_assert_eq!(stats.total_values(), values.len() as u64);
        let out = decompress_matrix(&bytes, &reference, &maps).unwrap();
        for (a, b) in values.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Markov warm-up clamp: a `markov_min_warmup` far beyond any
    /// region's element count must clamp to the region (and chunk) length,
    /// down to 1×1 matrices.
    fn oversized_markov_warmup_round_trips(
        (pattern, values, reference, warmup, chunk) in tiny_patterns().flat_map(|p| {
            let nnz = p.nnz();
            (
                gen::just(p),
                values(nnz),
                values(nnz),
                gen::range_usize(50, 100_000),
                gen::range_usize(1, 8),
            )
        })
    ) {
        let maps = StampMaps::new(&pattern);
        let config = MascConfig {
            markov: true,
            markov_min_warmup: warmup,
            chunk_size: chunk,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix(&values, &reference, &maps, &config);
        let out = decompress_matrix(&bytes, &reference, &maps).unwrap();
        for (a, b) in values.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Degenerate chunk shapes: chunk_size 0 (clamped to 1 by the codec)
    /// and one- or two-element chunks must round-trip bit-exactly.
    fn degenerate_chunk_shapes_round_trip(
        (pattern, values, reference, chunk) in patterns().flat_map(|p| {
            let nnz = p.nnz();
            (gen::just(p), values(nnz), values(nnz), gen::range_usize(0, 3))
        })
    ) {
        let maps = StampMaps::new(&pattern);
        let config = MascConfig {
            chunk_size: chunk,
            markov_min_warmup: 2,
            ..MascConfig::default()
        };
        let (bytes, _) = compress_matrix(&values, &reference, &maps, &config);
        let out = decompress_matrix(&bytes, &reference, &maps).unwrap();
        for (a, b) in values.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    fn tensor_backward_replay_is_exact(
        (pattern, series) in patterns().flat_map(|p| {
            let nnz = p.nnz();
            let series = gen::vecs(values(nnz), 1..8);
            (gen::just(p), series)
        })
    ) {
        let mut tc = TensorCompressor::new(pattern, MascConfig {
            markov_min_warmup: 4,
            ..MascConfig::default()
        });
        for m in &series {
            tc.push(m);
        }
        let tensor = tc.finish();
        prop_assert_eq!(tensor.len(), series.len());
        let mut back = tensor.into_backward();
        let mut step_expect = series.len();
        while let Some((step, values)) = back.next_matrix().unwrap() {
            step_expect -= 1;
            prop_assert_eq!(step, step_expect);
            for (a, b) in series[step].iter().zip(&values) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        prop_assert_eq!(step_expect, 0);
    }

    fn truncation_never_panics(
        (pattern, values, cut_frac) in patterns().flat_map(|p| {
            let nnz = p.nnz();
            (gen::just(p), values(nnz), gen::range_f64(0.0, 1.0))
        })
    ) {
        let maps = StampMaps::new(&pattern);
        let reference = vec![0.0; values.len()];
        let (bytes, _) = compress_matrix(&values, &reference, &maps, &MascConfig::default());
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Either a clean error or (for cuts in the zero-padded tail) a
        // successful decode — never a panic.
        let _ = decompress_matrix(&bytes[..cut.min(bytes.len())], &reference, &maps);
    }
}

/// The decoder must reject a stream whose header lacks the era-2 chunk
/// flags — an era-0 serial or era-1 chunked header — with a structured
/// error, not a panic.
#[test]
fn chunked_decoder_rejects_serial_stream_with_structured_error() {
    const FLAG_CHUNKED: u8 = 1 << 3;
    const FLAG_CHUNK_HEADERS: u8 = 1 << 5;
    let mut rng = Rng::new(0x434B_4644);
    let g = patterns();
    for _ in 0..16 {
        let pattern = g.generate(&mut rng);
        let maps = StampMaps::new(&pattern);
        let vals: Vec<f64> = (0..pattern.nnz()).map(|i| (i as f64 * 0.3).sin()).collect();
        let reference = vec![0.0; vals.len()];
        let (bytes, _) = compress_matrix(&vals, &reference, &maps, &MascConfig::default());
        for clear in [FLAG_CHUNKED | FLAG_CHUNK_HEADERS, FLAG_CHUNK_HEADERS] {
            let mut old = bytes.clone();
            old[0] &= !clear;
            match decompress_matrix(&old, &reference, &maps) {
                Err(CompressError::Corrupt(_)) => {}
                other => panic!("decoder on a pre-era-2 header: {other:?}"),
            }
        }
    }
}
