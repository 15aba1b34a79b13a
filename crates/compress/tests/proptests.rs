//! Property tests: the MASC compressor's central claim is *bit-exact
//! losslessness* for arbitrary values over arbitrary patterns
//! (masc-testkit).

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_bitio::{BitReader, BitWriter};
use masc_compress::matrix::selection_bit_count;
use masc_compress::{
    compress_matrix, decompress_matrix, CompressError, MascConfig, Region, StampMaps,
    TensorCompressor,
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

/// Square patterns with no structure promised: unsymmetric, diagonals
/// missing or partial, empty rows, down to 1×1.
fn ragged_patterns() -> impl Gen<Value = Arc<Pattern>> {
    (gen::sparse_coords(1..12, 40), gen::range_usize(0, 3)).map(|((n, coords), diag)| {
        let mut t = TripletMatrix::new(n, n);
        for i in (0..n).filter(|i| diag == 2 || (diag == 1 && i % 3 != 1)) {
            t.add(i, i, 0.0);
        }
        for (r, c) in coords {
            t.add(r, c, 0.0);
        }
        t.to_csr().pattern().clone()
    })
}

/// The chunk sizes the predictor plan must confine reads to.
fn chunk_sizes(nnz: usize) -> impl Gen<Value = usize> {
    gen::one_of(
        [1, 2, 7, 64, nnz.max(1), nnz + 1]
            .into_iter()
            .map(|c| gen::just(c).boxed())
            .collect(),
    )
}

/// The region of value `k`, from its row and column.
fn region_of(p: &Pattern, k: usize) -> Region {
    let (row, col) = (p.row_of(k), p.col_idx()[k]);
    match row.cmp(&col) {
        std::cmp::Ordering::Equal => Region::Diag,
        std::cmp::Ordering::Greater => Region::Lower,
        std::cmp::Ordering::Less => Region::Upper,
    }
}

/// Eq. 6 straight off the pattern: the prediction of `code` for the value
/// at order position `pos`, reading the value-ordered current matrix. A
/// partner is usable when it sits in `chunk_start..pos`; the diagonal
/// partners of off-diagonal values are taken times ±1.0, the others copied.
#[expect(clippy::too_many_arguments, reason = "the predictor's full input")]
fn eq6_oracle(
    p: &Pattern,
    order: &[usize],
    pos: usize,
    code: u32,
    reference: &[f64],
    current: &[f64],
    sign_invert: bool,
    chunk_start: usize,
) -> f64 {
    let k = order[pos];
    let temporal = reference.get(k).copied().unwrap_or(0.0);
    let (row, col) = (p.row_of(k), p.col_idx()[k]);
    let (d_row, d_col) = (p.diag_of(row), p.diag_of(col));
    let slots = match region_of(p, k) {
        Region::Diag => {
            let prev_diag = (0..row).rev().find_map(|r| p.diag_of(r));
            [(prev_diag, false), (None, false), (None, false)]
        }
        Region::Lower => {
            let prev_in_row = (p.row_ptr()[row]..k).rev().find(|&j| p.col_idx()[j] < row);
            [(d_row, true), (d_col, true), (prev_in_row, false)]
        }
        Region::Upper => [(p.transpose_of(k), false), (d_row, true), (d_col, true)],
    };
    let Some(&(partner, scaled)) = (code as usize).checked_sub(1).and_then(|s| slots.get(s)) else {
        return temporal;
    };
    // The product by ±1.0 as x86-64 computes it: a NaN is quieted and
    // keeps its sign, a number is negated or kept.
    let times_unit = |v: f64| match (v.is_nan(), sign_invert) {
        (true, _) => f64::from_bits(v.to_bits() | 0x0008_0000_0000_0000),
        (false, true) => -v,
        (false, false) => v,
    };
    match partner
        .filter(|&j| (chunk_start..pos).contains(&order.iter().position(|&x| x == j).unwrap()))
    {
        Some(j) if scaled => times_unit(current[j]),
        Some(j) => current[j],
        None => temporal,
    }
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

prop! {
    #![cases = 64]

    /// The position-indexed plan predicts exactly what eq. 6 read off the
    /// pattern predicts, for every position, code and sign mode, with reads
    /// confined to the chunk — against a reference and against none (a
    /// seed block's all-zero one).
    fn plan_predictions_match_eq6(
        (pattern, current, reference, chunk) in ragged_patterns().flat_map(|p| {
            let nnz = p.nnz();
            (gen::just(p), values(nnz), values(nnz), chunk_sizes(nnz))
        })
    ) {
        let maps = StampMaps::new(&pattern);
        let order = maps.order();
        let mut expected_order: Vec<usize> = Vec::new();
        for region in [Region::Diag, Region::Lower, Region::Upper] {
            expected_order.extend((0..pattern.nnz()).filter(|&k| region_of(&pattern, k) == region));
        }
        prop_assert_eq!(order, expected_order.as_slice());
        for chunk_start in (0..order.len()).step_by(chunk) {
            let chunk_end = (chunk_start + chunk).min(order.len());
            let local: Vec<f64> = order[chunk_start..chunk_end].iter().map(|&k| current[k]).collect();
            for pos in chunk_start..chunk_end {
                prop_assert_eq!(maps.region_at(pos), region_of(&pattern, order[pos]));
                for (code, sign_invert, reference) in (0..4)
                    .flat_map(|c| [(c, false), (c, true)])
                    .flat_map(|(c, s)| [(c, s, &reference[..]), (c, s, &[][..])])
                {
                    let plan = maps.predict(pos, code, reference, &local, sign_invert, chunk_start);
                    let oracle = eq6_oracle(
                        &pattern, order, pos, code, reference, &current, sign_invert, chunk_start,
                    );
                    prop_assert_eq!(plan.to_bits(), oracle.to_bits());
                }
            }
        }
    }

    /// The O(1) selection-bit count equals the per-value count of the
    /// warm-up walk, with Markov on and off.
    fn selection_bits_match_a_per_value_count(
        (pattern, chunk, config) in ragged_patterns().flat_map(|p| {
            let nnz = p.nnz();
            (gen::just(p), chunk_sizes(nnz), configs())
        })
    ) {
        let maps = StampMaps::new(&pattern);
        let order = maps.order();
        let permille = (config.markov_warmup_frac.clamp(0.0, 1.0) * 1000.0).round() as u64;
        for start in (0..order.len()).step_by(chunk) {
            let range = start..(start + chunk).min(order.len());
            let regions: Vec<Region> = order[range.clone()].iter().map(|&k| region_of(&pattern, k)).collect();
            let mut warmups = [usize::MAX; 3];
            if config.markov {
                for (r, w) in warmups.iter_mut().enumerate() {
                    let count = regions.iter().filter(|g| g.index() == r).count();
                    let frac = (count as u64 * permille).div_ceil(1000) as usize;
                    *w = frac.max(config.markov_min_warmup).min(count);
                }
            }
            let mut seen = [0usize; 3];
            let mut bits = 0u64;
            for region in regions {
                if seen[region.index()] < warmups[region.index()] {
                    seen[region.index()] += 1;
                    bits += u64::from(region.selection_bits());
                }
            }
            prop_assert_eq!(selection_bit_count(&maps, range, &config), bits);
        }
    }

    /// A run of ones read at once ends where a bit-by-bit read ends —
    /// before a zero, at `max`, or at the end of the stream (also past 64
    /// bits and across bytes) — and the next read then fails or succeeds
    /// exactly as it would have.
    fn run_of_ones_matches_bit_by_bit_reads(
        (bits, start, maxes) in gen::from_fn(|rng| {
            let mut bits = Vec::new();
            for _ in 0..rng.range_usize(0, 8) {
                bits.extend(std::iter::repeat_n(true, rng.range_usize(0, 150)));
                bits.extend(std::iter::repeat_n(false, rng.range_usize(0, 3)));
            }
            let start = rng.range_usize(0, bits.len() + 2);
            let maxes: Vec<usize> = (0..6).map(|_| rng.range_usize(0, 200)).collect();
            (bits, start, maxes)
        })
    ) {
        let mut w = BitWriter::new();
        for &bit in &bits {
            w.write_bit(bit);
        }
        let bytes = w.into_bytes();
        let mut fast = BitReader::at_bit(&bytes, start);
        let mut slow = BitReader::at_bit(&bytes, start);
        for max in maxes {
            let run = fast.read_ones(max);
            let mut expect = 0;
            while expect < max && slow.clone().read_bit() == Ok(true) {
                slow.read_bit().unwrap();
                expect += 1;
            }
            prop_assert_eq!(run, expect);
            prop_assert_eq!(fast.bit_pos(), slow.bit_pos());
            prop_assert_eq!(fast.read_bit(), slow.read_bit());
        }
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
