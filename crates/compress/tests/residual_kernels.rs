//! Batched residual kernels vs. the scalar reference (ISSUE 6 satellite).
//!
//! The u64-lane kernels ([`masc_compress::lanes`]) and the batched residual
//! encoder must be bit-exact drop-ins for the scalar expressions they
//! replace, on every float class a Jacobian can contain — subnormals,
//! ±0.0, NaNs with arbitrary payload bits, infinities — and on every
//! misaligned tail length around the lane width.

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_bitio::{BitReader, BitWriter};
use masc_compress::lanes::{classify_residuals, xor_residuals, LANES};
use masc_compress::residual::{
    decode_residual, encode_residual, encode_residuals_batched, ResidualState,
};
use masc_compress::CompressStats;
use masc_testkit::gen::{self, Gen};
use masc_testkit::{prop, prop_assert_eq};

/// Payload vectors whose lengths deliberately straddle the lane width.
fn payloads() -> impl Gen<Value = Vec<f64>> {
    gen::vecs(gen::f64_payloads(), 0..3 * LANES + 2)
}

fn scalar_encode(residuals: &[u64]) -> (Vec<u8>, CompressStats) {
    let mut stats = CompressStats::new();
    let mut w = BitWriter::new();
    let mut state = ResidualState::new();
    for &res in residuals {
        encode_residual(&mut w, &mut state, res, &mut stats);
    }
    (w.into_bytes(), stats)
}

fn batched_encode(residuals: &[u64]) -> (Vec<u8>, CompressStats) {
    let mut lz = vec![0u8; residuals.len()];
    let mut tz = vec![0u8; residuals.len()];
    classify_residuals(residuals, &mut lz, &mut tz);
    let mut stats = CompressStats::new();
    let mut w = BitWriter::new();
    let mut state = ResidualState::new();
    encode_residuals_batched(&mut w, &mut state, residuals, &lz, &tz, &mut stats);
    (w.into_bytes(), stats)
}

prop! {
    #![cases = 128]

    /// XOR kernel: identical to the scalar expression on hostile payloads
    /// with hostile predictions.
    fn xor_kernel_matches_scalar(
        (values, preds) in payloads().flat_map(|v| {
            let n = v.len();
            (gen::just(v), gen::vecs(gen::f64_payloads(), n..n + 1))
        })
    ) {
        let pred_bits: Vec<u64> = preds.iter().map(|p| p.to_bits()).collect();
        let mut out = vec![0u64; values.len()];
        xor_residuals(&values, &pred_bits, &mut out);
        for (i, (v, p)) in values.iter().zip(&pred_bits).enumerate() {
            prop_assert_eq!(out[i], v.to_bits() ^ p, "lane {}", i);
        }
    }

    /// Classifier kernel: leading/trailing zero counts match `u64`'s own,
    /// including the all-zero (64, 64) convention.
    fn classify_kernel_matches_scalar(values in payloads()) {
        let residuals: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let mut lz = vec![0u8; residuals.len()];
        let mut tz = vec![0u8; residuals.len()];
        classify_residuals(&residuals, &mut lz, &mut tz);
        for (i, &r) in residuals.iter().enumerate() {
            prop_assert_eq!(u32::from(lz[i]), r.leading_zeros(), "lz lane {}", i);
            prop_assert_eq!(u32::from(tz[i]), r.trailing_zeros(), "tz lane {}", i);
        }
    }

    /// Batched encoder: byte-identical stream and identical stats to the
    /// scalar element-at-a-time encoder, and the shared decoder recovers
    /// every residual.
    fn batched_encoder_matches_scalar_stream(
        (values, preds) in payloads().flat_map(|v| {
            let n = v.len();
            (gen::just(v), gen::vecs(gen::f64_payloads(), n..n + 1))
        })
    ) {
        // Residuals from realistic prediction pairs: XOR of two hostile
        // floats, which produces the full mix of zero runs, short windows,
        // and dense-mantissa patterns.
        let residuals: Vec<u64> = values
            .iter()
            .zip(&preds)
            .map(|(v, p)| v.to_bits() ^ p.to_bits())
            .collect();
        let (scalar_bytes, scalar_stats) = scalar_encode(&residuals);
        let (batched_bytes, batched_stats) = batched_encode(&residuals);
        prop_assert_eq!(&scalar_bytes, &batched_bytes);
        prop_assert_eq!(scalar_stats.zero_residuals, batched_stats.zero_residuals);
        prop_assert_eq!(scalar_stats.shared_windows, batched_stats.shared_windows);

        let mut r = BitReader::new(&batched_bytes);
        let mut state = ResidualState::new();
        for (i, &want) in residuals.iter().enumerate() {
            prop_assert_eq!(decode_residual(&mut r, &mut state).unwrap(), want, "residual {}", i);
        }
    }

    /// Zero-run batching: streams dominated by exact repeats (the common
    /// case for linear-device stamps) hit the 64-bit run fast path; the
    /// bytes must still match the scalar encoder.
    fn batched_encoder_matches_scalar_on_sparse_streams(
        (len, nonzero_every) in (gen::range_usize(0, 400), gen::range_usize(1, 9))
    ) {
        let residuals: Vec<u64> = (0..len)
            .map(|i| {
                if i % nonzero_every == 0 {
                    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                } else {
                    0
                }
            })
            .collect();
        let (scalar_bytes, _) = scalar_encode(&residuals);
        let (batched_bytes, _) = batched_encode(&residuals);
        prop_assert_eq!(scalar_bytes, batched_bytes);
    }
}

/// Deterministic spot-check of the exact float classes the issue names:
/// subnormals, both zeros, NaN payload bits, and a misaligned tail.
#[test]
fn named_hostile_classes_round_trip_batched() {
    let values: Vec<f64> = vec![
        5e-324,  // smallest positive subnormal
        -5e-324, // smallest negative subnormal
        0.0,
        -0.0,
        f64::from_bits(0x7FF8_0000_0000_0001), // quiet NaN, payload bit 0
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
        f64::from_bits(0xFFFF_FFFF_FFFF_FFFF), // NaN, all payload bits
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        1.0, // tail length 12 = LANES + 4: misaligned remainder
    ];
    assert_eq!(values.len() % LANES, 4, "tail must be misaligned");
    let preds: Vec<u64> = values.iter().rev().map(|v| v.to_bits()).collect();
    let mut residuals = vec![0u64; values.len()];
    xor_residuals(&values, &preds, &mut residuals);
    let mut lz = vec![0u8; residuals.len()];
    let mut tz = vec![0u8; residuals.len()];
    classify_residuals(&residuals, &mut lz, &mut tz);

    let mut stats = CompressStats::new();
    let mut w = BitWriter::new();
    let mut state = ResidualState::new();
    encode_residuals_batched(&mut w, &mut state, &residuals, &lz, &tz, &mut stats);
    let bytes = w.into_bytes();

    let mut r = BitReader::new(&bytes);
    let mut state = ResidualState::new();
    for (i, &want) in residuals.iter().enumerate() {
        assert_eq!(
            decode_residual(&mut r, &mut state).unwrap(),
            want,
            "residual {i}"
        );
    }
}
