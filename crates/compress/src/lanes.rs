//! Batched u64-lane kernels for residual computation.
//!
//! The residual *bit I/O* is inherently sequential (variable-width codes),
//! but everything before it — XOR against the prediction, leading/trailing
//! zero classification — is element-wise over `u64` lanes. These kernels
//! process fixed-width lane groups with exact-size iteration
//! (`chunks_exact`) so the compiler can keep the hot loops branch-free and
//! autovectorized; the misaligned tail is handled by the same scalar body.
//!
//! All kernels are bit-exact equivalents of the scalar expressions they
//! replace — the unit tests cross-check them against a scalar reference on
//! hostile payloads (subnormals, ±0.0, NaN payload bits, short tails).

/// Lane group width: one AVX-512 register of `u64`s, two NEON/SSE pairs.
pub const LANES: usize = 8;

/// Writes `values[i].to_bits() ^ preds[i]` into `out`.
///
/// # Panics
///
/// Panics if the three slices differ in length (caller bug: all derive
/// from one chunk range).
#[expect(
    clippy::indexing_slicing,
    reason = "`i < LANES`, the length of every `chunks_exact(LANES)` group"
)]
pub fn xor_residuals(values: &[f64], preds: &[u64], out: &mut [u64]) {
    assert_eq!(values.len(), preds.len(), "lane input length mismatch");
    assert_eq!(values.len(), out.len(), "lane output length mismatch");
    let mut v = values.chunks_exact(LANES);
    let mut p = preds.chunks_exact(LANES);
    let mut o = out.chunks_exact_mut(LANES);
    for ((vg, pg), og) in (&mut v).zip(&mut p).zip(&mut o) {
        for i in 0..LANES {
            og[i] = vg[i].to_bits() ^ pg[i];
        }
    }
    for ((val, pred), slot) in v
        .remainder()
        .iter()
        .zip(p.remainder())
        .zip(o.into_remainder())
    {
        *slot = val.to_bits() ^ pred;
    }
}

/// Classifies residuals into leading/trailing-zero counts.
///
/// Zero residuals get `(64, 64)`; the bit-packer's all-zero fast path keys
/// off `lz == 64` without re-touching the residual array.
///
/// # Panics
///
/// Panics if the slice lengths differ (caller bug).
#[expect(
    clippy::indexing_slicing,
    reason = "`i < LANES`, the length of every `chunks_exact(LANES)` group"
)]
pub fn classify_residuals(residuals: &[u64], lz: &mut [u8], tz: &mut [u8]) {
    assert_eq!(residuals.len(), lz.len(), "lane lz length mismatch");
    assert_eq!(residuals.len(), tz.len(), "lane tz length mismatch");
    let mut r = residuals.chunks_exact(LANES);
    let mut l = lz.chunks_exact_mut(LANES);
    let mut t = tz.chunks_exact_mut(LANES);
    for ((rg, lg), tg) in (&mut r).zip(&mut l).zip(&mut t) {
        for i in 0..LANES {
            lg[i] = rg[i].leading_zeros() as u8;
            tg[i] = rg[i].trailing_zeros() as u8;
        }
    }
    for ((res, lslot), tslot) in r
        .remainder()
        .iter()
        .zip(l.into_remainder())
        .zip(t.into_remainder())
    {
        *lslot = res.leading_zeros() as u8;
        *tslot = res.trailing_zeros() as u8;
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn scalar_xor(values: &[f64], preds: &[u64]) -> Vec<u64> {
        values
            .iter()
            .zip(preds)
            .map(|(v, p)| v.to_bits() ^ p)
            .collect()
    }

    #[test]
    fn xor_matches_scalar_on_all_tail_lengths() {
        // 0..=2·LANES+1 covers empty, sub-lane, exact-lane, and misaligned
        // tails on both sides of the lane boundary.
        for len in 0..=(2 * LANES + 1) {
            let values: Vec<f64> = (0..len).map(|i| (i as f64) * 1.5 - 3.0).collect();
            let preds: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let mut out = vec![0u64; len];
            xor_residuals(&values, &preds, &mut out);
            assert_eq!(out, scalar_xor(&values, &preds), "len {len}");
        }
    }

    #[test]
    fn classify_matches_scalar() {
        let residuals: Vec<u64> = vec![
            0,
            1,
            u64::MAX,
            1 << 63,
            0x0000_FF00_0000_0000,
            3,
            0x8000_0000_0000_0001,
            42,
            0,
            0xFFFF_FFFF_0000_0000,
        ];
        let mut lz = vec![0u8; residuals.len()];
        let mut tz = vec![0u8; residuals.len()];
        classify_residuals(&residuals, &mut lz, &mut tz);
        for (i, &r) in residuals.iter().enumerate() {
            assert_eq!(u32::from(lz[i]), r.leading_zeros(), "lz of residual {i}");
            assert_eq!(u32::from(tz[i]), r.trailing_zeros(), "tz of residual {i}");
        }
    }

    #[test]
    fn zero_residual_classifies_as_64_64() {
        let mut lz = [0u8; 1];
        let mut tz = [0u8; 1];
        classify_residuals(&[0], &mut lz, &mut tz);
        assert_eq!((lz[0], tz[0]), (64, 64));
    }

    #[test]
    #[should_panic(expected = "lane input length mismatch")]
    fn mismatched_lengths_panic() {
        let mut out = [0u64; 2];
        xor_residuals(&[1.0], &[0, 0], &mut out);
    }
}
