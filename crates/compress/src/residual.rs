//! The leading-zero residual code of paper Fig. 5(a).
//!
//! Each value's XOR residual against its prediction is encoded as:
//!
//! - `1` — residual is all zeros (~60 % of residuals per the paper);
//! - `0 1 <sig bits>` — the residual's meaningful bits fit inside the
//!   previous residual's window, so its (class, length) encoding is shared;
//! - `0 0 <3-bit lz class> <6-bit sig length − 1> <sig bits>` — a fresh
//!   window. The leading-zero count is quantized to 8-bit classes
//!   (`class = min(lz, 63) / 8`), matching the paper's "treat 0–7 leading
//!   zeros as 0" rule; the significant length excludes trailing zeros.

use crate::stats::CompressStats;
use masc_bitio::{BitReadError, BitReader, BitWriter};

/// Sliding window state shared between consecutive residuals.
///
/// `start` is the bit offset of the least-significant meaningful bit and
/// `len` the number of meaningful bits; together with the class they define
/// the reusable window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidualWindow {
    /// Effective leading zeros (8·class).
    eff_lz: u32,
    /// Meaningful-bit count.
    len: u32,
    /// Bit offset of the window's LSB.
    start: u32,
}

/// Encoder/decoder state for a residual stream.
///
/// Reset at the start of every independently-decodable chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidualState {
    window: Option<ResidualWindow>,
}

impl ResidualState {
    /// Fresh state with no previous window.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Encodes one residual.
#[expect(
    clippy::indexing_slicing,
    reason = "`class ≤ 7` by the `min(7)`, and the histogram has 8 bins"
)]
pub fn encode_residual(
    w: &mut BitWriter,
    state: &mut ResidualState,
    residual: u64,
    stats: &mut CompressStats,
) {
    if residual == 0 {
        w.write_bit(true);
        stats.zero_residuals += 1;
        return;
    }
    w.write_bit(false);
    let lz = residual.leading_zeros();
    let tz = residual.trailing_zeros();
    let class = (lz / 8).min(7);
    stats.lz_class_histogram[class as usize] += 1;
    let eff_lz = class * 8;
    // Window reuse: the current meaningful span [tz, 64−lz) must lie inside
    // the previous window [start, start+len).
    if let Some(win) = state.window {
        if lz >= win.eff_lz && tz >= win.start && 64 - win.eff_lz >= tz + (64 - lz - tz) {
            // Fits: emit the shared-window flag and the bits.
            w.write_bit(true);
            w.write_bits(residual >> win.start, win.len);
            stats.shared_windows += 1;
            return;
        }
    }
    w.write_bit(false);
    let sig_len = 64 - eff_lz - tz;
    debug_assert!((1..=64).contains(&sig_len));
    w.write_bits(u64::from(class), 3);
    w.write_bits(u64::from(sig_len - 1), 6);
    w.write_bits(residual >> tz, sig_len);
    state.window = Some(ResidualWindow {
        eff_lz,
        len: sig_len,
        start: tz,
    });
}

/// Encodes a whole run of residuals using precomputed lane classifications.
///
/// Bit-exact equivalent of calling [`encode_residual`] once per element —
/// the unit and property tests cross-check the two — but structured for
/// throughput: runs of zero residuals are emitted as batched one-bits (up
/// to 64 per write) and the leading/trailing-zero counts come from
/// [`crate::lanes::classify_residuals`] instead of per-element scalar
/// intrinsics inside the bit loop.
///
/// # Panics
///
/// Panics if the slice lengths differ (caller bug: all three derive from
/// one chunk range).
pub fn encode_residuals_batched(
    w: &mut BitWriter,
    state: &mut ResidualState,
    residuals: &[u64],
    lz: &[u8],
    tz: &[u8],
    stats: &mut CompressStats,
) {
    assert_eq!(residuals.len(), lz.len(), "lz length mismatch");
    assert_eq!(residuals.len(), tz.len(), "tz length mismatch");
    let mut i = 0usize;
    while i < residuals.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "`i < residuals.len()`, the loop condition"
        )]
        let residual = residuals[i];
        if residual == 0 {
            // A run of n zero residuals is n consecutive `1` bits.
            let start = i;
            while residuals.get(i) == Some(&0) {
                i += 1;
            }
            let mut run = i - start;
            stats.zero_residuals += run as u64;
            while run >= 64 {
                w.write_bits(u64::MAX, 64);
                run -= 64;
            }
            if run > 0 {
                w.write_bits(u64::MAX >> (64 - run), run as u32);
            }
            continue;
        }
        w.write_bit(false);
        #[expect(
            clippy::indexing_slicing,
            reason = "`i < residuals.len() = lz.len()` (asserted on entry)"
        )]
        let lzi = u32::from(lz[i]);
        #[expect(
            clippy::indexing_slicing,
            reason = "`i < residuals.len() = tz.len()` (asserted on entry)"
        )]
        let tzi = u32::from(tz[i]);
        let class = (lzi / 8).min(7);
        #[expect(clippy::indexing_slicing, reason = "`class ≤ 7` indexes 8 bins")]
        let bin = &mut stats.lz_class_histogram[class as usize];
        *bin += 1;
        let eff_lz = class * 8;
        if let Some(win) = state.window {
            if lzi >= win.eff_lz && tzi >= win.start && 64 - win.eff_lz >= tzi + (64 - lzi - tzi) {
                w.write_bit(true);
                w.write_bits(residual >> win.start, win.len);
                stats.shared_windows += 1;
                i += 1;
                continue;
            }
        }
        w.write_bit(false);
        let sig_len = 64 - eff_lz - tzi;
        debug_assert!((1..=64).contains(&sig_len));
        w.write_bits(u64::from(class), 3);
        w.write_bits(u64::from(sig_len - 1), 6);
        w.write_bits(residual >> tzi, sig_len);
        state.window = Some(ResidualWindow {
            eff_lz,
            len: sig_len,
            start: tzi,
        });
        i += 1;
    }
}

/// Errors from residual decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualError {
    /// The bit stream ended mid-residual.
    Truncated(BitReadError),
    /// A shared-window flag appeared before any window was established —
    /// the stream is corrupt (the encoder never emits this).
    OrphanSharedWindow {
        /// Bit position of the offending flag.
        bit_pos: usize,
    },
    /// A fresh-window code claimed a leading-zero class and significant
    /// length that together exceed 64 bits — impossible output of a valid
    /// encoder, so the stream is corrupt.
    ImpossibleWindow {
        /// Bit position of the offending code.
        bit_pos: usize,
    },
}

impl std::fmt::Display for ResidualError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResidualError::Truncated(e) => write!(f, "residual stream truncated: {e}"),
            ResidualError::OrphanSharedWindow { bit_pos } => {
                write!(
                    f,
                    "shared-window flag with no prior window at bit {bit_pos}"
                )
            }
            ResidualError::ImpossibleWindow { bit_pos } => {
                write!(f, "residual window wider than 64 bits at bit {bit_pos}")
            }
        }
    }
}

impl std::error::Error for ResidualError {}

impl From<BitReadError> for ResidualError {
    fn from(e: BitReadError) -> Self {
        ResidualError::Truncated(e)
    }
}

/// Decodes one residual.
///
/// # Errors
///
/// Returns [`ResidualError`] if the stream is exhausted or corrupt.
pub fn decode_residual(
    r: &mut BitReader<'_>,
    state: &mut ResidualState,
) -> Result<u64, ResidualError> {
    if r.read_bit()? {
        return Ok(0);
    }
    if r.read_bit()? {
        // Shared window.
        let win = state.window.ok_or(ResidualError::OrphanSharedWindow {
            bit_pos: r.bit_pos(),
        })?;
        let bits = r.read_bits(win.len)?;
        return Ok(bits << win.start);
    }
    let class = r.read_bits(3)? as u32;
    let sig_len = r.read_bits(6)? as u32 + 1;
    let bits = r.read_bits(sig_len)?;
    let eff_lz = class * 8;
    // A valid encoder guarantees eff_lz + sig_len <= 64; a hostile stream
    // can claim class 7 with sig_len 64, which would underflow `start`.
    let start = 64u32
        .checked_sub(eff_lz + sig_len)
        .ok_or(ResidualError::ImpossibleWindow {
            bit_pos: r.bit_pos(),
        })?;
    state.window = Some(ResidualWindow {
        eff_lz,
        len: sig_len,
        start,
    });
    Ok(bits << start)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn round_trip(residuals: &[u64]) -> (Vec<u8>, CompressStats) {
        let mut stats = CompressStats::new();
        let mut w = BitWriter::new();
        let mut st = ResidualState::new();
        for &res in residuals {
            encode_residual(&mut w, &mut st, res, &mut stats);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut st = ResidualState::new();
        for (i, &res) in residuals.iter().enumerate() {
            assert_eq!(
                decode_residual(&mut r, &mut st).unwrap(),
                res,
                "residual {i}"
            );
        }
        (bytes, stats)
    }

    #[test]
    fn zero_residual_costs_one_bit() {
        let (bytes, stats) = round_trip(&[0; 800]);
        assert_eq!(bytes.len(), 100);
        assert_eq!(stats.zero_residuals, 800);
    }

    #[test]
    fn assorted_residuals_round_trip() {
        round_trip(&[
            0,
            1,
            u64::MAX,
            1 << 63,
            0xFF00,
            0x0000_0000_0001_0000,
            0x8000_0000_0000_0001,
            3,
            0,
            0xDEAD_BEEF,
        ]);
    }

    #[test]
    fn similar_small_residuals_share_windows() {
        // Residuals with the same magnitude class: the second onward
        // should reuse the first's window.
        let residuals = vec![0x0000_0000_00FF_0000u64; 50];
        let (_, stats) = round_trip(&residuals);
        assert_eq!(stats.shared_windows, 49);
    }

    #[test]
    fn window_reuse_requires_fit() {
        // Second residual is wider than the first's window: no share.
        let (_, stats) = round_trip(&[0x0000_0000_000F_0000, 0x0FFF_FFFF_FFFF_FFFF]);
        assert_eq!(stats.shared_windows, 0);
    }

    #[test]
    fn lz_histogram_classes() {
        // lz = 0 → class 0; lz = 8 → class 1; lz = 60 → class 7.
        let (_, stats) = round_trip(&[u64::MAX, 0x00FF_FFFF_FFFF_FFFF, 0xF]);
        assert_eq!(stats.lz_class_histogram[0], 1);
        assert_eq!(stats.lz_class_histogram[1], 1);
        assert_eq!(stats.lz_class_histogram[7], 1);
    }

    #[test]
    fn class_treats_small_lz_as_zero() {
        // lz in 1..=7 must be class 0 (paper: "treating it as 0 if the
        // count of leading zero bits is between 0 and 7").
        for lz in 0..8u32 {
            let res = (1u64 << 63) >> lz;
            let (_, stats) = round_trip(&[res]);
            assert_eq!(stats.lz_class_histogram[0], 1, "lz = {lz}");
        }
    }

    #[test]
    fn close_floats_produce_cheap_residuals() {
        // XOR of adjacent simulated values: mostly zeros + tiny residuals.
        let mut vals = Vec::new();
        let mut x = 1.0f64;
        for _ in 0..1000 {
            x += 1e-12;
            vals.push(x);
        }
        let residuals: Vec<u64> = vals
            .windows(2)
            .map(|w| w[0].to_bits() ^ w[1].to_bits())
            .collect();
        let (bytes, _) = round_trip(&residuals);
        // ≪ 8 bytes per residual.
        assert!(
            bytes.len() < residuals.len() * 3,
            "residual stream {} bytes for {} residuals",
            bytes.len(),
            residuals.len()
        );
    }

    #[test]
    fn full_width_residual_round_trips() {
        // class 0, sig_len 64 exercises the 6-bit length field's maximum.
        round_trip(&[0x8000_0000_0000_0001, u64::MAX, 0xAAAA_AAAA_AAAA_AAAB]);
    }

    fn scalar_bytes(residuals: &[u64]) -> (Vec<u8>, CompressStats) {
        let mut stats = CompressStats::new();
        let mut w = BitWriter::new();
        let mut st = ResidualState::new();
        for &res in residuals {
            encode_residual(&mut w, &mut st, res, &mut stats);
        }
        (w.into_bytes(), stats)
    }

    fn batched_bytes(residuals: &[u64]) -> (Vec<u8>, CompressStats) {
        let mut lz = vec![0u8; residuals.len()];
        let mut tz = vec![0u8; residuals.len()];
        crate::lanes::classify_residuals(residuals, &mut lz, &mut tz);
        let mut stats = CompressStats::new();
        let mut w = BitWriter::new();
        let mut st = ResidualState::new();
        encode_residuals_batched(&mut w, &mut st, residuals, &lz, &tz, &mut stats);
        (w.into_bytes(), stats)
    }

    fn assert_batched_matches_scalar(residuals: &[u64]) {
        let (sb, ss) = scalar_bytes(residuals);
        let (bb, bs) = batched_bytes(residuals);
        assert_eq!(sb, bb, "byte streams diverge for {residuals:?}");
        assert_eq!(ss.zero_residuals, bs.zero_residuals);
        assert_eq!(ss.shared_windows, bs.shared_windows);
        assert_eq!(ss.lz_class_histogram, bs.lz_class_histogram);
    }

    #[test]
    fn batched_encoder_matches_scalar_bit_exactly() {
        assert_batched_matches_scalar(&[]);
        assert_batched_matches_scalar(&[0]);
        assert_batched_matches_scalar(&[
            0,
            1,
            u64::MAX,
            1 << 63,
            0xFF00,
            0,
            0,
            0x8000_0000_0000_0001,
            3,
            0xDEAD_BEEF,
        ]);
        // Shared-window heavy stream.
        assert_batched_matches_scalar(&vec![0x0000_0000_00FF_0000u64; 50]);
    }

    #[test]
    fn batched_encoder_matches_scalar_on_long_zero_runs() {
        // Runs straddling the 64-bit batching boundary: 63, 64, 65, 200.
        for run in [63usize, 64, 65, 200] {
            let mut residuals = vec![0u64; run];
            residuals.push(0xABCD);
            residuals.extend_from_slice(&[0; 3]);
            assert_batched_matches_scalar(&residuals);
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let mut stats = CompressStats::new();
        let mut w = BitWriter::new();
        let mut st = ResidualState::new();
        encode_residual(&mut w, &mut st, 0xDEAD, &mut stats);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes[..1]);
        let mut st = ResidualState::new();
        assert!(decode_residual(&mut r, &mut st).is_err());
    }
}
