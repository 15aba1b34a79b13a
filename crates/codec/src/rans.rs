//! Order-0 range Asymmetric Numeral Systems (rANS) byte coder.
//!
//! ANS is the modern entropy coder the paper's background section highlights:
//! "ANS efficiently compresses data by assigning shorter codes to more
//! frequent symbols" with compression close to arithmetic coding at Huffman-
//! like speed. This is a classic 32-bit rANS with byte-wise renormalization
//! and a 12-bit quantized frequency table stored in the header.
//!
//! Symbols are encoded in reverse and decoded forward, as usual for rANS.
//!
//! # Examples
//!
//! ```
//! use masc_codec::rans;
//!
//! # fn main() -> Result<(), masc_codec::CodecError> {
//! let data = b"mississippi mississippi mississippi";
//! let packed = rans::encode(data);
//! assert_eq!(rans::decode(&packed)?, data);
//! # Ok(())
//! # }
//! ```

use crate::CodecError;
use masc_bitio::cursor::{self, ByteCursor};
use masc_bitio::varint;

/// log2 of the total frequency scale.
const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;

/// Upper bound on a stream's claimed decompressed size.
///
/// A constant-symbol frequency table legitimately decodes unbounded output
/// from a few input bytes, so the claim in the header cannot be bounded by
/// the input length; cap it instead so an adversarial header cannot demand
/// unbounded allocation and decode work.
pub const MAX_DECODE_BYTES: u64 = 1 << 26;
/// Lower bound of the rANS state before renormalization.
const RANS_L: u32 = 1 << 23;

/// Quantizes raw counts to a table summing exactly to `SCALE`.
///
/// Every present symbol keeps a non-zero slot so it stays encodable.
#[expect(
    clippy::indexing_slicing,
    reason = "`s` and `max_sym` range over `0..256`, the table size"
)]
fn quantize_freqs(raw: &[u64; 256]) -> [u32; 256] {
    let total: u64 = raw.iter().sum();
    let mut freqs = [0u32; 256];
    if total == 0 {
        return freqs;
    }
    let mut assigned: u32 = 0;
    let mut max_sym = 0usize;
    let mut max_freq = 0u32;
    for s in 0..256 {
        if raw[s] == 0 {
            continue;
        }
        let f = ((raw[s] as u128 * SCALE as u128) / total as u128) as u32;
        let f = f.max(1);
        freqs[s] = f;
        assigned += f;
        if f > max_freq {
            max_freq = f;
            max_sym = s;
        }
    }
    // Push the rounding error onto the most frequent symbol.
    if assigned > SCALE {
        let excess = assigned - SCALE;
        debug_assert!(freqs[max_sym] > excess);
        freqs[max_sym] -= excess;
    } else {
        freqs[max_sym] += SCALE - assigned;
    }
    freqs
}

/// Compresses `data` with order-0 rANS.
///
/// Stream layout: varint original length; 256 varint frequencies; varint
/// payload length; payload bytes (rANS words, emitted back-to-front).
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: sized by `data.len()`, a held slice"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`u8` symbols index 256-entry tables and `s + 1 < 257`"
)]
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut raw = [0u64; 256];
    for &b in data {
        raw[b as usize] += 1;
    }
    let freqs = quantize_freqs(&raw);
    // Cumulative table.
    let mut cum = [0u32; 257];
    for s in 0..256 {
        cum[s + 1] = cum[s] + freqs[s];
    }

    let mut out = Vec::with_capacity(data.len() / 2 + 520);
    varint::write_u64(&mut out, data.len() as u64);
    for &f in &freqs {
        varint::write_u64(&mut out, u64::from(f));
    }

    // Encode in reverse; bytes are pushed then reversed so the decoder
    // reads forward.
    let mut payload: Vec<u8> = Vec::with_capacity(data.len() / 2 + 8);
    let mut state: u32 = RANS_L;
    for &sym in data.iter().rev() {
        let f = freqs[sym as usize];
        debug_assert!(f > 0);
        // Renormalize: keep state < (RANS_L >> SCALE_BITS << 8) * f.
        let x_max = ((RANS_L >> SCALE_BITS) << 8) * f;
        while state >= x_max {
            payload.push((state & 0xFF) as u8);
            state >>= 8;
        }
        state = ((state / f) << SCALE_BITS) | ((state % f) + cum[sym as usize]);
    }
    // Flush the final 32-bit state.
    for _ in 0..4 {
        payload.push((state & 0xFF) as u8);
        state >>= 8;
    }
    payload.reverse();
    cursor::write_prefixed(&mut out, &payload);
    out
}

/// Decompresses a stream produced by [`encode`].
///
/// # Errors
///
/// Returns [`CodecError`] if the stream is truncated or the frequency table
/// is inconsistent.
#[expect(
    clippy::disallowed_methods,
    reason = "`slot_to_sym` is a constant `SCALE` entries; `orig_len ≤ MAX_DECODE_BYTES`, checked above"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "cumulative slots are `< SCALE` once the table sums to `SCALE`"
)]
pub fn decode(packed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut cur = ByteCursor::new(packed);
    let orig_len = cur.read_varint()?;
    let mut freqs = [0u32; 256];
    let mut total: u64 = 0;
    for f in freqs.iter_mut() {
        let v = cur.read_varint()?;
        *f = u32::try_from(v).map_err(|_| CodecError::Corrupt("frequency too large"))?;
        total += v;
    }
    if orig_len == 0 {
        return Ok(Vec::new());
    }
    if orig_len > MAX_DECODE_BYTES {
        return Err(CodecError::Corrupt("implausible decompressed length"));
    }
    if total != u64::from(SCALE) {
        return Err(CodecError::Corrupt(
            "rans frequency table does not sum to scale",
        ));
    }
    let mut cum = [0u32; 257];
    for s in 0..256 {
        cum[s + 1] = cum[s] + freqs[s];
    }
    // Slot → symbol lookup.
    let mut slot_to_sym = vec![0u8; SCALE as usize];
    for s in 0..256usize {
        for slot in cum[s]..cum[s + 1] {
            slot_to_sym[slot as usize] = s as u8;
        }
    }

    let mut payload = ByteCursor::new(cur.read_prefixed()?);
    let mut state = u32::from_be_bytes(payload.read_array()?);
    let mut out = Vec::with_capacity(orig_len as usize);
    for _ in 0..orig_len {
        let slot = state & (SCALE - 1);
        let sym = slot_to_sym[slot as usize];
        let f = freqs[sym as usize];
        state = f * (state >> SCALE_BITS) + slot - cum[sym as usize];
        while state < RANS_L {
            state = (state << 8) | u32::from(payload.read_u8()?);
        }
        out.push(sym);
    }
    Ok(out)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trip() {
        let packed = encode(&[]);
        assert_eq!(decode(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_byte_round_trip() {
        let packed = encode(&[99]);
        assert_eq!(decode(&packed).unwrap(), vec![99]);
    }

    #[test]
    fn uniform_data_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let packed = encode(&data);
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn skewed_data_compresses_well() {
        let mut data = vec![0u8; 50_000];
        for i in (0..data.len()).step_by(100) {
            data[i] = 7;
        }
        let packed = encode(&data);
        // ~0.08 bits/byte entropy; header dominates but the whole thing
        // must still be far below the input size.
        assert!(
            packed.len() < data.len() / 10,
            "packed {} of {}",
            packed.len(),
            data.len()
        );
        assert_eq!(decode(&packed).unwrap(), data);
    }

    #[test]
    fn quantized_freqs_sum_to_scale() {
        let mut raw = [0u64; 256];
        raw[0] = 1;
        raw[1] = 1_000_000_000;
        raw[200] = 3;
        let q = quantize_freqs(&raw);
        assert_eq!(
            q.iter().map(|&f| u64::from(f)).sum::<u64>(),
            u64::from(SCALE)
        );
        assert!(q[0] >= 1 && q[200] >= 1);
    }

    #[test]
    fn all_256_symbols_present() {
        let mut raw = [0u64; 256];
        for (i, r) in raw.iter_mut().enumerate() {
            *r = (i as u64 % 17) + 1;
        }
        let q = quantize_freqs(&raw);
        assert_eq!(
            q.iter().map(|&f| u64::from(f)).sum::<u64>(),
            u64::from(SCALE)
        );
        assert!(q.iter().all(|&f| f >= 1));
    }

    #[test]
    fn truncated_payload_is_error() {
        let data = vec![3u8; 1000];
        let mut packed = encode(&data);
        packed.truncate(packed.len() - 2);
        assert!(decode(&packed).is_err());
    }

    #[test]
    fn bad_frequency_table_is_error() {
        let data = vec![1u8, 2, 3];
        let packed = encode(&data);
        // Recode the header with a broken frequency for symbol 1.
        let mut cur = ByteCursor::new(&packed);
        assert_eq!(cur.read_varint().unwrap(), 3);
        let mut broken = packed[..cur.position()].to_vec();
        let f0 = cur.read_varint().unwrap();
        varint::write_u64(&mut broken, f0 + 1); // perturb symbol 0's freq
        broken.extend_from_slice(cur.rest());
        assert!(matches!(decode(&broken), Err(CodecError::Corrupt(_))));
    }
}
