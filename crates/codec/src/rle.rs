//! Zero-run-length coding for sparse word streams.
//!
//! The NDZIP-style baseline transposes residual bit planes into 64-bit
//! words, most of which are all-zero after decorrelation. This module packs
//! such streams as (zero-run, literal-run) pairs: runs of zero words are
//! replaced by a varint count, runs of non-zero words are stored verbatim
//! with a varint count prefix.
//!
//! # Examples
//!
//! ```
//! use masc_codec::rle;
//!
//! # fn main() -> Result<(), masc_codec::CodecError> {
//! let words = [0u64, 0, 0, 5, 6, 0, 0, 0, 0, 7];
//! let packed = rle::encode_words(&words);
//! assert_eq!(rle::decode_words(&packed)?, words);
//! # Ok(())
//! # }
//! ```

use crate::CodecError;
use masc_bitio::cursor::ByteCursor;
use masc_bitio::{bounded, varint};

/// Upper bound on a stream's claimed decompressed word count.
///
/// Zero runs decode to arbitrarily many output words from a few input
/// bytes, so the header's claim cannot be bounded by the input length; cap
/// it so an adversarial header cannot demand unbounded allocation.
pub const MAX_DECODE_WORDS: u64 = 1 << 24;

/// Encodes a `u64` word stream as alternating zero/literal runs.
///
/// Layout: varint word count, then repeated `[varint zero_run][varint
/// lit_run][lit_run × 8-byte LE words]` until all words are covered.
#[expect(
    clippy::disallowed_methods,
    reason = "encoder side: sized by `words.len()`, a held slice"
)]
#[expect(
    clippy::indexing_slicing,
    reason = "`i < words.len()` is tested before each read and `lit_start ≤ i`"
)]
pub fn encode_words(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() + 8);
    varint::write_u64(&mut out, words.len() as u64);
    let mut i = 0usize;
    while i < words.len() {
        let zero_start = i;
        while i < words.len() && words[i] == 0 {
            i += 1;
        }
        varint::write_u64(&mut out, (i - zero_start) as u64);
        let lit_start = i;
        while i < words.len() && words[i] != 0 {
            i += 1;
        }
        varint::write_u64(&mut out, (i - lit_start) as u64);
        for &w in &words[lit_start..i] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out
}

/// Decodes a stream produced by [`encode_words`].
///
/// # Errors
///
/// Returns [`CodecError`] on truncation or if runs overshoot the declared
/// word count.
#[expect(
    clippy::disallowed_methods,
    reason = "each zero run is checked against `count - out.len()`, and `count ≤ MAX_DECODE_WORDS`"
)]
pub fn decode_words(packed: &[u8]) -> Result<Vec<u64>, CodecError> {
    let mut cur = ByteCursor::new(packed);
    let count = cur.read_varint()?;
    // Zero runs mean the word count is not bounded by the input length;
    // cap it so an adversarial header cannot demand unbounded allocation.
    if count > MAX_DECODE_WORDS {
        return Err(CodecError::Corrupt("implausible word count"));
    }
    let count = count as usize;
    let mut out = bounded::bounded_capacity("rle word buffer", count, MAX_DECODE_WORDS as usize)
        .map_err(|_| CodecError::Corrupt("implausible word count"))?;
    while out.len() < count {
        let zeros = cur.read_varint()?;
        if zeros > (count - out.len()) as u64 {
            return Err(CodecError::Corrupt("zero run overshoots word count"));
        }
        out.resize(out.len() + zeros as usize, 0);
        let lits = cur.read_varint()?;
        if lits > (count - out.len()) as u64 {
            return Err(CodecError::Corrupt("literal run overshoots word count"));
        }
        for _ in 0..lits {
            out.push(u64::from_le_bytes(cur.read_array()?));
        }
        if zeros == 0 && lits == 0 && out.len() < count {
            return Err(CodecError::Corrupt("empty run pair"));
        }
    }
    Ok(out)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let packed = encode_words(&[]);
        assert_eq!(decode_words(&packed).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn all_zero_is_tiny() {
        let words = vec![0u64; 100_000];
        let packed = encode_words(&words);
        assert!(
            packed.len() < 16,
            "all-zero packed to {} bytes",
            packed.len()
        );
        assert_eq!(decode_words(&packed).unwrap(), words);
    }

    #[test]
    fn all_nonzero_has_small_overhead() {
        let words: Vec<u64> = (1..=1000u64).collect();
        let packed = encode_words(&words);
        assert!(packed.len() <= words.len() * 8 + 16);
        assert_eq!(decode_words(&packed).unwrap(), words);
    }

    #[test]
    fn mixed_runs() {
        let mut words = Vec::new();
        for block in 0..50u64 {
            words.extend(std::iter::repeat_n(0, (block % 7) as usize));
            words.extend((0..block % 5).map(|i| i + 1));
        }
        let packed = encode_words(&words);
        assert_eq!(decode_words(&packed).unwrap(), words);
    }

    #[test]
    fn leading_and_trailing_literals() {
        let words = [9u64, 0, 0, 9];
        let packed = encode_words(&words);
        assert_eq!(decode_words(&packed).unwrap(), words);
    }

    #[test]
    fn truncated_literal_is_error() {
        let words = [1u64, 2, 3];
        let mut packed = encode_words(&words);
        packed.truncate(packed.len() - 3);
        assert!(decode_words(&packed).is_err());
    }

    #[test]
    fn overshooting_run_is_error() {
        // Hand-craft: count=1, zero_run=5.
        let mut packed = Vec::new();
        varint::write_u64(&mut packed, 1);
        varint::write_u64(&mut packed, 5);
        assert!(matches!(decode_words(&packed), Err(CodecError::Corrupt(_))));
    }
}
