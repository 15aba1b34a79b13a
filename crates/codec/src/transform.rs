//! Decorrelation transforms for floating-point streams.
//!
//! Every floating-point compressor in this workspace follows the same
//! two-stage shape the paper describes: *decorrelate* (prediction /
//! differencing), then *encode* (entropy or bit packing). These helpers
//! implement the value-domain decorrelation primitives shared by the
//! baselines:
//!
//! - XOR against the previous value (Gorilla/Chimp family).
//! - Integer delta of the raw IEEE-754 bit patterns (FPZIP-style, using the
//!   monotone-bits property of same-sign floats).
//! - Bit-plane transposition of 64-value blocks (NDZIP-style "shuffle").
//!
//! All transforms are exact involutions (or have exact inverses) on the bit
//! patterns, so lossless round-trips hold for every `f64`, including NaNs,
//! infinities and signed zeros.

/// XORs each word with its predecessor (first word kept verbatim).
///
/// Applied to IEEE-754 bit patterns of a slowly-varying series, the output
/// is mostly leading zeros. In-place; the inverse is [`undo_xor_previous`].
pub fn xor_previous(words: &mut [u64]) {
    let mut prev = 0u64;
    for w in words.iter_mut() {
        let cur = *w;
        *w = cur ^ prev;
        prev = cur;
    }
}

/// Inverse of [`xor_previous`].
pub fn undo_xor_previous(words: &mut [u64]) {
    let mut prev = 0u64;
    for w in words.iter_mut() {
        *w ^= prev;
        prev = *w;
    }
}

/// Wrapping integer delta of consecutive words (first kept verbatim).
///
/// The inverse is [`undo_delta_previous`]. Wrapping arithmetic makes the
/// transform exact for every bit pattern.
pub fn delta_previous(words: &mut [u64]) {
    let mut prev = 0u64;
    for w in words.iter_mut() {
        let cur = *w;
        *w = cur.wrapping_sub(prev);
        prev = cur;
    }
}

/// Inverse of [`delta_previous`].
pub fn undo_delta_previous(words: &mut [u64]) {
    let mut prev = 0u64;
    for w in words.iter_mut() {
        *w = w.wrapping_add(prev);
        prev = *w;
    }
}

/// Number of words per transposition block.
pub const BLOCK: usize = 64;

/// Transposes a 64×64 bit matrix: output word `i` holds bit `i` of every
/// input word.
///
/// After decorrelation most high-order bit planes are all-zero; transposing
/// gathers them into all-zero words that [`crate::rle`] erases. Exact
/// involution: applying it twice restores the input.
///
/// # Panics
///
/// Panics if `block.len() != 64`.
#[expect(
    clippy::indexing_slicing,
    reason = "`trailing_zeros` of a non-zero `u64` is `< 64 = BLOCK`"
)]
pub fn transpose_bits(block: &mut [u64]) {
    assert_eq!(
        block.len(),
        BLOCK,
        "bit transposition needs exactly 64 words"
    );
    let mut out = [0u64; BLOCK];
    for (i, &w) in block.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            out[bit] |= 1u64 << i;
            w &= w - 1;
        }
    }
    block.copy_from_slice(&out);
}

/// Splits a float slice into its raw bit patterns.
pub fn to_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Reassembles floats from raw bit patterns.
pub fn from_bits(words: &[u64]) -> Vec<f64> {
    words.iter().map(|&w| f64::from_bits(w)).collect()
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn weird_words() -> Vec<u64> {
        vec![
            0,
            u64::MAX,
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            (-0.0f64).to_bits(),
            1.0f64.to_bits(),
            f64::MIN_POSITIVE.to_bits(),
            0x0123_4567_89AB_CDEF,
        ]
    }

    #[test]
    fn xor_round_trip() {
        let mut words = weird_words();
        let original = words.clone();
        xor_previous(&mut words);
        undo_xor_previous(&mut words);
        assert_eq!(words, original);
    }

    #[test]
    fn xor_of_similar_values_has_leading_zeros() {
        let a = 1.000000001f64.to_bits();
        let b = 1.000000002f64.to_bits();
        let mut words = vec![a, b];
        xor_previous(&mut words);
        assert!(words[1].leading_zeros() >= 30);
    }

    #[test]
    fn delta_round_trip() {
        let mut words = weird_words();
        let original = words.clone();
        delta_previous(&mut words);
        undo_delta_previous(&mut words);
        assert_eq!(words, original);
    }

    #[test]
    fn delta_wraps_cleanly() {
        let mut words = vec![0u64, u64::MAX, 0, 1];
        let original = words.clone();
        delta_previous(&mut words);
        undo_delta_previous(&mut words);
        assert_eq!(words, original);
    }

    #[test]
    fn transpose_is_involution() {
        let mut block: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let original = block.clone();
        transpose_bits(&mut block);
        assert_ne!(block, original);
        transpose_bits(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn transpose_moves_bit_planes() {
        // All words have only bit 5 set → after transpose, word 5 is all
        // ones and every other word is zero.
        let mut block = vec![1u64 << 5; 64];
        transpose_bits(&mut block);
        for (i, &w) in block.iter().enumerate() {
            if i == 5 {
                assert_eq!(w, u64::MAX);
            } else {
                assert_eq!(w, 0);
            }
        }
    }

    #[test]
    fn float_bits_round_trip() {
        let values = vec![0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, -2.75e300];
        let round = from_bits(&to_bits(&values));
        for (a, b) in values.iter().zip(&round) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
