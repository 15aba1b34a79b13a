//! Adaptive binary range coder (arithmetic-coding family).
//!
//! This is the carry-less binary range coder used by LZMA-style compressors:
//! a 32-bit range, 11-bit adaptive probabilities, and byte-wise
//! renormalization. `masc-baselines` uses it for the FPZIP-style compressor
//! (predictive coding + arithmetic entropy stage) and the SpiceMate-style
//! lossy coder.
//!
//! # Examples
//!
//! ```
//! use masc_codec::range::{BitModel, RangeDecoder, RangeEncoder};
//!
//! # fn main() -> Result<(), masc_codec::CodecError> {
//! let bits = [true, true, false, true, true, true, false, true];
//! let mut model = BitModel::new();
//! let mut enc = RangeEncoder::new();
//! for &b in &bits {
//!     enc.encode_bit(&mut model, b);
//! }
//! let bytes = enc.finish();
//!
//! let mut model = BitModel::new();
//! let mut dec = RangeDecoder::new(&bytes)?;
//! for &b in &bits {
//!     assert_eq!(dec.decode_bit(&mut model)?, b);
//! }
//! # Ok(())
//! # }
//! ```

use crate::CodecError;

/// Number of probability bits (LZMA convention).
const PROB_BITS: u32 = 11;
const PROB_ONE: u16 = 1 << PROB_BITS;
/// Adaptation shift: larger = slower adaptation.
const ADAPT_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive probability estimate for a single binary context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitModel {
    /// Probability of a zero bit, in 1/2048 units.
    p0: u16,
}

impl Default for BitModel {
    fn default() -> Self {
        Self::new()
    }
}

impl BitModel {
    /// Creates a model with a 50/50 initial estimate.
    pub fn new() -> Self {
        Self { p0: PROB_ONE / 2 }
    }

    #[inline]
    fn update(&mut self, bit: bool) {
        if bit {
            self.p0 -= self.p0 >> ADAPT_SHIFT;
        } else {
            self.p0 += (PROB_ONE - self.p0) >> ADAPT_SHIFT;
        }
    }
}

/// Encoder half of the range coder.
#[derive(Debug, Clone, Default)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl RangeEncoder {
    /// Creates a fresh encoder.
    pub fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000u64 || self.low > u64::from(u32::MAX) {
            let carry = (self.low >> 32) as u8;
            let mut first = true;
            while self.cache_size > 0 {
                let byte = if first {
                    self.cache.wrapping_add(carry)
                } else {
                    0xFFu8.wrapping_add(carry)
                };
                self.out.push(byte);
                first = false;
                self.cache_size -= 1;
            }
            self.cache = ((self.low >> 24) & 0xFF) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encodes one bit under the given adaptive model.
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * u32::from(model.p0);
        if bit {
            self.low += u64::from(bound);
            self.range -= bound;
        } else {
            self.range = bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encodes the low `n` bits of `value` (MSB first) through a tree of
    /// per-position contexts.
    ///
    /// # Panics
    ///
    /// Panics if `models.len() < (1 << n) - 1` or `n > 16`.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: callers pass `models.len() ≥ (1 << n) - 1`, and `ctx < 1 << n`"
    )]
    pub fn encode_bits_tree(&mut self, models: &mut [BitModel], n: u32, value: u32) {
        assert!(n <= 16);
        let mut ctx = 1usize;
        for i in (0..n).rev() {
            let bit = (value >> i) & 1 != 0;
            self.encode_bit(&mut models[ctx - 1], bit);
            ctx = (ctx << 1) | usize::from(bit);
        }
    }

    /// Encodes `n` bits of `value` (MSB first) at fixed probability ½ —
    /// no model, ~1 output bit per input bit. Used for incompressible
    /// mantissa tails.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn encode_direct_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32);
        for i in (0..n).rev() {
            self.range >>= 1;
            let bit = (value >> i) & 1;
            if bit != 0 {
                self.low += u64::from(self.range);
            }
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Flushes the coder and returns the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Decoder half of the range coder.
#[derive(Debug, Clone)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Creates a decoder over bytes produced by [`RangeEncoder::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than 5 bytes are present.
    #[expect(
        clippy::indexing_slicing,
        reason = "`input.len() ≥ 5`, checked just above"
    )]
    pub fn new(input: &'a [u8]) -> Result<Self, CodecError> {
        if input.len() < 5 {
            return Err(CodecError::Truncated);
        }
        let mut code = 0u32;
        // The first byte is always zero (encoder cache priming); skip it.
        for &b in &input[1..5] {
            code = (code << 8) | u32::from(b);
        }
        Ok(Self {
            code,
            range: u32::MAX,
            input,
            pos: 5,
        })
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        // Reading past the flushed tail is well-defined: zeros.
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decodes one bit under the given adaptive model.
    ///
    /// # Errors
    ///
    /// This method itself cannot fail mid-stream (the encoder's flush pads
    /// the tail), but it is fallible for interface symmetry and future
    /// validation.
    pub fn decode_bit(&mut self, model: &mut BitModel) -> Result<bool, CodecError> {
        let bound = (self.range >> PROB_BITS) * u32::from(model.p0);
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            let byte = self.next_byte();
            self.code = (self.code << 8) | u32::from(byte);
        }
        Ok(bit)
    }

    /// Decodes `n` bits written by [`RangeEncoder::encode_bits_tree`].
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError`] from bit decoding.
    ///
    /// # Panics
    ///
    /// Panics if `models.len() < (1 << n) - 1` or `n > 16`.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: callers pass `models.len() ≥ (1 << n) - 1`, and `ctx < 1 << n`"
    )]
    pub fn decode_bits_tree(&mut self, models: &mut [BitModel], n: u32) -> Result<u32, CodecError> {
        assert!(n <= 16);
        let mut ctx = 1usize;
        for _ in 0..n {
            let bit = self.decode_bit(&mut models[ctx - 1])?;
            ctx = (ctx << 1) | usize::from(bit);
        }
        Ok((ctx as u32) - (1 << n))
    }

    /// Decodes `n` bits written by [`RangeEncoder::encode_direct_bits`].
    ///
    /// # Errors
    ///
    /// Infallible in practice (flush padding); fallible for symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn decode_direct_bits(&mut self, n: u32) -> Result<u32, CodecError> {
        assert!(n <= 32);
        let mut value = 0u32;
        for _ in 0..n {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                true
            } else {
                false
            };
            value = (value << 1) | u32::from(bit);
            while self.range < TOP {
                self.range <<= 8;
                let byte = self.next_byte();
                self.code = (self.code << 8) | u32::from(byte);
            }
        }
        Ok(value)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;

    fn round_trip_bits(bits: &[bool]) {
        let mut model = BitModel::new();
        let mut enc = RangeEncoder::new();
        for &b in bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        let mut model = BitModel::new();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(dec.decode_bit(&mut model).unwrap(), b, "bit {i}");
        }
    }

    #[test]
    fn empty_stream() {
        let enc = RangeEncoder::new();
        let bytes = enc.finish();
        RangeDecoder::new(&bytes).unwrap();
    }

    #[test]
    fn alternating_bits() {
        let bits: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        round_trip_bits(&bits);
    }

    #[test]
    fn mostly_zero_bits_compress() {
        let bits: Vec<bool> = (0..100_000).map(|i| i % 100 == 0).collect();
        let mut model = BitModel::new();
        let mut enc = RangeEncoder::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        // 100k bits = 12.5 kB raw; skewed stream should be ≪ that.
        assert!(
            bytes.len() < 3000,
            "range coder produced {} bytes",
            bytes.len()
        );
        let mut model = BitModel::new();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut model).unwrap(), b);
        }
    }

    #[test]
    fn long_one_runs_exercise_carry() {
        // Long runs of ones drive `low` toward the carry path.
        let mut bits = vec![true; 5000];
        bits.extend(vec![false; 7]);
        bits.extend(vec![true; 5000]);
        round_trip_bits(&bits);
    }

    #[test]
    fn tree_coded_values_round_trip() {
        let values: Vec<u32> = (0..2000u32).map(|i| (i * 37) % 256).collect();
        let mut models = vec![BitModel::new(); 255];
        let mut enc = RangeEncoder::new();
        for &v in &values {
            enc.encode_bits_tree(&mut models, 8, v);
        }
        let bytes = enc.finish();
        let mut models = vec![BitModel::new(); 255];
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &v in &values {
            assert_eq!(dec.decode_bits_tree(&mut models, 8).unwrap(), v);
        }
    }

    #[test]
    fn truncated_header_is_error() {
        assert!(RangeDecoder::new(&[1, 2, 3]).is_err());
    }

    #[test]
    fn direct_bits_round_trip() {
        let mut enc = RangeEncoder::new();
        let values = [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 7, 1 << 31];
        for &v in &values {
            enc.encode_direct_bits(v, 32);
        }
        enc.encode_direct_bits(0b101, 3);
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &v in &values {
            assert_eq!(dec.decode_direct_bits(32).unwrap(), v);
        }
        assert_eq!(dec.decode_direct_bits(3).unwrap(), 0b101);
    }

    #[test]
    fn direct_bits_interleave_with_modeled_bits() {
        let mut model = BitModel::new();
        let mut enc = RangeEncoder::new();
        for i in 0..500u32 {
            enc.encode_bit(&mut model, i % 3 == 0);
            enc.encode_direct_bits(i & 0x3F, 6);
        }
        let bytes = enc.finish();
        let mut model = BitModel::new();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for i in 0..500u32 {
            assert_eq!(dec.decode_bit(&mut model).unwrap(), i % 3 == 0);
            assert_eq!(dec.decode_direct_bits(6).unwrap(), i & 0x3F);
        }
    }

    #[test]
    fn separate_contexts_beat_single_context() {
        // Position-dependent bias: even positions ~always 1, odd ~always 0.
        let bits: Vec<bool> = (0..50_000).map(|i| i % 2 == 0).collect();
        // Single context: adapts to 50/50 → ~1 bit/bit.
        let mut one = BitModel::new();
        let mut enc1 = RangeEncoder::new();
        for &b in &bits {
            enc1.encode_bit(&mut one, b);
        }
        let single = enc1.finish().len();
        // Two contexts: each becomes deterministic → ≪ 1 bit/bit.
        let mut two = [BitModel::new(), BitModel::new()];
        let mut enc2 = RangeEncoder::new();
        for (i, &b) in bits.iter().enumerate() {
            enc2.encode_bit(&mut two[i % 2], b);
        }
        let dual = enc2.finish().len();
        assert!(dual * 4 < single, "dual {dual} vs single {single}");
    }
}
