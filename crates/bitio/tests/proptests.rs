//! Property-based tests for bit I/O and varint coding (masc-testkit).

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_bitio::{varint, BitReader, BitWriter};
use masc_testkit::gen::{self, Gen};
use masc_testkit::{prop, prop_assert, prop_assert_eq};

/// An arbitrary (value, width) pair with the value masked to the width.
fn bits() -> impl Gen<Value = (u64, u32)> {
    gen::from_fn(|rng| {
        let n = rng.range_u32(1, 65);
        let v = rng.next_u64();
        let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
        (masked, n)
    })
}

prop! {
    fn bit_sequences_round_trip(items in gen::vecs(bits(), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, n) in &items {
            w.write_bits(v, n);
        }
        let expected_bits: usize = items.iter().map(|&(_, n)| n as usize).sum();
        prop_assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &items {
            prop_assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    fn interleaved_bits_and_words(bools in gen::vecs(gen::bools(), 0..64),
                                  words in gen::vecs(gen::u64s(), 0..16)) {
        let mut w = BitWriter::new();
        for (i, &b) in bools.iter().enumerate() {
            w.write_bit(b);
            if i < words.len() {
                w.write_u64(words[i]);
            }
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (i, &b) in bools.iter().enumerate() {
            prop_assert_eq!(r.read_bit().unwrap(), b);
            if i < words.len() {
                prop_assert_eq!(r.read_u64().unwrap(), words[i]);
            }
        }
    }

    fn append_equals_inline(first in gen::vecs(bits(), 0..50),
                            second in gen::vecs(bits(), 0..50)) {
        let mut inline = BitWriter::new();
        for &(v, n) in first.iter().chain(&second) {
            inline.write_bits(v, n);
        }
        let mut a = BitWriter::new();
        for &(v, n) in &first {
            a.write_bits(v, n);
        }
        let mut b = BitWriter::new();
        for &(v, n) in &second {
            b.write_bits(v, n);
        }
        let mut stitched = BitWriter::new();
        stitched.append(&a);
        stitched.append(&b);
        prop_assert_eq!(stitched.into_bytes(), inline.into_bytes());
    }

    fn varint_round_trip(v in gen::u64s()) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let (decoded, used) = varint::read_u64(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(used, buf.len());
    }

    fn zigzag_round_trip(v in gen::i64s()) {
        prop_assert_eq!(varint::zigzag_decode(varint::zigzag_encode(v)), v);
    }

    fn deltas_round_trip(values in gen::vecs(gen::range_usize(0, 1_000_000_000), 0..300)) {
        let buf = varint::encode_deltas(&values);
        prop_assert_eq!(varint::decode_deltas(&buf).unwrap(), values);
    }

    fn sorted_deltas_are_compact(gaps in gen::vecs(gen::range_usize(0, 64), 1..300)) {
        let mut values = Vec::with_capacity(gaps.len());
        let mut acc = 0usize;
        for g in gaps {
            acc += g;
            values.push(acc);
        }
        let buf = varint::encode_deltas(&values);
        // ZigZag doubles the gap, so gaps < 64 always fit one LEB128 byte;
        // the length header is ≤ 5 bytes here.
        prop_assert!(buf.len() <= values.len() + 5);
    }
}

/// Adversarial fixed cases the random sweep might miss.
#[test]
fn varint_boundary_values_round_trip() {
    for v in [
        0u64,
        1,
        127,
        128,
        16_383,
        16_384,
        u64::from(u32::MAX),
        u64::MAX - 1,
        u64::MAX,
    ] {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let (decoded, used) = varint::read_u64(&buf).unwrap();
        assert_eq!(decoded, v);
        assert_eq!(used, buf.len());
    }
}

#[test]
fn varint_empty_and_truncated_inputs_are_errors() {
    assert!(varint::read_u64(&[]).is_err());
    // A continuation byte with no terminator.
    assert!(varint::read_u64(&[0x80]).is_err());
    let mut buf = Vec::new();
    varint::write_u64(&mut buf, u64::MAX);
    for cut in 0..buf.len() {
        assert!(varint::read_u64(&buf[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn empty_delta_list_round_trips() {
    let buf = varint::encode_deltas(&[]);
    assert_eq!(varint::decode_deltas(&buf).unwrap(), Vec::<usize>::new());
}
