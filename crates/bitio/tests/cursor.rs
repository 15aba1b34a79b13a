//! Bounds behaviour of `masc_bitio::cursor::ByteCursor`: a short read is
//! `Truncated`, a too-wide varint is `Overflow`, and a claim beyond the
//! remaining bytes fails before anything is allocated for it. The delta
//! decoder that reads through it reports overflow as an error.

use masc_bitio::cursor::{self, ByteCursor};
use masc_bitio::varint::{self, VarintError};

/// A frame that uses every read the cursor has.
fn frame() -> Vec<u8> {
    let mut buf = Vec::new();
    varint::write_u64(&mut buf, 300);
    buf.push(7);
    buf.extend_from_slice(&[1, 2, 3]);
    cursor::write_prefixed(&mut buf, b"hello");
    cursor::write_f64s(&mut buf, &[1.5, -0.0, f64::MAX]);
    buf.extend_from_slice(&[9, 9]);
    buf
}

fn read_frame(bytes: &[u8]) -> Result<(), VarintError> {
    let mut cur = ByteCursor::new(bytes);
    assert_eq!(cur.read_varint()?, 300);
    assert_eq!(cur.read_u8()?, 7);
    assert_eq!(cur.read_array()?, [1, 2, 3]);
    assert_eq!(cur.read_prefixed()?, b"hello");
    let run = cur.read_f64s(3)?;
    let bits: Vec<u64> = run.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, [1.5f64, -0.0, f64::MAX].map(f64::to_bits));
    assert_eq!(cur.read_bytes(2)?, [9, 9]);
    assert_eq!(cur.remaining(), 0);
    assert_eq!(cur.position(), bytes.len());
    Ok(())
}

#[test]
fn every_strict_prefix_of_a_frame_is_truncated() {
    let bytes = frame();
    read_frame(&bytes).unwrap();
    for cut in 0..bytes.len() {
        assert_eq!(
            read_frame(&bytes[..cut]),
            Err(VarintError::Truncated),
            "prefix of {cut} bytes"
        );
    }
}

#[test]
fn a_failed_read_consumes_nothing() {
    let bytes = frame();
    // The varint, the byte, the array, and 2 of the prefixed slice's 6.
    let mut cur = ByteCursor::new(&bytes[..8]);
    cur.read_varint().unwrap();
    cur.read_u8().unwrap();
    cur.read_array::<3>().unwrap();
    let at = cur.position();
    assert_eq!(cur.read_prefixed(), Err(VarintError::Truncated));
    assert_eq!(cur.read_f64s(1), Err(VarintError::Truncated));
    assert_eq!(cur.read_array::<3>(), Err(VarintError::Truncated));
    assert_eq!(cur.position(), at);
    assert_eq!(cur.rest(), &bytes[at..8]);
    assert_eq!(cur.read_bytes(2).unwrap(), &bytes[at..8]);
    assert_eq!(cur.read_u8(), Err(VarintError::Truncated));
}

#[test]
fn a_varint_wider_than_64_bits_overflows() {
    // Ten continuation bytes carry 70 payload bits before the terminator.
    let mut wide = [0xFFu8; 11];
    wide[10] = 0x01;
    let mut cur = ByteCursor::new(&wide);
    assert_eq!(cur.read_varint(), Err(VarintError::Overflow));
    assert_eq!(cur.read_prefixed(), Err(VarintError::Overflow));
    assert_eq!(cur.position(), 0);
    // A 65th bit in the tenth byte overflows too; `u64::MAX` does not.
    let mut max = Vec::new();
    varint::write_u64(&mut max, u64::MAX);
    assert_eq!(ByteCursor::new(&max).read_varint(), Ok(u64::MAX));
    let last = max.len() - 1;
    max[last] = 0x02;
    assert_eq!(
        ByteCursor::new(&max).read_varint(),
        Err(VarintError::Overflow)
    );
}

#[test]
fn claims_beyond_the_remaining_bytes_are_rejected() {
    let bytes = [0u8; 16];
    let mut cur = ByteCursor::new(&bytes);
    // Allocating for any of these before checking would abort the test.
    for n in [3, 1 << 40, usize::MAX / 8 + 1, usize::MAX] {
        assert_eq!(cur.read_f64s(n), Err(VarintError::Truncated), "{n} f64s");
    }
    assert_eq!(cur.read_bytes(17), Err(VarintError::Truncated));
    assert_eq!(cur.read_f64s(2), Ok(vec![0.0, 0.0]));

    // A length prefix that claims more than follows it.
    for claim in [6, 1 << 40, u64::MAX] {
        let mut framed = Vec::new();
        varint::write_u64(&mut framed, claim);
        framed.extend_from_slice(b"hello");
        assert_eq!(
            ByteCursor::new(&framed).read_prefixed(),
            Err(VarintError::Truncated),
            "claim {claim}"
        );
    }
}

#[test]
fn delta_decoding_overflow_is_an_error_not_a_panic() {
    // Two deltas whose running sum passes `i64::MAX`.
    let mut bytes = Vec::new();
    varint::write_u64(&mut bytes, 2);
    varint::write_u64(&mut bytes, varint::zigzag_encode(i64::MAX));
    varint::write_u64(&mut bytes, varint::zigzag_encode(1));
    assert_eq!(varint::decode_deltas(&bytes), Err(VarintError::Overflow));
}
