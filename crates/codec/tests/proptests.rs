//! Property-based round-trip tests for every coder in `masc-codec`
//! (masc-testkit), plus adversarial fixed inputs: empty streams,
//! single-symbol and all-equal payloads, and special-float byte images.

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_codec::{huffman, lzss, range, rans, rle, transform};
use masc_testkit::gen::{self, Gen};
use masc_testkit::{prop, prop_assert_eq};

/// Byte vectors biased toward compressible content (runs + low-entropy +
/// float images + noise).
fn datas() -> impl Gen<Value = Vec<u8>> {
    gen::one_of(vec![
        gen::vecs(gen::u8s(), 0..2000).boxed(),
        gen::vecs(gen::range_u8(0, 4), 0..2000).boxed(),
        gen::from_fn(|rng| {
            let b = rng.next_u32() as u8;
            let n = rng.range_usize(0, 3000);
            vec![b; n]
        })
        .boxed(),
        gen::vecs(gen::f64_payloads(), 0..256)
            .map(|fs| fs.iter().flat_map(|f| f.to_le_bytes()).collect())
            .boxed(),
    ])
}

prop! {
    fn huffman_round_trip(data in datas()) {
        let packed = huffman::encode(&data);
        prop_assert_eq!(huffman::decode(&packed).unwrap(), data);
    }

    fn rans_round_trip(data in datas()) {
        let packed = rans::encode(&data);
        prop_assert_eq!(rans::decode(&packed).unwrap(), data);
    }

    fn lzss_round_trip(data in datas()) {
        let tokens = lzss::compress(&data);
        prop_assert_eq!(lzss::decompress(&tokens).unwrap(), data);
    }

    fn range_coder_round_trip(bits in gen::vecs(gen::bools(), 0..4000)) {
        let mut model = range::BitModel::new();
        let mut enc = range::RangeEncoder::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        let mut model = range::BitModel::new();
        let mut dec = range::RangeDecoder::new(&bytes).unwrap();
        for &b in &bits {
            prop_assert_eq!(dec.decode_bit(&mut model).unwrap(), b);
        }
    }

    fn range_tree_round_trip(values in gen::vecs(gen::range_u32(0, 256), 0..1000)) {
        let mut models = vec![range::BitModel::new(); 255];
        let mut enc = range::RangeEncoder::new();
        for &v in &values {
            enc.encode_bits_tree(&mut models, 8, v);
        }
        let bytes = enc.finish();
        let mut models = vec![range::BitModel::new(); 255];
        let mut dec = range::RangeDecoder::new(&bytes).unwrap();
        for &v in &values {
            prop_assert_eq!(dec.decode_bits_tree(&mut models, 8).unwrap(), v);
        }
    }

    fn rle_round_trip(words in gen::vecs(
        gen::weighted(vec![
            (1, gen::just(0u64).boxed()),
            (1, gen::u64s().boxed()),
        ]),
        0..2000,
    )) {
        let packed = rle::encode_words(&words);
        prop_assert_eq!(rle::decode_words(&packed).unwrap(), words);
    }

    fn xor_transform_round_trip(words in gen::vecs(gen::u64s(), 0..500)) {
        let mut w = words.clone();
        transform::xor_previous(&mut w);
        transform::undo_xor_previous(&mut w);
        prop_assert_eq!(w, words);
    }

    fn delta_transform_round_trip(words in gen::vecs(gen::u64s(), 0..500)) {
        let mut w = words.clone();
        transform::delta_previous(&mut w);
        transform::undo_delta_previous(&mut w);
        prop_assert_eq!(w, words);
    }

    fn transpose_involution(words in gen::vecs(gen::u64s(), 64..65)) {
        let mut w = words.clone();
        transform::transpose_bits(&mut w);
        transform::transpose_bits(&mut w);
        prop_assert_eq!(w, words);
    }
}

/// The adversarial payload matrix every byte coder must survive: empty
/// input, a single symbol, long all-equal runs, a two-symbol alternation,
/// every byte value once, and the byte images of special floats
/// (`NaN`, `±0.0`, infinities, subnormals).
fn adversarial_payloads() -> Vec<(&'static str, Vec<u8>)> {
    let specials = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,                // smallest positive subnormal
        -2.2250738585072e-308, // near the subnormal boundary
        f64::MAX,
        f64::MIN_POSITIVE,
    ];
    vec![
        ("empty", Vec::new()),
        ("single_symbol", vec![0xA5]),
        ("all_equal_short", vec![0u8; 7]),
        ("all_equal_long", vec![0xFF; 4096]),
        (
            "two_symbol_alternation",
            (0..2048).map(|i| (i % 2) as u8 * 0x5A).collect(),
        ),
        ("every_byte_once", (0..=255u8).collect()),
        (
            "special_floats",
            specials.iter().flat_map(|f| f.to_le_bytes()).collect(),
        ),
        (
            "special_floats_repeated",
            std::iter::repeat_with(|| specials.iter().flat_map(|f| f.to_le_bytes()))
                .take(64)
                .flatten()
                .collect(),
        ),
    ]
}

#[test]
fn huffman_survives_adversarial_inputs() {
    for (name, data) in adversarial_payloads() {
        let packed = huffman::encode(&data);
        assert_eq!(huffman::decode(&packed).unwrap(), data, "{name}");
    }
}

#[test]
fn rans_survives_adversarial_inputs() {
    for (name, data) in adversarial_payloads() {
        let packed = rans::encode(&data);
        assert_eq!(rans::decode(&packed).unwrap(), data, "{name}");
    }
}

#[test]
fn lzss_survives_adversarial_inputs() {
    for (name, data) in adversarial_payloads() {
        let tokens = lzss::compress(&data);
        assert_eq!(lzss::decompress(&tokens).unwrap(), data, "{name}");
    }
}

#[test]
fn rle_survives_adversarial_word_streams() {
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("empty", Vec::new()),
        ("single_word", vec![u64::MAX]),
        ("all_zero", vec![0; 3000]),
        ("all_equal", vec![0xDEAD_BEEF; 513]),
        (
            "special_float_bits",
            [f64::NAN, -0.0, 0.0, f64::INFINITY, 5e-324]
                .iter()
                .map(|f| f.to_bits())
                .collect(),
        ),
    ];
    for (name, words) in cases {
        let packed = rle::encode_words(&words);
        assert_eq!(rle::decode_words(&packed).unwrap(), words, "{name}");
    }
}

#[test]
fn range_coder_survives_degenerate_bit_streams() {
    for bits in [
        Vec::new(),
        vec![true],
        vec![false],
        vec![true; 5000],
        vec![false; 5000],
        (0..5000).map(|i| i % 2 == 0).collect::<Vec<_>>(),
    ] {
        let mut model = range::BitModel::new();
        let mut enc = range::RangeEncoder::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        let mut model = range::BitModel::new();
        let mut dec = range::RangeDecoder::new(&bytes).unwrap();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut model).unwrap(), b);
        }
    }
}

#[test]
fn decoders_reject_empty_or_garbage_headers() {
    assert!(huffman::decode(&[]).is_err() || huffman::decode(&[]).unwrap().is_empty());
    assert!(rans::decode(&[]).is_err() || rans::decode(&[]).unwrap().is_empty());
    assert!(rle::decode_words(&[]).is_err() || rle::decode_words(&[]).unwrap().is_empty());
}
