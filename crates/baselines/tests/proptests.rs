//! Property-based round-trip tests for every baseline compressor
//! (masc-testkit): the four lossless baselines must be bit-exact on
//! arbitrary value streams (including NaNs, infinities, subnormals, and
//! signed zeros), SpiceMate must respect its error bound, and every
//! decoder must reject arbitrary bytes without panicking.

use masc_baselines::{ChimpLike, Compressor, FpzipLike, GzipLike, NdzipLike, SpiceMate};
use masc_testkit::gen::{self, Gen};
use masc_testkit::{prop, prop_assert, prop_assert_eq};

/// Value streams biased toward the regimes the baselines target: smooth
/// simulation-like series, plus raw special-value payloads.
fn streams() -> impl Gen<Value = Vec<f64>> {
    gen::one_of(vec![
        gen::vecs(gen::f64_payloads(), 0..300).boxed(),
        gen::from_fn(|rng| {
            let n = rng.range_usize(0, 400);
            let mut v = rng.range_f64(-1.0, 1.0);
            (0..n)
                .map(|_| {
                    v += rng.range_f64(-1e-3, 1e-3);
                    v
                })
                .collect()
        })
        .boxed(),
    ])
}

fn lossless() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(ChimpLike::new()),
        Box::new(FpzipLike::new()),
        Box::new(NdzipLike::new()),
        Box::new(GzipLike::new()),
    ]
}

fn assert_bit_exact(c: &dyn Compressor, values: &[f64]) {
    let restored = c
        .decompress(&c.compress(values))
        .unwrap_or_else(|e| panic!("{} rejected its own output: {e:?}", c.name()));
    prop_assert_eq!(restored.len(), values.len(), "{} length", c.name());
    for (i, (a, b)) in restored.iter().zip(values).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} not bit-exact at value {i}",
            c.name()
        );
    }
}

prop! {
    fn chimp_round_trip(values in streams()) {
        assert_bit_exact(&ChimpLike::new(), &values);
    }

    fn fpzip_round_trip(values in streams()) {
        assert_bit_exact(&FpzipLike::new(), &values);
    }

    fn ndzip_round_trip(values in streams()) {
        assert_bit_exact(&NdzipLike::new(), &values);
    }

    fn gzip_round_trip(values in streams()) {
        assert_bit_exact(&GzipLike::new(), &values);
    }

    fn spicemate_respects_error_bound(values in streams()) {
        let eb = 1e-6;
        let sm = SpiceMate::new(eb);
        let restored = sm.decompress(&sm.compress(&values)).expect("own output");
        prop_assert_eq!(restored.len(), values.len());
        for (i, (&a, &b)) in restored.iter().zip(&values).enumerate() {
            if b.is_finite() {
                prop_assert!(
                    (a - b).abs() <= eb * (1.0 + 1e-9),
                    "error bound exceeded at value {i}: {a:?} vs {b:?}"
                );
            } else {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "non-finite at value {i}");
            }
        }
    }

    fn decoders_survive_arbitrary_bytes(data in gen::vecs(gen::u8s(), 0..400)) {
        let mut all = lossless();
        all.push(Box::new(SpiceMate::new(1e-6)));
        for c in all {
            // Structured error or success — never a panic.
            let _ = c.decompress(&data);
        }
    }
}
