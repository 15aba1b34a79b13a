//! Registry and cache conformance: name lookups, bit-exact generator
//! determinism (the benchmarks' numbers must be reproducible), and the
//! cache's corrupt-entry fallback.

use masc_datasets::cache::{dataset_from_bytes, dataset_to_bytes, load_or_generate};
use masc_datasets::{table1_circuits, table2_datasets, Dataset};
use masc_sparse::Pattern;
use std::sync::Arc;

#[test]
fn registry_names_are_unique_and_resolvable() {
    // A name may appear in both tables (the paper reuses circuits across
    // Table 1 and Table 2) but must be unique within each table.
    for (table, specs) in [("table1", table1_circuits()), ("table2", table2_datasets())] {
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate dataset names in {table}");
    }

    for wanted in ["add20", "ram2k"] {
        assert!(
            table1_circuits()
                .iter()
                .chain(table2_datasets().iter())
                .any(|s| s.name == wanted),
            "registry lost dataset {wanted:?}"
        );
    }
}

#[test]
fn generation_is_bit_deterministic() {
    let spec = &table2_datasets()[0];
    let a = spec.generate(0.05).expect("generate");
    let b = spec.generate(0.05).expect("generate");
    // Compare through the canonical serialization: covers patterns, both
    // series, and step sizes in one shot, bit for bit.
    assert_eq!(
        dataset_to_bytes(&a),
        dataset_to_bytes(&b),
        "{} generation is not deterministic",
        spec.name
    );
}

#[test]
fn cache_misses_then_hits_then_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("masc-ds-conform-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = table2_datasets();
    let spec = &specs[0];
    let make_count = std::cell::Cell::new(0u32);
    let make = || {
        make_count.set(make_count.get() + 1);
        spec.generate(0.03).expect("generate")
    };

    // Miss: first load generates and writes the cache file.
    let first = load_or_generate(&dir, spec.name, 0.03, make).expect("first load");
    assert_eq!(make_count.get(), 1);

    // Hit: second load must not regenerate, and must return the same data.
    let second = load_or_generate(&dir, spec.name, 0.03, || {
        make_count.set(make_count.get() + 1);
        spec.generate(0.03).expect("generate")
    })
    .expect("second load");
    assert_eq!(make_count.get(), 1, "cache hit must not regenerate");
    assert_eq!(dataset_to_bytes(&first), dataset_to_bytes(&second));

    // Corruption: a truncated cache entry silently falls back to
    // regeneration and repairs the file.
    let file = dir.join(format!("{}-{:.4}.masc", spec.name, 0.03));
    let bytes = std::fs::read(&file).expect("cache file exists");
    std::fs::write(&file, &bytes[..bytes.len() / 3]).expect("truncate cache file");
    let third = load_or_generate(&dir, spec.name, 0.03, || {
        make_count.set(make_count.get() + 1);
        spec.generate(0.03).expect("generate")
    })
    .expect("third load");
    assert_eq!(make_count.get(), 2, "corrupt entry must regenerate");
    assert_eq!(dataset_to_bytes(&first), dataset_to_bytes(&third));
    assert_eq!(
        std::fs::read(&file).expect("repaired cache file"),
        dataset_to_bytes(&third),
        "regeneration must repair the cache file"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_cached_matches_uncached() {
    let dir = std::env::temp_dir().join(format!("masc-ds-cached-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = &table2_datasets()[1];
    let cached = spec.generate_cached(0.03, &dir);
    let direct = spec.generate(0.03).expect("generate");
    assert_eq!(dataset_to_bytes(&cached), dataset_to_bytes(&direct));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_strict_prefix_of_a_cache_file_is_rejected() {
    let diag = Arc::new(Pattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).unwrap());
    let small = Dataset {
        name: "d".to_string(),
        elements: 2,
        g_pattern: diag.clone(),
        c_pattern: diag,
        g_series: vec![vec![1.0, -2.0], vec![3.0, 4.0]],
        c_series: vec![vec![0.5, 0.25], vec![]],
        hs: vec![0.0, 1e-3],
    };
    let bytes = dataset_to_bytes(&small);
    let back = dataset_from_bytes(&bytes).unwrap();
    assert_eq!(
        (back.g_series, back.c_series),
        (small.g_series, small.c_series)
    );
    for cut in 0..bytes.len() {
        assert!(
            dataset_from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes"
        );
    }
}
