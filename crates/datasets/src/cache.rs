//! On-disk dataset caching.
//!
//! Full-scale dataset generation means minutes of transient simulation, and
//! every experiment binary (table2/table3/fig5/fig6) needs the same seven
//! tensors. [`DatasetSpec::generate_cached`] serializes each generated
//! dataset under a cache directory keyed by `(name, scale)` so the
//! simulation runs once per machine.
//!
//! [`DatasetSpec::generate_cached`]: crate::registry::DatasetSpec::generate_cached

// Hardened-surface rule R1 (DESIGN.md §3.10): this module decodes cache
// files that may be corrupt, so it never panics. An index that clippy cannot
// prove in bounds carries an
// `#[expect(clippy::indexing_slicing, reason = "<the guard>")]`.
#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::unwrap_used,
    clippy::expect_used
)]

use crate::dataset::Dataset;
use masc_bitio::cursor::{write_f64s, write_prefixed, ByteCursor};
use masc_bitio::varint::{self, VarintError};
use masc_sparse::Pattern;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Cache-file magic/version; bump when the layout changes.
const MAGIC: &[u8; 8] = b"MASCDS02";

/// Errors from cache serialization.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The cache file is malformed or from an old version.
    Corrupt(&'static str),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "dataset cache I/O: {e}"),
            CacheError::Corrupt(what) => write!(f, "dataset cache corrupt: {what}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

impl From<VarintError> for CacheError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => CacheError::Corrupt("truncated"),
            VarintError::Overflow => CacheError::Corrupt("bad varint"),
        }
    }
}

/// Serializes a dataset to bytes.
pub fn dataset_to_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    write_prefixed(&mut out, dataset.name.as_bytes());
    varint::write_u64(&mut out, dataset.elements as u64);
    write_prefixed(&mut out, &dataset.g_pattern.to_compressed_bytes());
    write_prefixed(&mut out, &dataset.c_pattern.to_compressed_bytes());
    varint::write_u64(&mut out, dataset.hs.len() as u64);
    write_f64s(&mut out, &dataset.hs);
    varint::write_u64(&mut out, dataset.g_series.len() as u64);
    for (g, c) in dataset.g_series.iter().zip(&dataset.c_series) {
        for run in [g, c] {
            varint::write_u64(&mut out, run.len() as u64);
            write_f64s(&mut out, run);
        }
    }
    out
}

/// Deserializes a dataset written by [`dataset_to_bytes`].
///
/// # Errors
///
/// Returns [`CacheError::Corrupt`] on malformed input.
#[expect(
    clippy::disallowed_methods,
    reason = "`steps ≤ buf.len()`, checked just above"
)]
pub fn dataset_from_bytes(buf: &[u8]) -> Result<Dataset, CacheError> {
    let mut cur = ByteCursor::new(buf);
    if cur.read_array().ok() != Some(*MAGIC) {
        return Err(CacheError::Corrupt("bad magic/version"));
    }
    let name = String::from_utf8(cur.read_prefixed()?.to_vec())
        .map_err(|_| CacheError::Corrupt("bad name"))?;
    let elements = cur.read_varint()?;
    let g_pattern = Pattern::from_compressed_bytes(cur.read_prefixed()?)
        .map_err(|_| CacheError::Corrupt("bad g pattern"))?;
    let c_pattern = Pattern::from_compressed_bytes(cur.read_prefixed()?)
        .map_err(|_| CacheError::Corrupt("bad c pattern"))?;
    let n = cur.read_varint()?;
    let hs = cur.read_f64s(n as usize)?;
    let steps = cur.read_varint()?;
    // Every step costs at least two length varints, so a claimed step count
    // beyond the remaining input is truncated garbage; reject it before
    // trusting it with an allocation.
    if steps > buf.len() as u64 {
        return Err(CacheError::Corrupt("truncated"));
    }
    let mut g_series = Vec::with_capacity(steps as usize);
    let mut c_series = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        for series in [&mut g_series, &mut c_series] {
            let n = cur.read_varint()?;
            series.push(cur.read_f64s(n as usize)?);
        }
    }
    Ok(Dataset {
        name,
        elements: elements as usize,
        g_pattern: Arc::new(g_pattern),
        c_pattern: Arc::new(c_pattern),
        g_series,
        c_series,
        hs,
    })
}

/// Loads `name@scale` from `dir`, or generates it with `make` and stores
/// it.
///
/// # Errors
///
/// Returns [`CacheError`] only for I/O failures while *writing*; a corrupt
/// or missing cache entry silently falls back to regeneration.
pub fn load_or_generate(
    dir: &Path,
    name: &str,
    scale: f64,
    make: impl FnOnce() -> Dataset,
) -> Result<Dataset, CacheError> {
    std::fs::create_dir_all(dir)?;
    let file = dir.join(format!("{name}-{scale:.4}.masc"));
    if let Ok(mut f) = std::fs::File::open(&file) {
        let mut buf = Vec::new();
        if f.read_to_end(&mut buf).is_ok() {
            if let Ok(dataset) = dataset_from_bytes(&buf) {
                return Ok(dataset);
            }
        }
    }
    let dataset = make();
    let bytes = dataset_to_bytes(&dataset);
    let mut f = std::fs::File::create(&file)?;
    f.write_all(&bytes)?;
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::table2_datasets;

    #[test]
    fn round_trip_bytes() {
        let ds = table2_datasets()[0].generate(0.03).unwrap();
        let bytes = dataset_to_bytes(&ds);
        let back = dataset_from_bytes(&bytes).unwrap();
        assert_eq!(back.name, ds.name);
        assert_eq!(back.elements, ds.elements);
        assert_eq!(back.g_pattern, ds.g_pattern);
        assert_eq!(back.g_series, ds.g_series);
        assert_eq!(back.c_series, ds.c_series);
        assert_eq!(back.hs, ds.hs);
    }

    #[test]
    fn corrupt_cache_rejected() {
        assert!(dataset_from_bytes(b"garbage").is_err());
        let ds = table2_datasets()[0].generate(0.03).unwrap();
        let mut bytes = dataset_to_bytes(&ds);
        bytes.truncate(bytes.len() / 2);
        assert!(dataset_from_bytes(&bytes).is_err());
    }

    #[test]
    fn load_or_generate_uses_cache() {
        let dir = std::env::temp_dir().join("masc-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut generated = 0;
        for _ in 0..2 {
            let ds = load_or_generate(&dir, "t", 0.03, || {
                generated += 1;
                table2_datasets()[0].generate(0.03).unwrap()
            })
            .unwrap();
            assert!(ds.steps() > 0);
        }
        assert_eq!(generated, 1, "second load must hit the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
