//! Crash-corpus persistence.
//!
//! Each entry is one file under `tests/corpus/`:
//!
//! ```text
//! masc-conform/1 <oracle> seed=0x<case seed>\n
//! <raw minimized input bytes>
//! ```
//!
//! The header records which oracle to replay the payload through and the
//! case seed that originally produced it (`MASC_PROP_REPRO`-compatible).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Corpus format magic for version 1.
pub const MAGIC: &str = "masc-conform/1";

/// One persisted failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Oracle name the payload replays through.
    pub oracle: String,
    /// Case seed that originally produced the failure.
    pub seed: u64,
    /// Minimized failing input.
    pub payload: Vec<u8>,
}

impl CorpusEntry {
    /// Serializes the entry to its on-disk form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!("{MAGIC} {} seed={:#x}\n", self.oracle, self.seed).into_bytes();
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses an on-disk entry.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("corpus entry has no header line")?;
        let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| "corpus header is not UTF-8")?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some(MAGIC) {
            return Err(format!("bad corpus magic in {header:?}"));
        }
        let oracle = fields.next().ok_or("corpus header missing oracle")?;
        let seed_field = fields.next().ok_or("corpus header missing seed")?;
        let seed_hex = seed_field
            .strip_prefix("seed=0x")
            .ok_or("corpus seed field must be seed=0x<hex>")?;
        let seed = u64::from_str_radix(seed_hex, 16).map_err(|e| format!("bad seed: {e}"))?;
        Ok(Self {
            oracle: oracle.to_string(),
            seed,
            payload: bytes[nl + 1..].to_vec(),
        })
    }
}

/// Writes `entry` into `dir` (creating it), named after its oracle and
/// seed. Returns the path written.
pub fn write_entry(dir: &Path, entry: &CorpusEntry) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-{:016x}.case", entry.oracle, entry.seed));
    fs::write(&path, entry.to_bytes())?;
    Ok(path)
}

/// Loads every `*.case` entry under `dir`, sorted by file name.
/// A missing directory is an empty corpus.
pub fn load_dir(dir: &Path) -> io::Result<Vec<(PathBuf, CorpusEntry)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("case") {
            continue;
        }
        let bytes = fs::read(&path)?;
        match CorpusEntry::from_bytes(&bytes) {
            Ok(parsed) => out.push((path, parsed)),
            Err(msg) => {
                return Err(io::Error::other(format!("{}: {msg}", path.display())));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_round_trips_including_binary_payload() {
        let entry = CorpusEntry {
            oracle: "codec-decode".to_string(),
            seed: 0xDEAD_BEEF,
            payload: vec![0, 1, 2, 0xFF, b'\n', 7],
        };
        assert_eq!(
            CorpusEntry::from_bytes(&entry.to_bytes()).expect("parses"),
            entry
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(CorpusEntry::from_bytes(b"nonsense header\npayload").is_err());
    }
}
