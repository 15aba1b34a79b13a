//! The content-addressed compressed-tensor cache.
//!
//! A cache entry is everything the reverse pass needs to replay a job
//! without re-running the forward transient: the recorded trajectory
//! ([`RunMeta`]) and the two sealed compressed Jacobian tensors. Entries
//! are keyed by [`entry_key`] — an FNV-1a hash over the job's
//! [`job_fingerprint`]: the *canonical* netlist text (the deck
//! re-serialized by
//! [`write_netlist`](masc_circuit::netlist::write_netlist), so
//! whitespace/comment/float-spelling variants of the same deck share an
//! entry), the transient options, and the [`MascConfig`]. The 64-bit key
//! only addresses; the full fingerprint string is embedded in every
//! entry and compared verbatim on each hit, so an FNV collision (chance
//! or constructed) can never serve another job's sensitivities — it is
//! detected and treated as a miss.
//!
//! Two tiers: a byte-bounded in-memory LRU of decoded entries, and a disk
//! tier of encoded entries (`<key>.msc` files, written
//! temp-file-then-rename so a crash never leaves a torn entry visible).
//! The wire format is checksummed; a corrupt disk entry is discarded and
//! reported as a miss, never a panic.

// Hardened-surface rule R1 (DESIGN.md §3.10): this module decodes cache
// entries from disk that may be corrupt, so it never panics. An index that
// clippy cannot prove in bounds carries an
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

use masc_adjoint::RunMeta;
use masc_bitio::bounded::check_claim;
use masc_bitio::cursor::{write_f64s, write_prefixed, ByteCursor};
use masc_bitio::varint::{self, VarintError};
use masc_circuit::transient::TranOptions;
use masc_compress::{CompressError, CompressedTensor, MascConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Entry wire-format magic (`MSV2` — v2 added the embedded fingerprint).
const MAGIC: [u8; 4] = *b"MSV2";
/// Most time points one entry may claim (a 4M-step transient).
const MAX_TIME_POINTS: usize = 1 << 22;
/// Most state doubles one entry may claim (rows × columns).
const MAX_STATE_VALUES: usize = 1 << 28;
/// Most fingerprint bytes one entry may claim (canonical decks are
/// bounded by the ≤1 MiB wire line they arrived on; 4 MiB leaves room
/// for unescaping and the option debug strings).
const MAX_FINGERPRINT_BYTES: usize = 1 << 22;

/// FNV-1a over `bytes` from the standard offset basis (same constants as
/// `masc-testkit`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The full identity string of one job: canonical deck text + transient
/// options + compression config, `0x1f`-separated. This is what
/// [`entry_key`] hashes, and it is stored verbatim inside every encoded
/// entry so a hit can prove the entry belongs to the job (a 64-bit FNV
/// key alone is addressable, not collision-proof).
pub fn job_fingerprint(canonical_deck: &str, tran: &TranOptions, masc: &MascConfig) -> String {
    // `TranOptions`/`MascConfig` Debug output round-trips every f64
    // shortest-form, so equal configs fingerprint equal and any field
    // change (tolerances included) changes the fingerprint.
    format!("{canonical_deck}\u{1f}{tran:?}\u{1f}{masc:?}")
}

/// Content-addressed key for one job: FNV-1a over
/// [`job_fingerprint`]. Collisions are defended downstream — a hit whose
/// embedded fingerprint differs from the job's is discarded and treated
/// as a miss — so a 64-bit key is sufficient for addressing.
pub fn entry_key(canonical_deck: &str, tran: &TranOptions, masc: &MascConfig) -> u64 {
    fnv1a(job_fingerprint(canonical_deck, tran, masc).as_bytes())
}

/// One decoded cache entry: the full replay state for a job.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The [`job_fingerprint`] of the job that produced this entry —
    /// compared verbatim on every hit to rule out key collisions.
    pub fingerprint: String,
    /// The recorded forward trajectory.
    pub meta: RunMeta,
    /// The sealed compressed `G` tensor.
    pub g: CompressedTensor,
    /// The sealed compressed `C` tensor.
    pub c: CompressedTensor,
}

/// Why an entry failed to load, decode, or persist.
#[derive(Debug)]
pub enum CacheError {
    /// The byte stream ended early.
    Truncated,
    /// The magic header is wrong.
    BadMagic,
    /// The trailing checksum does not match the content.
    Checksum,
    /// A claimed length exceeds its bound.
    Bound(masc_bitio::bounded::AllocBoundError),
    /// A varint failed to decode.
    Varint(masc_bitio::varint::VarintError),
    /// The embedded fingerprint is not valid UTF-8.
    BadFingerprint,
    /// The entry's internal lengths disagree.
    LengthMismatch,
    /// An embedded tensor failed to decode.
    Tensor(CompressError),
    /// Disk I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Truncated => write!(f, "cache entry truncated"),
            CacheError::BadMagic => write!(f, "cache entry has wrong magic"),
            CacheError::Checksum => write!(f, "cache entry checksum mismatch"),
            CacheError::Bound(e) => write!(f, "cache entry length claim: {e}"),
            CacheError::Varint(e) => write!(f, "cache entry varint: {e}"),
            CacheError::BadFingerprint => write!(f, "cache entry fingerprint is not UTF-8"),
            CacheError::LengthMismatch => write!(f, "cache entry internal lengths disagree"),
            CacheError::Tensor(e) => write!(f, "cache entry tensor: {e}"),
            CacheError::Io(e) => write!(f, "cache i/o: {e}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Bound(e) => Some(e),
            CacheError::Varint(e) => Some(e),
            CacheError::Tensor(e) => Some(e),
            CacheError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<masc_bitio::bounded::AllocBoundError> for CacheError {
    fn from(e: masc_bitio::bounded::AllocBoundError) -> Self {
        CacheError::Bound(e)
    }
}

impl From<VarintError> for CacheError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => CacheError::Truncated,
            VarintError::Overflow => CacheError::Varint(e),
        }
    }
}

impl From<CompressError> for CacheError {
    fn from(e: CompressError) -> Self {
        CacheError::Tensor(e)
    }
}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// Serializes an entry (magic, varint-framed meta + tensors, trailing
/// FNV-1a checksum).
pub fn encode_entry(entry: &CacheEntry) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    write_prefixed(&mut out, entry.fingerprint.as_bytes());
    varint::write_u64(&mut out, entry.meta.times.len() as u64);
    write_f64s(&mut out, &entry.meta.times);
    write_f64s(&mut out, &entry.meta.hs);
    let state_len = entry.meta.states.first().map_or(0, Vec::len);
    varint::write_u64(&mut out, state_len as u64);
    for row in &entry.meta.states {
        write_f64s(&mut out, row);
    }
    for tensor in [&entry.g, &entry.c] {
        write_prefixed(&mut out, &tensor.to_bytes());
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes an entry, verifying the checksum before trusting any length
/// field.
///
/// # Errors
///
/// Returns [`CacheError`] on any framing, bound, checksum, or embedded
/// tensor failure — hostile bytes never panic and never over-allocate.
#[expect(
    clippy::disallowed_methods,
    reason = "`n_times ≤ MAX_TIME_POINTS` by `check_claim` above"
)]
pub fn decode_entry(bytes: &[u8]) -> Result<CacheEntry, CacheError> {
    let (body, tail) = bytes
        .split_last_chunk()
        .filter(|(body, _)| body.len() >= MAGIC.len())
        .ok_or(CacheError::Truncated)?;
    if fnv1a(body) != u64::from_le_bytes(*tail) {
        return Err(CacheError::Checksum);
    }
    let mut r = ByteCursor::new(body);
    if r.read_array()? != MAGIC {
        return Err(CacheError::BadMagic);
    }

    let fingerprint = r.read_prefixed()?;
    check_claim(
        "cache fingerprint bytes",
        fingerprint.len(),
        MAX_FINGERPRINT_BYTES,
    )?;
    let fingerprint = std::str::from_utf8(fingerprint)
        .map_err(|_| CacheError::BadFingerprint)?
        .to_string();
    let n_times = check_claim(
        "cache time points",
        r.read_varint()? as usize,
        MAX_TIME_POINTS,
    )?;
    let times = r.read_f64s(n_times)?;
    let hs = r.read_f64s(n_times)?;
    let state_len = r.read_varint()? as usize;
    check_claim(
        "cache state values",
        n_times.saturating_mul(state_len),
        MAX_STATE_VALUES,
    )?;
    let mut states = Vec::with_capacity(n_times);
    for _ in 0..n_times {
        states.push(r.read_f64s(state_len)?);
    }

    let g = CompressedTensor::from_bytes(r.read_prefixed()?)?;
    let c = CompressedTensor::from_bytes(r.read_prefixed()?)?;
    if r.remaining() != 0 || g.len() != n_times || c.len() != n_times {
        return Err(CacheError::LengthMismatch);
    }
    Ok(CacheEntry {
        fingerprint,
        meta: RunMeta { times, hs, states },
        g,
        c,
    })
}

/// Cache telemetry, `StoreMetrics`-style: monotonic counters plus current
/// tier footprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups answered from either tier.
    pub hits: u64,
    /// Hits served by the in-memory tier.
    pub mem_hits: u64,
    /// Hits served by the disk tier (and promoted to memory).
    pub disk_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries inserted after cold runs.
    pub inserts: u64,
    /// Entries evicted from either tier to respect the byte budgets.
    pub evictions: u64,
    /// Disk entries discarded because they failed to decode (or no
    /// longer matched the job structure).
    pub corrupt_entries: u64,
    /// Duplicate in-flight jobs that waited for a leader instead of
    /// running the pipeline themselves.
    pub coalesced: u64,
    /// Current in-memory tier footprint (encoded-entry bytes).
    pub mem_bytes: usize,
    /// Current disk tier footprint (file bytes).
    pub disk_bytes: usize,
}

#[derive(Debug)]
struct MemEntry {
    entry: std::sync::Arc<CacheEntry>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug)]
struct DiskEntry {
    bytes: usize,
    last_used: u64,
}

/// The two-tier (memory + disk) entry cache. Not internally synchronized:
/// the server wraps it in a mutex.
#[derive(Debug)]
pub struct TensorCache {
    mem: HashMap<u64, MemEntry>,
    disk: HashMap<u64, DiskEntry>,
    dir: Option<PathBuf>,
    mem_budget: usize,
    disk_budget: usize,
    clock: u64,
    metrics: CacheMetrics,
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.msc"))
}

impl TensorCache {
    /// Opens a cache. With a directory, existing `<key>.msc` entries are
    /// indexed (oldest-modified treated as least recently used) and any
    /// `*.tmp` files left by a crashed writer are scavenged.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] if the directory cannot be created or
    /// scanned.
    pub fn open(
        dir: Option<PathBuf>,
        mem_budget: usize,
        disk_budget: usize,
    ) -> Result<Self, CacheError> {
        let mut disk = HashMap::new();
        let mut disk_bytes = 0usize;
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                    continue;
                }
                let Some(hex) = name.strip_suffix(".msc") else {
                    continue;
                };
                let Ok(key) = u64::from_str_radix(hex, 16) else {
                    continue;
                };
                let bytes = entry.metadata().map(|m| m.len() as usize).unwrap_or(0);
                disk_bytes += bytes;
                disk.insert(
                    key,
                    DiskEntry {
                        bytes,
                        last_used: 0,
                    },
                );
            }
        }
        let metrics = CacheMetrics {
            disk_bytes,
            ..CacheMetrics::default()
        };
        Ok(Self {
            mem: HashMap::new(),
            disk,
            dir,
            mem_budget,
            disk_budget,
            clock: 0,
            metrics,
        })
    }

    /// Current telemetry snapshot.
    pub fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    /// Bumps `coalesced` (the server's single-flight path reports
    /// through the cache so one `STATS` line covers everything).
    pub fn note_coalesced(&mut self) {
        self.metrics.coalesced += 1;
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `key`. A memory hit returns the shared entry; a disk hit
    /// decodes, promotes to memory, and returns it; a corrupt disk entry
    /// is deleted and counted, and the lookup is a miss.
    pub fn get(&mut self, key: u64) -> Option<std::sync::Arc<CacheEntry>> {
        self.lookup(key, true)
    }

    /// Like [`get`](Self::get) but an absent entry is not counted as a
    /// miss — the single-flight leader's post-acquisition recheck, which
    /// only exists to close a race, must not inflate the miss counter.
    pub fn recheck(&mut self, key: u64) -> Option<std::sync::Arc<CacheEntry>> {
        self.lookup(key, false)
    }

    fn lookup(&mut self, key: u64, count_miss: bool) -> Option<std::sync::Arc<CacheEntry>> {
        let now = self.tick();
        if let Some(m) = self.mem.get_mut(&key) {
            m.last_used = now;
            self.metrics.hits += 1;
            self.metrics.mem_hits += 1;
            if let Some(d) = self.disk.get_mut(&key) {
                d.last_used = now;
            }
            return Some(std::sync::Arc::clone(&m.entry));
        }
        if self.disk.contains_key(&key) {
            match self.load_disk(key) {
                Ok((entry, encoded_len)) => {
                    let entry = std::sync::Arc::new(entry);
                    self.metrics.hits += 1;
                    self.metrics.disk_hits += 1;
                    if let Some(d) = self.disk.get_mut(&key) {
                        d.last_used = now;
                        // Repair a stale indexed size (0 when the open
                        // scan's metadata call failed) now that the true
                        // length is known.
                        if d.bytes != encoded_len {
                            self.metrics.disk_bytes = self
                                .metrics
                                .disk_bytes
                                .saturating_sub(d.bytes)
                                .saturating_add(encoded_len);
                            d.bytes = encoded_len;
                        }
                    }
                    self.admit_mem(key, std::sync::Arc::clone(&entry), encoded_len, now);
                    return Some(entry);
                }
                Err(_) => self.discard(key),
            }
        }
        if count_miss {
            self.metrics.misses += 1;
        }
        None
    }

    /// Reads and decodes a disk entry, returning the decoded entry and
    /// the encoded byte length actually read (the size the memory tier
    /// must account the promotion at).
    fn load_disk(&self, key: u64) -> Result<(CacheEntry, usize), CacheError> {
        let dir = self.dir.as_deref().ok_or(CacheError::Truncated)?;
        let bytes = std::fs::read(entry_path(dir, key))?;
        Ok((decode_entry(&bytes)?, bytes.len()))
    }

    /// Inserts a freshly computed entry into both tiers.
    pub fn put(&mut self, key: u64, entry: std::sync::Arc<CacheEntry>) {
        let now = self.tick();
        let encoded = encode_entry(&entry);
        self.metrics.inserts += 1;
        if let Some(dir) = self.dir.clone() {
            if self.write_disk(&dir, key, &encoded).is_ok() {
                self.disk
                    .entry(key)
                    .and_modify(|d| {
                        self.metrics.disk_bytes =
                            self.metrics.disk_bytes.saturating_sub(d.bytes) + encoded.len();
                        d.bytes = encoded.len();
                        d.last_used = now;
                    })
                    .or_insert_with(|| {
                        self.metrics.disk_bytes += encoded.len();
                        DiskEntry {
                            bytes: encoded.len(),
                            last_used: now,
                        }
                    });
                self.evict_disk(key);
            }
        }
        let bytes = encoded.len();
        if let Some(old) = self.mem.insert(
            key,
            MemEntry {
                entry,
                bytes,
                last_used: now,
            },
        ) {
            self.metrics.mem_bytes = self.metrics.mem_bytes.saturating_sub(old.bytes);
        }
        self.metrics.mem_bytes += bytes;
        self.evict_mem(key);
    }

    /// Admits a disk-promoted entry to the memory tier, accounted at the
    /// encoded byte length it was actually read at (never the disk
    /// index's recorded size, which can be stale or zero).
    fn admit_mem(&mut self, key: u64, entry: std::sync::Arc<CacheEntry>, bytes: usize, now: u64) {
        if let Some(old) = self.mem.insert(
            key,
            MemEntry {
                entry,
                bytes,
                last_used: now,
            },
        ) {
            self.metrics.mem_bytes = self.metrics.mem_bytes.saturating_sub(old.bytes);
        }
        self.metrics.mem_bytes += bytes;
        self.evict_mem(key);
    }

    /// Evicts least-recently-used memory entries (never `keep`) until the
    /// tier fits its budget.
    fn evict_mem(&mut self, keep: u64) {
        while self.metrics.mem_bytes > self.mem_budget {
            let victim = self
                .mem
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, m)| m.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(old) = self.mem.remove(&victim) {
                self.metrics.mem_bytes = self.metrics.mem_bytes.saturating_sub(old.bytes);
                self.metrics.evictions += 1;
            }
        }
    }

    /// Evicts least-recently-used disk entries (never `keep`) until the
    /// tier fits its budget.
    fn evict_disk(&mut self, keep: u64) {
        while self.metrics.disk_bytes > self.disk_budget {
            let victim = self
                .disk
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, d)| d.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(old) = self.disk.remove(&victim) {
                self.metrics.disk_bytes = self.metrics.disk_bytes.saturating_sub(old.bytes);
                self.metrics.evictions += 1;
                if let Some(dir) = &self.dir {
                    let _ = std::fs::remove_file(entry_path(dir, victim));
                }
            }
        }
    }

    fn write_disk(&self, dir: &Path, key: u64, encoded: &[u8]) -> Result<(), CacheError> {
        let tmp = dir.join(format!("{key:016x}-{}.tmp", std::process::id()));
        std::fs::write(&tmp, encoded)?;
        match std::fs::rename(&tmp, entry_path(dir, key)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(CacheError::Io(e))
            }
        }
    }

    /// Drops `key` from both tiers and counts it as corrupt — used when
    /// an entry decodes but fails downstream validation, or fails to
    /// decode at all.
    pub fn discard(&mut self, key: u64) {
        if let Some(old) = self.mem.remove(&key) {
            self.metrics.mem_bytes = self.metrics.mem_bytes.saturating_sub(old.bytes);
        }
        if let Some(old) = self.disk.remove(&key) {
            self.metrics.disk_bytes = self.metrics.disk_bytes.saturating_sub(old.bytes);
            if let Some(dir) = &self.dir {
                let _ = std::fs::remove_file(entry_path(dir, key));
            }
        }
        self.metrics.corrupt_entries += 1;
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]
mod tests {
    use super::*;
    use masc_compress::TensorCompressor;
    use masc_sparse::TripletMatrix;
    use std::sync::Arc;

    fn sample_entry(seed: f64) -> CacheEntry {
        let mut t = TripletMatrix::new(3, 3);
        for i in 0..3 {
            t.add(i, i, 1.0);
        }
        let pattern = t.to_csr().pattern().clone();
        let mut g = TensorCompressor::new(pattern.clone(), MascConfig::default());
        let mut c = TensorCompressor::new(pattern, MascConfig::default());
        for s in 0..4 {
            let v: Vec<f64> = (0..3).map(|k| seed + (s * 3 + k) as f64).collect();
            g.push(&v);
            c.push(&v);
        }
        g.seal();
        c.seal();
        CacheEntry {
            fingerprint: format!("deck-{seed}\u{1f}tran\u{1f}masc"),
            meta: RunMeta {
                times: vec![0.0, 1.0, 2.0, 3.0],
                hs: vec![1.0; 4],
                states: (0..4).map(|s| vec![seed * s as f64; 2]).collect(),
            },
            g: g.finish(),
            c: c.finish(),
        }
    }

    #[test]
    fn entry_round_trips() {
        let entry = sample_entry(0.5);
        let bytes = encode_entry(&entry);
        let back = decode_entry(&bytes).unwrap();
        assert_eq!(back.fingerprint, entry.fingerprint);
        assert_eq!(back.meta.times, entry.meta.times);
        assert_eq!(back.meta.hs, entry.meta.hs);
        assert_eq!(back.meta.states, entry.meta.states);
        assert_eq!(back.g.to_bytes(), entry.g.to_bytes());
        assert_eq!(back.c.to_bytes(), entry.c.to_bytes());
    }

    #[test]
    fn every_truncation_and_corruption_is_structured() {
        let bytes = encode_entry(&sample_entry(1.25));
        for cut in 0..bytes.len() {
            assert!(decode_entry(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            assert!(decode_entry(&corrupt).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn key_separates_deck_tran_and_config() {
        let tran = TranOptions::new(1e-3, 1e-5);
        let base = entry_key("R0 n0 0 1000\n", &tran, &MascConfig::default());
        assert_ne!(
            base,
            entry_key("R0 n0 0 1001\n", &tran, &MascConfig::default())
        );
        assert_ne!(
            base,
            entry_key(
                "R0 n0 0 1000\n",
                &TranOptions::new(1e-3, 2e-5),
                &MascConfig::default()
            )
        );
        let masc = MascConfig {
            markov: false,
            ..MascConfig::default()
        };
        assert_ne!(base, entry_key("R0 n0 0 1000\n", &tran, &masc));
        assert_eq!(
            base,
            entry_key("R0 n0 0 1000\n", &tran, &MascConfig::default())
        );
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let mut cache = TensorCache::open(None, 1, usize::MAX).unwrap();
        let e = Arc::new(sample_entry(2.0));
        cache.put(1, Arc::clone(&e));
        cache.put(2, Arc::clone(&e));
        // Budget of 1 byte: only the newest entry survives.
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        let m = cache.metrics();
        assert!(m.evictions >= 1);
        assert_eq!(m.misses, 1);
        assert_eq!(m.mem_hits, 1);
    }

    #[test]
    fn disk_tier_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("masc-serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = TensorCache::open(Some(dir.clone()), usize::MAX, usize::MAX).unwrap();
            cache.put(7, Arc::new(sample_entry(3.0)));
        }
        let mut cache = TensorCache::open(Some(dir.clone()), usize::MAX, usize::MAX).unwrap();
        let entry = cache.get(7).expect("disk entry should load");
        assert_eq!(entry.meta.times.len(), 4);
        assert_eq!(cache.metrics().disk_hits, 1);
        // Second lookup is a memory hit (promotion worked).
        assert!(cache.get(7).is_some());
        assert_eq!(cache.metrics().mem_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_discarded_not_fatal() {
        let dir = std::env::temp_dir().join(format!("masc-serve-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = TensorCache::open(Some(dir.clone()), usize::MAX, usize::MAX).unwrap();
            cache.put(9, Arc::new(sample_entry(4.0)));
        }
        let path = dir.join(format!("{:016x}.msc", 9u64));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut cache = TensorCache::open(Some(dir.clone()), usize::MAX, usize::MAX).unwrap();
        assert!(cache.get(9).is_none());
        let m = cache.metrics();
        assert_eq!(m.corrupt_entries, 1);
        assert_eq!(m.misses, 1);
        assert!(!path.exists(), "corrupt entry file should be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promoted_entry_is_accounted_at_read_size_not_indexed_size() {
        let dir = std::env::temp_dir().join(format!("masc-serve-promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let encoded_len = {
            let mut cache = TensorCache::open(Some(dir.clone()), usize::MAX, usize::MAX).unwrap();
            let entry = sample_entry(5.0);
            let len = encode_entry(&entry).len();
            cache.put(11, Arc::new(entry));
            len
        };
        let mut cache = TensorCache::open(Some(dir.clone()), usize::MAX, usize::MAX).unwrap();
        // Simulate the open scan's metadata call failing: the disk index
        // then records a 0-byte entry.
        cache.disk.get_mut(&11).unwrap().bytes = 0;
        cache.metrics.disk_bytes = 0;
        assert!(cache.get(11).is_some());
        let m = cache.metrics();
        assert_eq!(
            m.mem_bytes, encoded_len,
            "promotion must charge the memory tier the bytes actually read"
        );
        assert_eq!(
            m.disk_bytes, encoded_len,
            "a stale disk index size is repaired on load"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_scavenged_on_open() {
        let dir = std::env::temp_dir().join(format!("masc-serve-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join("deadbeef-1.tmp");
        std::fs::write(&tmp, b"partial").unwrap();
        let _ = TensorCache::open(Some(dir.clone()), usize::MAX, usize::MAX).unwrap();
        assert!(!tmp.exists(), "leftover tmp file should be scavenged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
