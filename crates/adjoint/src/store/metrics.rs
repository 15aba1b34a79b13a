//! Unified store telemetry.
//!
//! One [`StoreMetrics`] per run, owned by the generic wrappers rather than
//! by any backend: [`ForwardRecord`](super::ForwardRecord) records the
//! per-step put latency and the residency watermark, takes the sealed
//! payload size from the store's `finish`, and moves the metrics into the
//! [`BackwardJacobians`](super::BackwardJacobians) reader, which adds the
//! per-step fetch latency. A finished reader therefore holds the complete
//! forward+reverse picture, and a backend carries no telemetry of its own.

use std::time::Duration;

/// Number of power-of-two latency buckets (bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket is open-ended, ~4.3 s+).
const BUCKETS: usize = 32;

/// A fixed-size power-of-two latency histogram (nanosecond buckets).
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` ns. Zero-allocation,
/// mergeable, and cheap enough to update once per transient step.
#[derive(Clone)]
pub struct DurationHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
        }
    }
}

impl DurationHistogram {
    fn bucket(d: Duration) -> usize {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    #[expect(
        clippy::indexing_slicing,
        reason = "`bucket` clamps to `BUCKETS - 1`, the last bin"
    )]
    pub fn record(&mut self, d: Duration) {
        self.counts[Self::bucket(d)] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 ..= 1.0`); zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(1u64 << (i + 1).min(63));
            }
        }
        Duration::from_nanos(u64::MAX)
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

impl std::fmt::Debug for DurationHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DurationHistogram {{ n: {}, p50: {:?}, p99: {:?} }}",
            self.total,
            self.quantile(0.5),
            self.quantile(0.99)
        )
    }
}

/// Unified telemetry for one Jacobian store, forward and reverse.
///
/// `bytes_written` is the *payload* the store holds once sealed, set once
/// at `finish`: both tensors' compressed bytes for the compressed backend,
/// Σ (nnz_G + nnz_C)·8 for the raw one, zero for recompute. `store_time` /
/// `fetch_time` are the end-to-end per-step capture/fetch costs (they
/// *include* compression and decompression).
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Payload bytes the sealed store holds.
    pub bytes_written: u64,
    /// Peak storage footprint observed, in bytes.
    pub peak_resident_bytes: usize,
    /// Total time capturing steps during the forward pass.
    pub store_time: Duration,
    /// Total time fetching steps during the reverse pass.
    pub fetch_time: Duration,
    /// Per-step capture latencies.
    pub put_hist: DurationHistogram,
    /// Per-step fetch latencies.
    pub fetch_hist: DurationHistogram,
}

impl StoreMetrics {
    /// Records one forward-pass capture of duration `d`.
    pub fn record_put(&mut self, d: Duration) {
        self.store_time += d;
        self.put_hist.record(d);
    }

    /// Records one reverse-pass fetch of duration `d`.
    pub fn record_fetch(&mut self, d: Duration) {
        self.fetch_time += d;
        self.fetch_hist.record(d);
    }

    /// Raises the peak-residency watermark to `bytes` if larger.
    pub fn note_resident(&mut self, bytes: usize) {
        self.peak_resident_bytes = self.peak_resident_bytes.max(bytes);
    }

    /// Accumulates another store's metrics into this one (peaks take the
    /// max; everything else sums).
    pub fn merge(&mut self, other: &Self) {
        self.bytes_written += other.bytes_written;
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
        self.store_time += other.store_time;
        self.fetch_time += other.fetch_time;
        self.put_hist.merge(&other.put_hist);
        self.fetch_hist.merge(&other.fetch_hist);
    }
}
