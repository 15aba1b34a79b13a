//! Paper Fig. 7: end-to-end sensitivity time — MASC vs the Xyce-like
//! recompute baseline vs raw disk storage.
//!
//! Runs the same circuit + objectives + parameters through four Jacobian
//! stores — every one synchronous, storing each step on the stepping
//! thread (DESIGN.md §3.8) — and reports the reverse-pass times from the
//! unified [`StoreMetrics`](masc_adjoint::StoreMetrics) telemetry.
//! Expected shape (paper §6.4): MASC ≈ half the recompute baseline's
//! sensitivity time and several times faster than bandwidth-limited raw
//! disk I/O.
//!
//! The raw-disk bar is a store private to this figure (`ThrottledDisk`),
//! plugged in through [`ForwardRecord::with_store`] + [`run_recorded`]: it
//! spills raw values to a file and sleeps each transfer up to a target
//! bandwidth, because a CI box's page cache would otherwise "read" at
//! memory speed and hide the I/O wall the paper measures against a
//! ~0.5 GB/s SSD.

use crate::render_table;
use masc_adjoint::{
    run_adjoint, run_recorded, run_xyce_like, BackwardReader, ForwardRecord, JacobianStore,
    Objective, RunError, SensitivityRun, StepMatrices, StoreConfig, StoreError, TensorLayout,
};
use masc_circuit::transient::TranOptions;
use masc_circuit::{Circuit, ParamRef};
use masc_compress::MascConfig;
use masc_datasets::registry::{DatasetSpec, Family};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One store's end-to-end measurement.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Store label.
    pub label: String,
    /// Forward transient + store time (s).
    pub forward_s: f64,
    /// Reverse (sensitivity) time (s).
    pub reverse_s: f64,
    /// End-to-end total (s).
    pub total_s: f64,
    /// Forward-pass store/compress time within `forward_s` (s).
    pub store_s: f64,
    /// Reverse-pass matrix-fetch time within `reverse_s` (s).
    pub fetch_s: f64,
    /// Peak Jacobian storage, in memory or on disk (bytes).
    pub peak_bytes: usize,
    /// The sensitivity matrix the store's run produced.
    #[cfg(test)]
    gradients: Vec<Vec<f64>>,
}

/// Fig. 7 configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Circuit size (BJT amplifier stages).
    pub size: usize,
    /// Transient steps.
    pub steps: usize,
    /// Simulated disk bandwidth (bytes/s) for the disk store.
    pub disk_bandwidth: f64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            size: 60,
            steps: 300,
            disk_bandwidth: 0.5e9 / 256.0, // paper's 0.5 GB/s scaled to our
                                           // ~256× smaller tensors
        }
    }
}

/// The stores behind the bars.
enum Store {
    /// Nothing stored; one recompute sweep per objective.
    XyceLike,
    /// [`ThrottledDisk`].
    Disk,
    /// A shipped store, all objectives in one sweep.
    Shipped(StoreConfig),
}

/// Runs the four-store comparison.
pub fn run(config: &Config) -> Vec<Bar> {
    // BJT chain: the heaviest device models (two limited exponentials,
    // diffusion charges), matching the paper's BJT-dominated Fig. 7 setup
    // where Jacobian recomputation is the majority of sensitivity time.
    let spec = DatasetSpec {
        name: "fig7",
        family: Family::BjtChain,
        size: config.size,
        steps: config.steps,
    };
    let spill_dir = std::env::temp_dir().join("masc-fig7");
    let stores = [
        ("Xyce-like (per-obj recompute)", Store::XyceLike),
        ("Disk (raw, throttled)", Store::Disk),
        (
            "MASC (compressed)",
            Store::Shipped(StoreConfig::Compressed(MascConfig::default())),
        ),
        (
            "Raw memory (upper bound)",
            Store::Shipped(StoreConfig::RawMemory),
        ),
    ];
    let mut bars = Vec::new();
    for (label, store) in stores {
        let (mut circuit, tran) = spec.build_circuit(1.0);
        circuit.set_model_effort(crate::table1::MODEL_EFFORT);
        let n = {
            let sys = circuit.elaborate().expect("elaborates");
            sys.n
        };
        let n_obj = n.clamp(1, 8);
        let objectives: Vec<Objective> = (0..n_obj)
            .map(|i| Objective::Integral {
                unknown: i * n / n_obj,
            })
            .collect();
        let params = circuit.params();
        // The recompute baseline uses the Xyce-like per-objective
        // schedule; the storage-backed stores batch all objectives into
        // one sweep (what Jacobian reuse buys).
        let run = match &store {
            Store::XyceLike => run_xyce_like(&mut circuit, &tran, &objectives, &params),
            Store::Disk => run_disk(
                &mut circuit,
                &tran,
                &spill_dir,
                config.disk_bandwidth,
                &objectives,
                &params,
            ),
            Store::Shipped(store) => run_adjoint(&mut circuit, &tran, store, &objectives, &params),
        }
        .expect("all stores succeed");
        let forward_s = run.tran_stats.total_time.as_secs_f64();
        let reverse_s = run.sensitivities.stats.total_time.as_secs_f64();
        let metrics = &run.store_metrics;
        bars.push(Bar {
            label: label.to_string(),
            forward_s,
            reverse_s,
            total_s: forward_s + reverse_s,
            store_s: metrics.store_time.as_secs_f64(),
            fetch_s: metrics.fetch_time.as_secs_f64(),
            peak_bytes: metrics.peak_resident_bytes,
            #[cfg(test)]
            gradients: run.sensitivities.values,
        });
    }
    bars
}

/// [`run_adjoint`]'s body over a [`ThrottledDisk`] record.
fn run_disk(
    circuit: &mut Circuit,
    tran: &TranOptions,
    dir: &Path,
    bandwidth: f64,
    objectives: &[Objective],
    params: &[ParamRef],
) -> Result<SensitivityRun, RunError> {
    let mut system = circuit.elaborate()?;
    let layout = TensorLayout::of(&system);
    let store = ThrottledDisk::create(dir, bandwidth, &layout)?;
    let record = ForwardRecord::with_store(layout, Box::new(store));
    let (run, _) = run_recorded(circuit, &mut system, tran, record, objectives, params)?;
    Ok(run)
}

/// Sleeps off the part of a `bytes`-long transfer that `bandwidth`
/// bytes/s would not have finished within the `elapsed` real I/O time.
/// Total: a zero, negative or NaN bandwidth gives a target that does not
/// fit a `Duration`, which is not slept on.
fn throttle(bytes: usize, bandwidth: f64, elapsed: Duration) {
    if let Ok(target) = Duration::try_from_secs_f64(bytes as f64 / bandwidth) {
        std::thread::sleep(target.saturating_sub(elapsed));
    }
}

/// The paper's raw-disk bar: every step's compact `G`/`C` values appended
/// as little-endian f64 to one spill file, each write and read throttled
/// to the simulated bandwidth. The store is its own newest-first reader;
/// the file is removed when it drops.
#[derive(Debug)]
struct ThrottledDisk {
    file: File,
    path: PathBuf,
    bandwidth: f64,
    /// `G` values per step (the rest of a step's record is `C`).
    g_nnz: usize,
    step_bytes: usize,
    steps: usize,
}

impl ThrottledDisk {
    fn create(dir: &Path, bandwidth: f64, layout: &TensorLayout) -> Result<Self, StoreError> {
        let g_nnz = layout.g_pattern.nnz();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("jacobians-{}.bin", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Self {
            file,
            path,
            bandwidth,
            g_nnz,
            step_bytes: (g_nnz + layout.c_pattern.nnz()) * 8,
            steps: 0,
        })
    }
}

impl Drop for ThrottledDisk {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl JacobianStore for ThrottledDisk {
    fn put(&mut self, _step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        let bytes: Vec<u8> = g.iter().chain(c).flat_map(|v| v.to_le_bytes()).collect();
        let start = Instant::now();
        self.file.write_all(&bytes)?;
        throttle(bytes.len(), self.bandwidth, start.elapsed());
        self.steps += 1;
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        // Everything lives on disk.
        self.steps * self.step_bytes
    }

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        let file_len = self.file.metadata()?.len();
        Ok((self, file_len))
    }
}

impl BackwardReader for ThrottledDisk {
    fn fetch(&mut self, step: usize) -> Result<StepMatrices, StoreError> {
        if step >= self.steps {
            return Err(StoreError::TensorTruncated { step });
        }
        let mut bytes = vec![0u8; self.step_bytes];
        let start = Instant::now();
        self.file
            .seek(SeekFrom::Start((step * self.step_bytes) as u64))?;
        self.file.read_exact(&mut bytes)?;
        throttle(bytes.len(), self.bandwidth, start.elapsed());
        let mut values = bytes.chunks_exact(8).map(|word| {
            let mut le = [0u8; 8];
            le.copy_from_slice(word);
            f64::from_le_bytes(le)
        });
        let g = values.by_ref().take(self.g_nnz).collect();
        Ok(StepMatrices::Stored {
            g,
            c: values.collect(),
        })
    }
}

/// Renders the bars, normalized to the recompute baseline.
pub fn render(bars: &[Bar]) -> String {
    let baseline = bars.first().map(|b| b.total_s).unwrap_or(1.0).max(1e-12);
    let data: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.label.clone(),
                format!("{:.3}", b.forward_s),
                format!("{:.3}", b.reverse_s),
                format!("{:.3}", b.total_s),
                format!("{:.2}x", baseline / b.total_s),
                format!("{:.3}", b.store_s),
                format!("{:.3}", b.fetch_s),
                format!("{:.2}", b.peak_bytes as f64 / 1e6),
            ]
        })
        .collect();
    render_table(
        &[
            "Store", "Fwd(s)", "Rev(s)", "Total(s)", "Speedup", "Store(s)", "Fetch(s)", "Peak(MB)",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_paper() {
        let config = Config {
            size: 20,
            steps: 80,
            disk_bandwidth: 2e6,
        };
        let bars = run(&config);
        assert_eq!(bars.len(), 4);
        let disk = bars[1].reverse_s;
        let masc = bars[2].reverse_s;
        // Throttled disk pays an I/O wall MASC does not. (The MASC-vs-
        // recompute speedup is a release-mode measurement — see the fig7
        // binary and EXPERIMENTS.md; debug-mode timings are misleading.)
        assert!(masc < disk, "masc {masc} vs disk {disk}");
        // Compressed storage is far below raw.
        assert!(bars[2].peak_bytes * 2 < bars[3].peak_bytes);
        // The disk round trip is lossless: its gradients are the raw
        // in-memory store's, bit for bit.
        let bits =
            |b: &Bar| -> Vec<u64> { b.gradients.iter().flatten().map(|v| v.to_bits()).collect() };
        assert!(!bars[1].gradients.is_empty());
        assert_eq!(bits(&bars[1]), bits(&bars[3]));
        let text = render(&bars);
        assert!(text.contains("MASC"));
        assert!(text.contains("Disk"));
    }
}
