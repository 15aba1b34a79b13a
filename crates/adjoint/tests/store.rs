//! Round-trip, residency, throttle, and cleanup tests for every
//! [`JacobianStore`] backend, driven through the public trait surface.

// Tests may assert with unwrap/expect; the crate's clippy.toml bans them
// in shipping code only (masc-lint rule R1).
#![allow(clippy::disallowed_methods)]

use masc_adjoint::store::{ForwardRecord, StepMatrices, StoreConfig, TensorLayout};
use masc_circuit::transient::JacobianSink;
use masc_compress::MascConfig;
use masc_sparse::{CsrMatrix, Pattern, TripletMatrix};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn pattern() -> Arc<Pattern> {
    let mut t = TripletMatrix::new(3, 3);
    for i in 0..3 {
        t.add(i, i, 1.0);
        if i > 0 {
            t.add(i, i - 1, 1.0);
            t.add(i - 1, i, 1.0);
        }
    }
    t.to_csr().pattern().clone()
}

/// A trivial layout where both tensors cover the whole union pattern.
fn layout(p: &Arc<Pattern>) -> TensorLayout {
    let identity = Arc::new((0..p.nnz()).collect::<Vec<_>>());
    TensorLayout {
        union: p.clone(),
        g_pattern: p.clone(),
        c_pattern: p.clone(),
        g_slots: identity.clone(),
        c_slots: identity,
    }
}

/// A fresh, empty scratch directory unique to `name`.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("masc-store-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dir_entries(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

fn feed(record: &mut ForwardRecord, pattern: &Arc<Pattern>, steps: usize) -> Vec<Vec<f64>> {
    let mut g_history = Vec::new();
    for s in 0..steps {
        let g_vals: Vec<f64> = (0..pattern.nnz())
            .map(|k| (s as f64) + (k as f64) * 0.1)
            .collect();
        let c_vals: Vec<f64> = (0..pattern.nnz()).map(|k| -(k as f64) - 1.0).collect();
        let g = CsrMatrix::from_parts(pattern.clone(), g_vals.clone()).unwrap();
        let c = CsrMatrix::from_parts(pattern.clone(), c_vals).unwrap();
        let x = vec![s as f64; 3];
        record
            .on_step(s, s as f64 * 1e-6, 1e-6, &x, &g, &c)
            .unwrap();
        g_history.push(g_vals);
    }
    g_history
}

fn check_backward(config: StoreConfig) {
    let p = pattern();
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    let g_history = feed(&mut record, &p, 5);
    assert_eq!(record.len(), 5);
    let mut reader = record.into_reader().unwrap();
    let mut expect = 5usize;
    while let Some((step, matrices)) = reader.next_back().unwrap() {
        expect -= 1;
        assert_eq!(step, expect);
        match matrices {
            StepMatrices::Stored { g, .. } => assert_eq!(g, g_history[step]),
            StepMatrices::Recompute => {
                assert!(matches!(config, StoreConfig::Recompute))
            }
        }
    }
    assert_eq!(expect, 0);
}

#[test]
fn raw_memory_round_trip() {
    check_backward(StoreConfig::RawMemory);
}

#[test]
fn recompute_yields_markers() {
    check_backward(StoreConfig::Recompute);
}

#[test]
fn disk_round_trip() {
    check_backward(StoreConfig::Disk {
        dir: scratch_dir("disk-rt"),
        bandwidth: None,
    });
}

#[test]
fn compressed_round_trip() {
    check_backward(StoreConfig::Compressed(MascConfig::default()));
}

#[test]
fn hybrid_round_trip() {
    // resident_blocks = 1 forces almost every block through the spill file.
    check_backward(StoreConfig::Hybrid {
        dir: scratch_dir("hybrid-rt"),
        bandwidth: None,
        resident_blocks: 1,
        masc: MascConfig::default(),
    });
}

/// Opening a spill-backed store scavenges spill files stranded by dead
/// processes — and only those: files owned by this process, by a live
/// process, or with foreign names survive untouched.
#[test]
fn stale_spill_files_are_scavenged_on_open() {
    if !std::path::Path::new("/proc").is_dir() {
        return; // liveness is established via procfs; skip elsewhere
    }
    let dir = scratch_dir("spill-scavenge");
    std::fs::create_dir_all(&dir).unwrap();
    // Stranded by a provably dead process: pids are capped well below
    // u32::MAX on Linux, so this owner cannot exist.
    let stale = dir.join(format!("masc-jacobians-{}-0.bin", u32::MAX));
    // Looks like a live run of *this* process (a concurrent record).
    let own = dir.join(format!("masc-jacobians-{}-999999.bin", std::process::id()));
    // Owned by pid 1, which is always alive.
    let live = dir.join("masc-jacobians-1-0.bin");
    // Not a spill filename at all.
    let foreign = dir.join("masc-jacobians-notapid-0.bin");
    for f in [&stale, &own, &live, &foreign] {
        std::fs::write(f, b"x").unwrap();
    }
    let record = ForwardRecord::new(
        layout(&pattern()),
        &StoreConfig::Disk {
            dir: dir.clone(),
            bandwidth: None,
        },
    )
    .unwrap();
    assert!(!stale.exists(), "dead-process spill must be reclaimed");
    assert!(own.exists(), "own-process spill must survive");
    assert!(live.exists(), "live-process spill must survive");
    assert!(foreign.exists(), "non-spill files must survive");
    drop(record);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hybrid store reproduces both tensors *byte-exactly* across the
/// memory/disk tier boundary, and actually uses both tiers.
#[test]
fn hybrid_round_trips_byte_exactly_across_tiers() {
    let p = pattern();
    let steps = 24usize;
    let config = StoreConfig::Hybrid {
        dir: scratch_dir("hybrid-exact"),
        bandwidth: None,
        resident_blocks: 4,
        masc: MascConfig::default(),
    };
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    // A wiggly series so compressed blocks are non-trivial.
    let mut g_history = Vec::new();
    let mut c_history = Vec::new();
    for s in 0..steps {
        let g_vals: Vec<f64> = (0..p.nnz())
            .map(|k| 1e-3 * ((s as f64 * 0.37 + k as f64).sin() + 2.0))
            .collect();
        let c_vals: Vec<f64> = (0..p.nnz())
            .map(|k| -1e-9 * ((s as f64 * 0.11 - k as f64).cos() + 3.0))
            .collect();
        let g = CsrMatrix::from_parts(p.clone(), g_vals.clone()).unwrap();
        let c = CsrMatrix::from_parts(p.clone(), c_vals.clone()).unwrap();
        record
            .on_step(s, s as f64 * 1e-6, 1e-6, &[0.0; 3], &g, &c)
            .unwrap();
        g_history.push(g_vals);
        c_history.push(c_vals);
    }
    let spilled_bytes = {
        let m = record.metrics();
        assert!(m.bytes_written > 0, "sealed blocks must be accounted");
        m.bytes_written
    };
    let mut reader = record.into_reader().unwrap();
    let mut step = steps;
    while let Some((s, matrices)) = reader.next_back().unwrap() {
        step -= 1;
        assert_eq!(s, step);
        let StepMatrices::Stored { g, c } = matrices else {
            panic!("hybrid store must yield stored matrices");
        };
        for (a, b) in g.iter().zip(&g_history[s]) {
            assert_eq!(a.to_bits(), b.to_bits(), "G differs at step {s}");
        }
        for (a, b) in c.iter().zip(&c_history[s]) {
            assert_eq!(a.to_bits(), b.to_bits(), "C differs at step {s}");
        }
    }
    assert_eq!(step, 0);
    let m = reader.metrics();
    assert!(
        m.bytes_read > 0,
        "24 steps with 4 resident blocks must read spilled blocks back"
    );
    assert!(m.bytes_read <= spilled_bytes);
    assert!(m.decompress_time > Duration::ZERO);
}

#[test]
fn storage_bytes_ordering() {
    // Raw > Compressed > Recompute for a smooth series; hybrid stays in
    // the compressed regime even though it spans two tiers.
    let p = pattern();
    let mut sizes = Vec::new();
    for config in [
        StoreConfig::RawMemory,
        StoreConfig::Compressed(MascConfig::default()),
        StoreConfig::Hybrid {
            dir: scratch_dir("hybrid-size"),
            bandwidth: None,
            resident_blocks: 2,
            masc: MascConfig::default(),
        },
        StoreConfig::Recompute,
    ] {
        let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
        feed(&mut record, &p, 20);
        sizes.push(record.storage_bytes());
    }
    assert!(
        sizes[0] > sizes[1],
        "raw {} vs compressed {}",
        sizes[0],
        sizes[1]
    );
    assert!(
        sizes[0] > sizes[2],
        "raw {} vs hybrid {}",
        sizes[0],
        sizes[2]
    );
    assert_eq!(sizes[3], 0);
}

#[test]
fn disk_throttle_slows_reads() {
    let p = pattern();
    // ~50 kB/s: 5 steps × 2 × 7 nz × 8 B = 560 B each way → ≥ 20 ms total.
    let config = StoreConfig::Disk {
        dir: scratch_dir("throttle"),
        bandwidth: Some(50_000.0),
    };
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    feed(&mut record, &p, 5);
    let mut reader = record.into_reader().unwrap();
    while reader.next_back().unwrap().is_some() {}
    let m = reader.metrics();
    assert!(
        m.throttle_wait > Duration::from_millis(5),
        "expected throttling, waited {:?}",
        m.throttle_wait
    );
    assert_eq!(m.bytes_written, 560);
    assert_eq!(m.bytes_read, 560);
}

#[test]
fn buffered_disk_reader_reads_in_chunks() {
    // 40 steps at a 16-step chunk size: the reverse sweep costs 3 disk
    // reads, not 40, and still returns every step.
    let p = pattern();
    let config = StoreConfig::Disk {
        dir: scratch_dir("chunks"),
        bandwidth: None,
    };
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    let g_history = feed(&mut record, &p, 40);
    let mut reader = record.into_reader().unwrap();
    let mut seen = 0;
    while let Some((step, StepMatrices::Stored { g, .. })) = reader.next_back().unwrap() {
        assert_eq!(g, g_history[step]);
        seen += 1;
    }
    assert_eq!(seen, 40);
    assert_eq!(reader.metrics().bytes_read, 40 * 2 * 7 * 8);
}

#[test]
fn spill_file_is_cleaned_up() {
    let p = pattern();
    let dir = scratch_dir("cleanup");
    let config = StoreConfig::Disk {
        dir: dir.clone(),
        bandwidth: None,
    };
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    feed(&mut record, &p, 2);
    assert_eq!(dir_entries(&dir), 1);
    {
        let mut reader = record.into_reader().unwrap();
        reader.next_back().unwrap();
    } // drop
    assert_eq!(dir_entries(&dir), 0);
}

#[test]
fn hybrid_spill_file_is_cleaned_up() {
    let p = pattern();
    let dir = scratch_dir("hybrid-cleanup");
    let config = StoreConfig::Hybrid {
        dir: dir.clone(),
        bandwidth: None,
        resident_blocks: 1,
        masc: MascConfig::default(),
    };
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    feed(&mut record, &p, 10);
    assert_eq!(dir_entries(&dir), 1);
    {
        let mut reader = record.into_reader().unwrap();
        while reader.next_back().unwrap().is_some() {}
    } // drop
    assert_eq!(dir_entries(&dir), 0);
}

#[test]
fn abandoned_record_cleans_its_spill_file() {
    // The error path: a record dropped mid-forward (e.g. after a transient
    // failure) must not leak its spill file.
    let p = pattern();
    let dir = scratch_dir("abandoned");
    let config = StoreConfig::Disk {
        dir: dir.clone(),
        bandwidth: None,
    };
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    feed(&mut record, &p, 3);
    assert_eq!(dir_entries(&dir), 1);
    drop(record);
    assert_eq!(dir_entries(&dir), 0);
}

#[test]
fn empty_record_reader() {
    let p = pattern();
    let record = ForwardRecord::new(layout(&p), &StoreConfig::RawMemory).unwrap();
    assert!(record.is_empty());
    let mut reader = record.into_reader().unwrap();
    assert!(reader.next_back().unwrap().is_none());
    assert_eq!(reader.remaining(), 0);
}

#[test]
fn empty_hybrid_record_reader() {
    let p = pattern();
    let config = StoreConfig::Hybrid {
        dir: scratch_dir("hybrid-empty"),
        bandwidth: None,
        resident_blocks: 2,
        masc: MascConfig::default(),
    };
    let record = ForwardRecord::new(layout(&p), &config).unwrap();
    let mut reader = record.into_reader().unwrap();
    assert!(reader.next_back().unwrap().is_none());
}

#[test]
fn metrics_histograms_count_every_step() {
    let p = pattern();
    let mut record =
        ForwardRecord::new(layout(&p), &StoreConfig::Compressed(MascConfig::default())).unwrap();
    feed(&mut record, &p, 12);
    assert_eq!(record.metrics().put_hist.count(), 12);
    let mut reader = record.into_reader().unwrap();
    while reader.next_back().unwrap().is_some() {}
    let m = reader.metrics();
    assert_eq!(m.put_hist.count(), 12, "forward histogram survives finish");
    assert_eq!(m.fetch_hist.count(), 12);
    assert!(m.fetch_hist.quantile(1.0) >= m.fetch_hist.quantile(0.5));
    assert!(m.store_time > Duration::ZERO);
    assert!(m.fetch_time > Duration::ZERO);
    assert!(m.peak_resident_bytes > 0);
}
