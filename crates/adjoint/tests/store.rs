//! Round-trip, residency and telemetry tests for every shipped
//! [`JacobianStore`] backend, driven through the public trait surface.

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_adjoint::store::{ForwardRecord, StepMatrices, StoreConfig, TensorLayout};
use masc_circuit::transient::JacobianSink;
use masc_compress::{MascConfig, TensorCompressor};
use masc_sparse::{CsrMatrix, Pattern, TripletMatrix};
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
    let identity = Arc::new((0..p.nnz() as u32).collect::<Vec<_>>());
    TensorLayout {
        union: p.clone(),
        g_pattern: p.clone(),
        c_pattern: p.clone(),
        g_slots: identity.clone(),
        c_slots: identity,
    }
}

/// Feeds `steps` steps and returns the `G` and `C` histories fed.
fn feed(
    record: &mut ForwardRecord,
    pattern: &Arc<Pattern>,
    steps: usize,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (mut g_history, mut c_history) = (Vec::new(), Vec::new());
    for s in 0..steps {
        let g_vals: Vec<f64> = (0..pattern.nnz())
            .map(|k| (s as f64) + (k as f64) * 0.1)
            .collect();
        let c_vals: Vec<f64> = (0..pattern.nnz()).map(|k| -(k as f64) - 1.0).collect();
        let g = CsrMatrix::from_parts(pattern.clone(), g_vals.clone()).unwrap();
        let c = CsrMatrix::from_parts(pattern.clone(), c_vals.clone()).unwrap();
        let x = vec![s as f64; 3];
        record
            .on_step(s, s as f64 * 1e-6, 1e-6, &x, &g, &c)
            .unwrap();
        g_history.push(g_vals);
        c_history.push(c_vals);
    }
    (g_history, c_history)
}

/// The payload a sealed store of `config` holds for these histories.
fn payload_bytes(config: &StoreConfig, p: &Arc<Pattern>, g: &[Vec<f64>], c: &[Vec<f64>]) -> u64 {
    let compressed = |history: &[Vec<f64>], masc: &MascConfig| {
        let mut tc = TensorCompressor::new(p.clone(), masc.clone());
        for values in history {
            tc.push(values);
        }
        tc.finish().compressed_bytes() as u64
    };
    match config {
        StoreConfig::Recompute => 0,
        StoreConfig::RawMemory => (g.len() * 2 * p.nnz() * 8) as u64,
        StoreConfig::Compressed(masc) => compressed(g, masc) + compressed(c, masc),
    }
}

fn check_backward(config: StoreConfig) {
    let p = pattern();
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    let (g_history, c_history) = feed(&mut record, &p, 5);
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
    assert_eq!(
        reader.metrics().bytes_written,
        payload_bytes(&config, &p, &g_history, &c_history)
    );
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
fn compressed_round_trip() {
    check_backward(StoreConfig::Compressed(MascConfig::default()));
}

#[test]
fn storage_bytes_ordering() {
    // Raw > Compressed > Recompute for a smooth series.
    let p = pattern();
    let mut sizes = Vec::new();
    for config in [
        StoreConfig::RawMemory,
        StoreConfig::Compressed(MascConfig::default()),
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
    assert_eq!(sizes[2], 0);
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

/// The one copy of a run's store telemetry: put time and the residency
/// watermark survive the seal, the drain adds fetch time, and
/// `bytes_written` is the sealed payload.
#[test]
fn metrics_survive_the_seal_and_a_full_drain() {
    let p = pattern();
    let config = StoreConfig::Compressed(MascConfig::default());
    let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
    let (g_history, c_history) = feed(&mut record, &p, 12);
    let mut reader = record.into_reader().unwrap();
    while reader.next_back().unwrap().is_some() {}
    let m = reader.metrics();
    assert!(m.store_time > Duration::ZERO);
    assert!(m.fetch_time > Duration::ZERO);
    assert!(m.peak_resident_bytes > 0);
    assert_eq!(
        m.bytes_written,
        payload_bytes(&config, &p, &g_history, &c_history)
    );
}
