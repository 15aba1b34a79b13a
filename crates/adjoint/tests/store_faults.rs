//! Fault injection and error-path tests for the Jacobian store layer:
//! a full transient must surface store I/O failures as structured
//! [`TranError::Sink`] values (never a panic), and truncated tensors must
//! decode to [`StoreError::TensorTruncated`].

use masc_adjoint::store::{
    BackwardJacobians, BackwardReader, CompressedStore, ForwardRecord, JacobianStore, RawStore,
    StoreConfig, StoreError, TensorLayout,
};
use masc_adjoint::{run_recorded, AdjointError, Objective, RunError};
use masc_circuit::parser::parse_netlist;
use masc_circuit::transient::{transient, JacobianSink, TranError};
use masc_compress::{CompressedTensor, MascConfig, TensorCompressor};
use masc_sparse::{CsrMatrix, Pattern, TripletMatrix};
use std::error::Error;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

fn feed(record: &mut ForwardRecord, p: &Arc<Pattern>, steps: usize) {
    for s in 0..steps {
        let vals: Vec<f64> = (0..p.nnz()).map(|k| s as f64 + k as f64 * 0.1).collect();
        let g = CsrMatrix::from_parts(p.clone(), vals.clone()).unwrap();
        let c = CsrMatrix::from_parts(p.clone(), vals).unwrap();
        record
            .on_step(s, s as f64 * 1e-6, 1e-6, &[0.0; 3], &g, &c)
            .unwrap();
    }
}

/// A store on a device that fills up at step `full_at`: every `put` from
/// then on fails with an I/O error.
#[derive(Debug)]
struct DiskFullStore {
    inner: RawStore,
    full_at: usize,
}

impl JacobianStore for DiskFullStore {
    fn put(&mut self, step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        if step >= self.full_at {
            return Err(std::io::Error::other("injected disk-full fault").into());
        }
        self.inner.put(step, g, c)
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        Box::new(self.inner).finish()
    }
}

/// A transient whose store runs out of space mid-run must abort with a
/// structured `TranError::Sink` at exactly the failing step (not a panic),
/// and the error chain must carry the I/O cause.
#[test]
fn transient_surfaces_disk_full_as_sink_error() {
    let parsed = parse_netlist(
        "V1 in 0 SIN(0 1 1e6)\n\
         R1 in out 1k\n\
         C1 out 0 1n\n\
         .tran 20n 2u\n\
         .end",
    )
    .expect("valid netlist");
    let mut circuit = parsed.circuit;
    let mut system = circuit.elaborate().expect("elaborates");
    let tran = parsed.tran.expect(".tran present");
    let store = DiskFullStore {
        inner: RawStore::new(),
        full_at: 5,
    };
    let mut record = ForwardRecord::with_store(TensorLayout::of(&system), Box::new(store));

    let err = transient(&circuit, &mut system, &tran, &mut record)
        .expect_err("the injected fault must abort the transient");
    let TranError::Sink { step, source, .. } = &err else {
        panic!("expected TranError::Sink, got {err:?}");
    };
    assert_eq!(*step, 5, "DC and steps 1-4 fit before the disk fills");
    let io = std::iter::successors(Some(source as &(dyn Error + 'static)), |e| (*e).source())
        .find_map(|e| e.downcast_ref::<std::io::Error>())
        .unwrap_or_else(|| panic!("error chain must carry the I/O cause, got: {source}"));
    assert_eq!(io.to_string(), "injected disk-full fault");
}

/// A raw store that counts its `put` calls in a counter the test keeps.
#[derive(Debug)]
struct CountingStore {
    inner: RawStore,
    puts: Arc<AtomicUsize>,
}

impl JacobianStore for CountingStore {
    fn put(&mut self, step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.inner.put(step, g, c)
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        Box::new(self.inner).finish()
    }
}

/// On a fixed grid the step count is known before the run, so an
/// `AtStep` past it is rejected before the DC point: the store never sees
/// a step.
#[test]
fn bad_at_step_on_a_fixed_grid_is_rejected_before_the_forward_pass() {
    let parsed = parse_netlist(
        "V1 in 0 SIN(0 1 1e6)\n\
         R1 in out 1k\n\
         C1 out 0 1n\n\
         .tran 20n 2u\n\
         .end",
    )
    .expect("valid netlist");
    let mut circuit = parsed.circuit;
    let mut system = circuit.elaborate().expect("elaborates");
    let tran = parsed.tran.expect(".tran present");
    let out = circuit.find_node("out").unwrap().unknown().unwrap();
    let params = [circuit.find_param("R1.r").unwrap()];
    let puts = Arc::new(AtomicUsize::new(0));
    let store = CountingStore {
        inner: RawStore::new(),
        puts: puts.clone(),
    };
    let record = ForwardRecord::with_store(TensorLayout::of(&system), Box::new(store));
    let max = tran.step_count();
    let late = [Objective::AtStep {
        unknown: out,
        step: max + 1,
    }];

    let err = run_recorded(&circuit, &mut system, &tran, record, &late, &params)
        .expect_err("a step past the grid must be rejected");
    match err {
        RunError::Adjoint(AdjointError::StepOutOfRange { step, max: m }) => {
            assert_eq!((step, m), (max + 1, max));
        }
        other => panic!("expected StepOutOfRange, got {other:?}"),
    }
    assert_eq!(puts.load(Ordering::Relaxed), 0, "the store saw a step");
}

/// Records are `Send`: two threads can each run a compressed record
/// simultaneously.
#[test]
fn records_are_send_across_threads() {
    let p = pattern();
    let config = StoreConfig::Compressed(MascConfig::default());
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for steps in [5usize, 9] {
            let p = p.clone();
            let config = config.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                let mut record = ForwardRecord::new(layout(&p), &config).unwrap();
                barrier.wait(); // both records exist before either writes
                feed(&mut record, &p, steps);
                let mut reader = record.into_reader().unwrap();
                let mut seen = 0;
                while reader.next_back().unwrap().is_some() {
                    seen += 1;
                }
                assert_eq!(seen, steps);
            });
        }
    });
}

/// A store that silently drops steps: the reader must report
/// `StoreError::TensorTruncated` for the missing step instead of
/// panicking with "G tensor shorter than step count".
#[derive(Debug)]
struct LossyStore {
    inner: CompressedStore,
    keep: usize,
}

impl JacobianStore for LossyStore {
    fn put(&mut self, step: usize, g: &[f64], c: &[f64]) -> Result<(), StoreError> {
        if step < self.keep {
            self.inner.put(step, g, c)
        } else {
            Ok(())
        }
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn finish(self: Box<Self>) -> Result<(Box<dyn BackwardReader>, u64), StoreError> {
        Box::new(self.inner).finish()
    }
}

#[test]
fn truncated_tensor_yields_structured_error() {
    let p = pattern();
    let store = LossyStore {
        inner: CompressedStore::new(p.clone(), p.clone(), MascConfig::default()),
        keep: 3,
    };
    let mut record = ForwardRecord::with_store(layout(&p), Box::new(store));
    feed(&mut record, &p, 6);
    let mut reader = record.into_reader().unwrap();
    // The newest recorded step (5) has no stored matrices.
    let err = reader.next_back().expect_err("missing step must error");
    assert!(
        matches!(err, StoreError::TensorTruncated { step: 5 }),
        "got {err:?}"
    );
}

#[test]
fn fully_empty_tensor_with_recorded_steps_errors() {
    let p = pattern();
    let store = LossyStore {
        inner: CompressedStore::new(p.clone(), p.clone(), MascConfig::default()),
        keep: 0,
    };
    let mut record = ForwardRecord::with_store(layout(&p), Box::new(store));
    feed(&mut record, &p, 4);
    let mut reader = record.into_reader().unwrap();
    let err = reader.next_back().expect_err("empty tensor must error");
    assert!(
        matches!(err, StoreError::TensorTruncated { step: 3 }),
        "got {err:?}"
    );
}

/// A `len`-step tensor over the test pattern (block `s` holds `s + 0.1k`).
fn sealed_tensor(p: &Arc<Pattern>, len: usize) -> CompressedTensor {
    let mut tc = TensorCompressor::new(p.clone(), MascConfig::default());
    for s in 0..len {
        let vals: Vec<f64> = (0..p.nnz()).map(|k| s as f64 + k as f64 * 0.1).collect();
        tc.push(&vals);
    }
    tc.finish()
}

/// A kept pair replays through `from_tensors` exactly like the store's own
/// reader — and the captured pair *is* what the store's reader decodes.
#[test]
fn captured_pair_replays_like_the_store_reader() {
    let p = pattern();
    let mut store = CompressedStore::new(p.clone(), p.clone(), MascConfig::default());
    let slot = store.capture();
    let mut record = ForwardRecord::with_store(layout(&p), Box::new(store));
    feed(&mut record, &p, 6);
    let mut direct = record.into_reader().unwrap();
    let (g, c) = slot.lock().unwrap().take().expect("finish fills the slot");
    let mut replay = BackwardJacobians::from_tensors(g, c);
    for step in (0..6).rev() {
        let a = direct.next_back().unwrap().expect("store reader step");
        let b = replay.next_back().unwrap().expect("replayed step");
        assert_eq!(a.0, step);
        assert_eq!(a, b);
    }
    assert!(direct.next_back().unwrap().is_none());
    assert!(replay.next_back().unwrap().is_none());
}

/// A pair whose tensors disagree — C shorter than G, or C longer so the
/// step indices mismatch — is a structured truncation at the offending
/// step, never a panic or a silently misaligned replay.
#[test]
fn mismatched_pair_yields_tensor_truncated() {
    let p = pattern();

    // C shorter than G: its newest block is step 3 where G's is step 5,
    // so the very first fetch disagrees on the step index.
    let mut reader = BackwardJacobians::from_tensors(sealed_tensor(&p, 6), sealed_tensor(&p, 4));
    let err = reader.next_back().expect_err("step mismatch must error");
    assert!(
        matches!(err, StoreError::TensorTruncated { step: 5 }),
        "got {err:?}"
    );

    // C longer than G: same disagreement from the other side.
    let mut reader = BackwardJacobians::from_tensors(sealed_tensor(&p, 4), sealed_tensor(&p, 6));
    let err = reader.next_back().expect_err("step mismatch must error");
    assert!(
        matches!(err, StoreError::TensorTruncated { step: 3 }),
        "got {err:?}"
    );

    // An empty C under a non-empty G: nothing to pair step 2 with.
    let mut reader = BackwardJacobians::from_tensors(sealed_tensor(&p, 3), sealed_tensor(&p, 0));
    let err = reader.next_back().expect_err("missing C must error");
    assert!(
        matches!(err, StoreError::TensorTruncated { step: 2 }),
        "got {err:?}"
    );
}
