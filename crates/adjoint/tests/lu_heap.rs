//! Heap truth for the LU substrate: a counting global allocator measures
//! what one symbolic analysis and the workspaces factoring on it keep
//! live.
//!
//! A `SymbolicLu` is the only holder of the factor skeleton (permutations,
//! scatter plan, `L`/`U` column pointers and row indices). A workspace
//! adds its `L`/`U` values, one `n`-long refactor scratch and one
//! `nnz`-long copy of the values it factored last. So a workspace seeded
//! with a shared analysis costs well under a fresh one, and sweep
//! instances or window lanes seeded from one `Arc` hold one skeleton
//! between them.
//!
//! The matrix is the Jacobian at the DC point of the 60×60 `rc_mesh`
//! benchmark deck (`n` = 3 602, L+U = 115 935 after AMD).
//!
//! This binary installs `masc_testkit::alloc::Counting` as its global
//! allocator, so it holds exactly one `#[test]` — the counters are
//! process-wide and a parallel test would pollute the figures.

use masc_circuit::{dc_operating_point, NewtonOptions};
use masc_datasets::generators::rc_mesh;
use masc_sparse::{CsrMatrix, LuWorkspace, SymbolicLu};
use masc_testkit::alloc::Counting;
use std::sync::Arc;

#[global_allocator]
static HEAP: Counting = Counting::new();

/// `SymbolicLu::analyze`'s live bytes: the skeleton, measured at 1 355 824.
const ANALYSIS_MAX: usize = 1_360_000;
/// A fresh workspace after one `factor`: its own analysis plus L+U values
/// (115 935 × 8 B), the factored-values copy and the scratch.
const FRESH_MAX: usize = 2_500_000;
/// A workspace seeded with a shared analysis after one `factor`: the same
/// without the skeleton.
const SEEDED_MAX: usize = 1_150_000;

/// The conductance Jacobian at the DC operating point of the `rc_mesh`
/// benchmark deck, on the union pattern.
fn dc_jacobian() -> CsrMatrix {
    let mut circuit = rc_mesh(60, 60, 0.25e-6);
    let mut system = circuit.elaborate().unwrap();
    let dc = dc_operating_point(&circuit, &mut system, &NewtonOptions::default()).unwrap();
    let mut ev = system.new_evaluation();
    system.eval_into(&circuit, &dc.x, 0.0, &mut ev);
    let mut j = CsrMatrix::zeros(system.pattern.clone());
    j.values_mut().copy_from_slice(ev.g.values());
    j
}

#[test]
fn workspaces_on_one_analysis_share_its_skeleton() {
    let j = dc_jacobian();

    let base = HEAP.reset_peak();
    let analysis = SymbolicLu::analyze(&j).unwrap();
    let analysis_bytes = HEAP.reset_peak() - base;
    let sym = Arc::new(analysis);

    let base = HEAP.reset_peak();
    let mut fresh = LuWorkspace::new();
    let lu_nnz = {
        let f = fresh.factor(&j).unwrap();
        f.l_nnz() + f.u_nnz()
    };
    let fresh_bytes = HEAP.reset_peak() - base;
    assert_eq!(fresh.factorizations(), 1);

    // Both vectors grow between measurements, never inside one.
    let mut seeded = Vec::new();
    let mut seeded_bytes = Vec::new();
    for _ in 0..4 {
        let base = HEAP.reset_peak();
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
        ws.factor(&j).unwrap();
        seeded_bytes.push(HEAP.reset_peak() - base);
        // One refactor on the shared analysis, no re-analysis.
        assert_eq!(ws.factorizations(), 1);
        assert!(Arc::ptr_eq(&sym, ws.symbolic().unwrap()));
        seeded.push(ws);
    }

    eprintln!(
        "n = {}, L+U = {lu_nnz}: analysis {analysis_bytes} B, fresh workspace \
         {fresh_bytes} B, seeded workspaces {seeded_bytes:?} B",
        j.rows()
    );
    assert!(
        analysis_bytes <= ANALYSIS_MAX,
        "SymbolicLu::analyze left {analysis_bytes} B live (bound {ANALYSIS_MAX})"
    );
    assert!(
        fresh_bytes <= FRESH_MAX,
        "a fresh workspace holds {fresh_bytes} B after one factor (bound {FRESH_MAX})"
    );
    for (k, &bytes) in seeded_bytes.iter().enumerate() {
        assert!(
            bytes <= SEEDED_MAX,
            "seeded workspace {k} holds {bytes} B after one factor (bound {SEEDED_MAX}): \
             it holds a copy of the shared skeleton"
        );
    }
}
