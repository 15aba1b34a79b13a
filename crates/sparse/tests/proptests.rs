//! Property tests: sparse LU vs dense reference, pattern invariants
//! (masc-testkit).

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_sparse::{
    amd::amd_order, CsrMatrix, LuError, LuFactors, LuWorkspace, Pattern, SymbolicLu, TripletMatrix,
};
use masc_testkit::gen::{self, Gen};
use masc_testkit::rng::Rng;
use masc_testkit::{prop, prop_assert, prop_assert_eq};
use std::sync::Arc;

/// Random diagonally-dominant sparse matrices (always solvable).
fn matrices(n: usize) -> impl Gen<Value = CsrMatrix> {
    gen::sparse_coords(n..n + 1, 3 * n).map(move |(_, coords)| {
        // Re-derive deterministic values from the coordinates themselves so
        // the map stays a pure function of the generated input.
        let mut t = TripletMatrix::new(n, n);
        let mut rowsum = vec![0.0f64; n];
        for (k, &(r, c)) in coords.iter().enumerate() {
            if r != c {
                let v = ((k as f64) * 0.37 + 0.11).sin();
                t.add(r, c, v);
                rowsum[r] += v.abs();
            }
        }
        for (r, s) in rowsum.iter().enumerate() {
            t.add(r, r, s + 1.0 + (r as f64) * 0.01);
        }
        t.to_csr()
    })
}

/// Arbitrary square patterns: unsymmetric, with structurally zero
/// diagonals, isolated nodes and disconnected components, and in every
/// third case a hub row and column touching every node.
fn patterns() -> impl Gen<Value = CsrMatrix> {
    gen::sparse_coords(1..60, 150).map(|(n, coords)| {
        let mut t = TripletMatrix::new(n, n);
        for &(r, c) in &coords {
            t.add(r, c, 1.0);
        }
        if coords.len() % 3 == 0 {
            for i in 0..n {
                t.add(0, i, 1.0);
                t.add(i, 0, 1.0);
            }
        }
        t.to_csr()
    })
}

/// The one-shot oracle: a fresh workspace always runs the full analysis.
fn fresh_factor(a: &CsrMatrix) -> Result<LuFactors, LuError> {
    LuWorkspace::new().factor(a).cloned()
}

/// A matrix plus a compatible right-hand side.
fn matrix_and_rhs(n: usize) -> impl Gen<Value = (CsrMatrix, Vec<f64>)> {
    matrices(n).flat_map(move |a| {
        (
            gen::just(a),
            gen::vecs(gen::range_f64(-10.0, 10.0), n..n + 1),
        )
    })
}

prop! {
    #![cases = 64]

    fn lu_solves_match_dense((a, b) in matrix_and_rhs(12)) {
        let dense = a.to_dense();
        let x_ref = dense.solve(&b).expect("diagonally dominant is solvable");
        let lu = fresh_factor(&a).expect("sparse LU");
        let x = lu.solve(&b);
        for (s, d) in x.iter().zip(&x_ref) {
            prop_assert!((s - d).abs() < 1e-8 * (1.0 + d.abs()));
        }
        let xt = lu.solve_transpose(&b);
        let xt_ref = dense.solve_transpose(&b).expect("transpose solvable");
        for (s, d) in xt.iter().zip(&xt_ref) {
            prop_assert!((s - d).abs() < 1e-8 * (1.0 + d.abs()));
        }
    }

    fn lu_residual_is_small(a in matrices(20)) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let lu = fresh_factor(&a).unwrap();
        let x = lu.solve(&b);
        let ax = a.mul_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    fn pattern_round_trips_and_maps_are_involutions(a in matrices(15)) {
        let p = a.pattern();
        let bytes = p.to_compressed_bytes();
        let q = Pattern::from_compressed_bytes(&bytes).unwrap();
        prop_assert_eq!(p.as_ref(), &q);
        for k in 0..p.nnz() {
            if let Some(t) = p.transpose_of(k) {
                prop_assert_eq!(p.transpose_of(t), Some(k));
            }
        }
        let part = p.partition_uld();
        prop_assert_eq!(part.upper.len() + part.lower.len() + part.diag.len(), p.nnz());
    }

    fn split_factorization_is_bit_identical_to_one_shot(a in matrices(14)) {
        // Symbolic analysis + values-only refactor must reproduce the
        // one-shot factorization exactly: same fill, same pivots, and
        // bit-identical solves.
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin() * 2.0).collect();
        let one_shot = fresh_factor(&a).unwrap();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        prop_assert!(sym.matches(&a));
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
        let split = ws.factor(&a).unwrap().clone();
        // One elimination on the seeded analysis: a refactor, not a
        // `Singular` fallback that re-analyzed.
        prop_assert_eq!(ws.factorizations(), 1);
        prop_assert!(Arc::ptr_eq(&sym, ws.symbolic().unwrap()));
        prop_assert_eq!(split.l_nnz(), one_shot.l_nnz());
        prop_assert_eq!(split.u_nnz(), one_shot.u_nnz());
        let xs = split.solve(&b);
        let xo = one_shot.solve(&b);
        for (s, o) in xs.iter().zip(&xo) {
            prop_assert_eq!(s.to_bits(), o.to_bits());
        }
        let ts = split.solve_transpose(&b);
        let to = one_shot.solve_transpose(&b);
        for (s, o) in ts.iter().zip(&to) {
            prop_assert_eq!(s.to_bits(), o.to_bits());
        }
    }

    fn refactor_with_new_values_matches_fresh_factor(a in matrices(14)) {
        // Reusing one symbolic analysis across a family of matrices with
        // the same pattern must give the same answers as factoring each
        // matrix from scratch.
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos() + 0.25).collect();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
        for (calls, scale) in [1.0, 1.5, 0.25, 7.0].into_iter().enumerate() {
            let mut scaled = a.clone();
            for v in scaled.values_mut() {
                *v *= scale;
            }
            let xr = ws.factor(&scaled).unwrap().solve(&b);
            // Exactly one more elimination, on the seeded analysis.
            prop_assert_eq!(ws.factorizations(), calls + 1);
            prop_assert!(Arc::ptr_eq(&sym, ws.symbolic().unwrap()));
            let fresh = fresh_factor(&scaled).unwrap();
            let xf = fresh.solve(&b);
            for (r, f) in xr.iter().zip(&xf) {
                prop_assert_eq!(r.to_bits(), f.to_bits());
            }
        }
    }

    fn amd_order_is_a_permutation(a in patterns()) {
        let mut perm = amd_order(a.pattern());
        perm.sort_unstable();
        prop_assert_eq!(perm, (0..a.rows()).collect::<Vec<_>>());
    }

    fn amd_order_is_a_function_of_the_pattern(a in patterns()) {
        // A separately built copy shares no `Arc` with the original.
        let copy = Pattern::new(
            a.rows(),
            a.cols(),
            a.pattern().row_ptr().to_vec(),
            a.pattern().col_idx().to_vec(),
        )
        .unwrap();
        prop_assert_eq!(amd_order(a.pattern()), amd_order(&copy));
    }

    fn mul_vec_transpose_consistent(a in matrices(10)) {
        // xᵀ(A y) == (Aᵀ x)ᵀ y for random x, y.
        let n = a.rows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos() - 0.3).collect();
        let ay = a.mul_vec(&y);
        let atx = a.mul_vec_transpose(&x);
        let lhs: f64 = x.iter().zip(&ay).map(|(p, q)| p * q).sum();
        let rhs: f64 = atx.iter().zip(&y).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    fn mul_vec_transpose_into_matches_allocating_form(a in matrices(10)) {
        // Zero entries of x exercise the skipped rows; the buffer starts
        // dirty (NaN, -0.0, huge) and is reused for a second product.
        let n = a.rows();
        let mut y: Vec<f64> = (0..a.cols())
            .map(|i| [f64::NAN, -0.0, 1e300][i % 3])
            .collect();
        for shift in [0.0, 0.7] {
            let x: Vec<f64> = (0..n)
                .map(|i| if i % 4 == 1 { 0.0 } else { (i as f64 * 0.61 + shift).sin() })
                .collect();
            let fresh = a.mul_vec_transpose(&x);
            a.mul_vec_transpose_into(&x, &mut y);
            for (f, b) in fresh.iter().zip(&y) {
                prop_assert_eq!(f.to_bits(), b.to_bits());
            }
        }
    }
}

/// Matrix sizes the random sweep keeps fixed: make sure the smallest cases
/// hold too.
#[test]
fn tiny_matrices_factor_and_solve() {
    let mut rng = Rng::new(0x5041_5253);
    for n in 1..=4usize {
        let g = matrices(n);
        for _ in 0..20 {
            let a = g.generate(&mut rng);
            let b: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            let lu = fresh_factor(&a).expect("solvable");
            let x = lu.solve(&b);
            let ax = a.mul_vec(&x);
            for (l, r) in ax.iter().zip(&b) {
                assert!((l - r).abs() < 1e-8, "n={n}: {l} vs {r}");
            }
        }
    }
}
