//! The LU's fill-reducing ordering against the one it replaced, on the
//! registry's own Jacobians.
//!
//! For every dataset of paper Tables 2 and 1, at a small scale, one
//! `J = G + C/h` is assembled at the DC operating point and factored by a
//! fresh `LuWorkspace`. Its L+U non-zero count must not exceed the count the
//! previous column ordering, a bandwidth-reducing breadth-first one, gave on
//! the same matrix; those counts were measured before that ordering was
//! deleted and are pinned below.

use masc_circuit::dc::dc_operating_point;
use masc_circuit::NewtonOptions;
use masc_datasets::registry::{table1_circuits, table2_datasets, DatasetSpec};
use masc_sparse::{CsrMatrix, LuWorkspace};

/// Scale of the Table 2 datasets (their registry sizes are 1 000–2 800).
const TABLE2_SCALE: f64 = 0.25;
/// Scale of the Table 1 circuits (already small at registry size).
const TABLE1_SCALE: f64 = 1.0;

/// `(dataset, n, nnz(A), L+U nnz under the bandwidth ordering)`.
const TABLE2_BANDWIDTH: [(&str, usize, usize, usize); 7] = [
    ("add20", 602, 1803, 1803),
    ("smult20", 442, 2823, 17508),
    ("mem_plus", 1652, 5503, 5503),
    ("MOS_T5", 762, 3593, 4874),
    ("MOS_T7", 274, 1286, 1743),
    ("MOS_T8", 517, 2438, 3309),
    ("MOS_T10", 382, 1798, 2439),
];

/// `(dataset, n, nnz(A), L+U nnz under the bandwidth ordering)`.
const TABLE1_BANDWIDTH: [(&str, usize, usize, usize); 13] = [
    ("CHIP_01", 42, 141, 188),
    ("CHIP_02", 62, 210, 277),
    ("CHIP_03", 96, 326, 425),
    ("CHIP_04", 122, 417, 544),
    ("CHIP_05", 150, 511, 662),
    ("CHIP_06", 142, 486, 633),
    ("CHIP_07", 202, 693, 900),
    ("CHIP_08", 256, 878, 1137),
    ("CHIP_09", 282, 969, 1256),
    ("ram2k", 122, 403, 403),
    ("smult20", 92, 518, 2437),
    ("RC_01", 291, 1382, 7095),
    ("RC_02", 402, 1203, 1203),
];

/// The step matrix at the DC operating point with the run's first step.
fn step_jacobian(spec: &DatasetSpec, scale: f64) -> CsrMatrix {
    let (mut circuit, tran) = spec.build_circuit(scale);
    let mut system = circuit.elaborate().expect("registry circuits elaborate");
    let dc = dc_operating_point(&circuit, &mut system, &NewtonOptions::default())
        .expect("registry circuits have a DC point");
    let mut ev = system.new_evaluation();
    system.eval_into(&circuit, &dc.x, 0.0, &mut ev);
    let mut j = CsrMatrix::zeros(system.pattern.clone());
    for ((jv, gv), cv) in j
        .values_mut()
        .iter_mut()
        .zip(ev.g.values())
        .zip(ev.c.values())
    {
        *jv = gv + cv / tran.dt;
    }
    j
}

fn assert_no_worse_than_bandwidth(
    specs: &[DatasetSpec],
    scale: f64,
    before: &[(&str, usize, usize, usize)],
) {
    assert_eq!(specs.len(), before.len());
    for (spec, &(name, n, nnz, before_lu_nnz)) in specs.iter().zip(before) {
        assert_eq!(spec.name, name);
        let j = step_jacobian(spec, scale);
        assert_eq!((j.rows(), j.nnz()), (n, nnz), "{name}: matrix changed");
        let mut lu = LuWorkspace::new();
        let factors = lu.factor(&j).expect("registry Jacobians factor");
        let lu_nnz = factors.l_nnz() + factors.u_nnz();
        assert!(
            lu_nnz <= before_lu_nnz,
            "{name}: L+U nnz {lu_nnz} above the bandwidth ordering's {before_lu_nnz}"
        );
    }
}

#[test]
fn table2_datasets_fill_no_more_than_the_bandwidth_ordering() {
    assert_no_worse_than_bandwidth(&table2_datasets(), TABLE2_SCALE, &TABLE2_BANDWIDTH);
}

#[test]
fn table1_circuits_fill_no_more_than_the_bandwidth_ordering() {
    assert_no_worse_than_bandwidth(&table1_circuits(), TABLE1_SCALE, &TABLE1_BANDWIDTH);
}
