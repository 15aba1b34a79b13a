//! Benchmarks of the simulation pipeline: sparse LU, transient stepping,
//! and the per-store adjoint reverse pass (testkit bench runner; run with
//! `cargo bench -p masc-bench --bench pipeline`).

use masc_adjoint::{adjoint_sensitivities, ForwardRecord, Objective, StoreConfig, TensorLayout};
use masc_circuit::transient::{transient, NullSink, TranOptions};
use masc_compress::MascConfig;
use masc_datasets::generators::mos_inverter_chain;
use masc_sparse::{LuFactors, TripletMatrix};
use masc_testkit::bench::Bench;

fn bench_sparse_lu(bench: &mut Bench) {
    let mut group = bench.group("sparse_lu");
    group.sample_size(30);
    for &n in &[200usize, 1000] {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 4.0 + (i as f64) * 1e-3);
            if i > 0 {
                t.add(i, i - 1, -1.0);
                t.add(i - 1, i, -1.0);
            }
            let far = (i * 17) % n;
            if far != i {
                t.add(i, far, -0.1);
                t.add(far, i, -0.1);
            }
        }
        let a = t.to_csr();
        group.bench(&format!("factor/{n}"), || {
            LuFactors::factor(&a).expect("solvable")
        });
        let lu = LuFactors::factor(&a).expect("solvable");
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        group.bench(&format!("solve_transpose/{n}"), || lu.solve_transpose(&rhs));
    }
}

fn bench_transient(bench: &mut Bench) {
    let mut group = bench.group("transient");
    group.sample_size(10);
    for &stages in &[10usize, 40] {
        group.bench(&format!("mos_chain/{stages}"), || {
            let mut ckt = mos_inverter_chain(stages, 1e-6);
            let mut sys = ckt.elaborate().expect("elaborates");
            let opts = TranOptions::new(1e-6, 2e-8);
            transient(&ckt, &mut sys, &opts, &mut NullSink).expect("runs")
        });
    }
}

fn bench_adjoint_stores(bench: &mut Bench) {
    let mut group = bench.group("adjoint_reverse");
    group.sample_size(10);
    let stores: Vec<(&str, StoreConfig)> = vec![
        ("recompute", StoreConfig::Recompute),
        ("raw", StoreConfig::RawMemory),
        ("masc", StoreConfig::Compressed(MascConfig::default())),
    ];
    for (label, store) in stores {
        group.bench(&format!("store/{label}"), || {
            let mut ckt = mos_inverter_chain(20, 1e-6);
            let mut sys = ckt.elaborate().expect("elaborates");
            let opts = TranOptions::new(1e-6, 1e-8);
            let mut record =
                ForwardRecord::new(TensorLayout::of(&sys), &store).expect("store init");
            transient(&ckt, &mut sys, &opts, &mut record).expect("runs");
            let objectives = [Objective::Integral { unknown: 2 }];
            let params = [ckt.find_param("RL0.r").expect("param")];
            let (meta, reader) = record.into_parts().expect("reader");
            adjoint_sensitivities(&ckt, &mut sys, &meta, reader, &objectives, &params)
                .expect("adjoint runs")
        });
    }
}

fn main() {
    let mut bench = Bench::from_args();
    bench_sparse_lu(&mut bench);
    bench_transient(&mut bench);
    bench_adjoint_stores(&mut bench);
    bench.finish();
}
