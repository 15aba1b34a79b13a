//! Heap truth for the reverse pass: a counting global allocator, not the
//! code's own byte counts, measures what one `AdjointCursor` pass needs.
//!
//! The RAM array with every parameter selected is the paper's Table 1
//! regime (#Param > #Elem). Per-parameter state must then scale with each
//! parameter's support, not with the system size: one dense `n`-vector per
//! parameter would already cost `8·n·n_par` bytes and grow 4× when the
//! array doubles.
//!
//! This binary installs `masc_testkit::alloc::Counting` as its global
//! allocator, so it holds exactly one `#[test]` — the counters are
//! process-wide and a parallel test would pollute the peak.

use masc_adjoint::{AdjointCursor, ForwardRecord, Objective, StoreConfig, TensorLayout};
use masc_circuit::transient::{transient, TranOptions};
use masc_compress::MascConfig;
use masc_datasets::generators::ram_array;
use masc_testkit::alloc::Counting;

#[global_allocator]
static HEAP: Counting = Counting::new();

/// One reverse pass, measured.
struct ReversePeak {
    n: usize,
    n_par: usize,
    /// Heap high-water from `AdjointCursor::new` through `finish`, above
    /// what was live before the cursor existed.
    bytes: usize,
}

/// Records a compressed forward run of `ram_array(cells)` and replays it
/// through one cursor with every parameter and eight `Integral`
/// objectives on strided cell nodes.
fn reverse_peak(cells: usize) -> ReversePeak {
    let period = 1e-6;
    let mut circuit = ram_array(cells, period / 4.0);
    let tran = TranOptions::new(period, period / 25.0);
    let mut system = circuit.elaborate().unwrap();
    let mut record = ForwardRecord::new(
        TensorLayout::of(&system),
        &StoreConfig::Compressed(MascConfig::default()),
    )
    .unwrap();
    transient(&circuit, &mut system, &tran, &mut record).unwrap();
    let (meta, mut reader) = record.into_parts().unwrap();
    let params = circuit.params();
    let objectives: Vec<Objective> = (0..8)
        .map(|k| {
            let node = circuit
                .find_node(&format!("cell{}", k * cells / 8))
                .unwrap();
            Objective::Integral {
                unknown: node.unknown().unwrap(),
            }
        })
        .collect();

    let base = HEAP.reset_peak();
    let mut cursor = AdjointCursor::new(&circuit, &system, &meta, &objectives, &params);
    while let Some((step, matrices)) = reader.next_back().unwrap() {
        cursor.offer(&mut system, step, matrices).unwrap();
    }
    let result = cursor.finish();
    let bytes = HEAP.peak() - base;
    assert!(result.values.iter().flatten().all(|v| v.is_finite()));
    ReversePeak {
        n: system.n,
        n_par: params.len(),
        bytes,
    }
}

#[test]
fn reverse_pass_heap_scales_with_supports_not_n_times_params() {
    let small = reverse_peak(100);
    let large = reverse_peak(200);
    for run in [&small, &large] {
        let dense_pool_vector = 8 * run.n * run.n_par;
        eprintln!(
            "n = {}, n_par = {}: reverse-pass heap peak {} B ({:.3} of 8·n·n_par)",
            run.n,
            run.n_par,
            run.bytes,
            run.bytes as f64 / dense_pool_vector as f64
        );
        assert!(
            run.bytes < dense_pool_vector,
            "reverse pass at n = {}, n_par = {} peaked at {} B, at least one dense \
             n-vector per parameter ({dense_pool_vector} B)",
            run.n,
            run.n_par,
            run.bytes
        );
    }
    let growth = large.bytes as f64 / small.bytes as f64;
    assert!(
        growth <= 2.5,
        "doubling the array grew the reverse-pass heap peak {growth:.2}× \
         ({} → {} B); support-sized state grows ~2×, n·n_par-sized state 4×",
        small.bytes,
        large.bytes
    );
}
