//! Heap truth for the whole run: a counting global allocator measures
//! what `run_adjoint` with the compressed store needs per transient step,
//! forward and reverse together.
//!
//! Paper Algorithm 2 keeps two raw matrices and the compressed tensor; on
//! top of that the reverse pass needs the state trajectory, one row of
//! `8·n` bytes per step. Running the same deck for `T` and `2T` steps
//! cancels every term that does not grow with the step count (system,
//! LU workspaces, the two raw matrices, the adjoint pools), so the growth
//! of the heap peak per added step must be one state row plus the
//! compressed bytes of that step — not two rows, which is what a run pays
//! when the stepping loop collects a second copy of the trajectory beside
//! the one its sink keeps.
//!
//! This binary installs `masc_testkit::alloc::Counting` as its global
//! allocator, so it holds exactly one `#[test]` — the counters are
//! process-wide and a parallel test would pollute the peak.

use masc_adjoint::{run_adjoint, Objective, StoreConfig};
use masc_circuit::transient::TranOptions;
use masc_circuit::{Circuit, ParamRef};
use masc_compress::MascConfig;
use masc_datasets::generators::{mos_inverter_chain, ram_array, rc_mesh};
use masc_testkit::alloc::Counting;

#[global_allocator]
static HEAP: Counting = Counting::new();

/// Period of the twins' drive waveforms; a `T`-step run covers one.
const DRIVE: f64 = 0.25e-6;

/// One `run_adjoint`, measured.
struct RunPeak {
    /// Unknowns: one state row is `8·n` bytes.
    n: usize,
    /// Transient steps after DC.
    steps: usize,
    /// Heap high-water of the whole run above what was live before it.
    peak: usize,
    /// `StoreMetrics::bytes_written`: the compressed `G` and `C` bytes.
    bytes_written: u64,
}

/// `count` items spread evenly over `items` (all of them when fewer).
fn strided<T: Clone>(items: &[T], count: usize) -> Vec<T> {
    if items.len() <= count {
        return items.to_vec();
    }
    (0..count)
        .map(|k| items[(2 * k + 1) * items.len() / (2 * count)].clone())
        .collect()
}

/// Runs `circuit` for `steps` steps of `DRIVE / steps_per_period` with
/// eight `Integral` objectives on spread nodes and `n_params` spread
/// parameters, and measures the heap peak of the whole `run_adjoint`.
fn run_peak(
    mut circuit: Circuit,
    steps_per_period: usize,
    steps: usize,
    n_params: usize,
) -> RunPeak {
    let dt = DRIVE / steps_per_period as f64;
    let tran = TranOptions::new(dt * steps as f64, dt);
    assert_eq!(tran.step_count(), steps);
    let nodes: Vec<usize> = (0..circuit.node_count()).collect();
    let objectives: Vec<Objective> = strided(&nodes, 8)
        .into_iter()
        .map(|unknown| Objective::Integral { unknown })
        .collect();
    let params: Vec<ParamRef> = strided(&circuit.params(), n_params);

    let base = HEAP.reset_peak();
    let run = run_adjoint(
        &mut circuit,
        &tran,
        &StoreConfig::Compressed(MascConfig::default()),
        &objectives,
        &params,
    )
    .unwrap();
    let peak = HEAP.peak() - base;
    assert_eq!(run.tran_stats.steps, steps);
    assert!(run
        .sensitivities
        .values
        .iter()
        .flatten()
        .all(|v| v.is_finite()));
    RunPeak {
        n: circuit.elaborate().unwrap().n,
        steps,
        peak,
        bytes_written: run.store_metrics.bytes_written,
    }
}

#[test]
fn run_heap_grows_by_one_trajectory_row_per_step() {
    type Twin = (&'static str, fn() -> Circuit, usize, usize);
    // Each twin: name, circuit, parameters, steps per drive period (= T).
    // The MOS chain changes little per step at this resolution, so its
    // compressed blocks are small next to a state row.
    let twins: [Twin; 3] = [
        (
            "mos_inverter_chain(150)",
            || mos_inverter_chain(150, DRIVE),
            64,
            120,
        ),
        ("rc_mesh(12, 12)", || rc_mesh(12, 12, DRIVE), 64, 40),
        ("ram_array(80)", || ram_array(80, DRIVE), usize::MAX, 40),
    ];
    for (name, twin, n_params, steps) in twins {
        let short = run_peak(twin(), steps, steps, n_params);
        let long = run_peak(twin(), steps, 2 * steps, n_params);
        let added = (long.steps - short.steps) as f64;
        let row = 8.0 * short.n as f64;
        let peak_per_step = (long.peak as f64 - short.peak as f64) / added;
        let written_per_step = (long.bytes_written as f64 - short.bytes_written as f64) / added;
        let ceiling = 1.25 * row + 2.0 * written_per_step;
        eprintln!(
            "{name}: n = {}, peak {} → {} B over {} → {} steps: {peak_per_step:.0} B/step \
             ({:.2} state rows), bytes_written {written_per_step:.0} B/step",
            short.n,
            short.peak,
            long.peak,
            short.steps,
            long.steps,
            peak_per_step / row
        );
        assert!(
            peak_per_step >= row,
            "{name}: heap peak grew {peak_per_step:.0} B per added step, less than one \
             state row (8·n = 8·{} = {row:.0} B): the run no longer keeps its trajectory?",
            short.n
        );
        assert!(
            peak_per_step <= ceiling,
            "{name}: heap peak grew {peak_per_step:.0} B per added step, above the ceiling \
             {ceiling:.0} B = 1.25 × state row (8·n = 8·{} = {row:.0} B) + 2 × compressed \
             bytes written per step ({written_per_step:.0} B): a second trajectory copy?",
            short.n
        );
    }
}
