//! The forward LU workspace factors each distinct Jacobian once.
//!
//! `LuWorkspace::factor` returns the factors it holds when the incoming
//! matrix is bit for bit the one it factored last. On a linear deck with a
//! fixed grid, `J = G + C/h` never changes, so the whole forward pass needs
//! two eliminations: the DC conductance matrix `G`, then `J`. On a
//! nonlinear deck every Newton iteration sees new values, and nothing may
//! be skipped: at least one elimination per Newton iteration.

use masc_adjoint::{
    adjoint_sensitivities, ForwardRecord, Objective, SensitivityResult, StoreConfig, TensorLayout,
};
use masc_circuit::transient::{transient_into, TranOptions, TranStats};
use masc_circuit::Circuit;
use masc_compress::MascConfig;
use masc_datasets::generators::{mos_inverter_chain, rc_mesh};
use masc_sparse::LuWorkspace;

/// Period of the decks' drive waveforms.
const DRIVE: f64 = 0.25e-6;

/// Runs `circuit`'s transient on a fixed grid of `steps` steps over one
/// drive period through its own forward LU workspace, then the reverse
/// pass with an `Integral` objective on every fourth node and the first
/// four parameters. Returns the forward statistics, the sensitivities and
/// the forward workspace's elimination count.
fn forward_factorizations(
    mut circuit: Circuit,
    steps: usize,
) -> (TranStats, SensitivityResult, usize) {
    let dt = DRIVE / steps as f64;
    let tran = TranOptions::new(dt * steps as f64, dt);
    assert_eq!(tran.step_count(), steps);
    let objectives: Vec<Objective> = (0..circuit.node_count())
        .step_by(4)
        .map(|unknown| Objective::Integral { unknown })
        .collect();
    let params: Vec<_> = circuit.params().into_iter().take(4).collect();
    let mut system = circuit.elaborate().unwrap();
    let mut record = ForwardRecord::new(
        TensorLayout::of(&system),
        &StoreConfig::Compressed(MascConfig::default()),
    )
    .unwrap();
    let mut lu = LuWorkspace::new();
    let stats = transient_into(&circuit, &mut system, &tran, &mut record, &mut lu).unwrap();
    assert_eq!(stats.steps, steps);
    let (meta, mut reader) = record.into_parts().unwrap();
    let sensitivities = adjoint_sensitivities(
        &circuit,
        &mut system,
        &meta,
        &mut reader,
        &objectives,
        &params,
    )
    .unwrap();
    (stats, sensitivities, lu.factorizations())
}

#[test]
fn linear_fixed_grid_factors_g_then_j_once() {
    let (stats, sensitivities, count) = forward_factorizations(rc_mesh(8, 8, DRIVE), 64);
    assert!(sensitivities.values.iter().flatten().all(|v| v.is_finite()));
    assert_eq!(
        count, 2,
        "rc_mesh(8, 8): {count} forward eliminations over {} Newton iterations, \
         expected 2 (DC G, then J)",
        stats.newton_iterations
    );
}

#[test]
fn nonlinear_deck_skips_nothing() {
    let (stats, _, count) = forward_factorizations(mos_inverter_chain(150, DRIVE), 64);
    let newton = stats.newton_iterations;
    assert!(
        count >= newton,
        "mos_inverter_chain(150): {count} forward eliminations for {newton} Newton \
         iterations — a changing Jacobian was not factored"
    );
}
