//! End-to-end windowed-adjoint validation: monolithic equivalence, lane
//! and window invariance, convergence telemetry, and periodic mode.

use masc_adjoint::{
    run_adjoint, AdjointError, ForwardRecord, Objective, RunMeta, StoreConfig, TensorLayout,
};
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Resistor};
use masc_circuit::transient::transient;
use masc_circuit::transient::TranOptions;
use masc_circuit::waveform::Waveform;
use masc_circuit::{Circuit, ParamRef};
use masc_window::{run_windowed, WindowError, WindowOptions, WindowResult};

/// A current-source-driven RC ladder: no branch unknowns, diagonally
/// dominant `G`, so the pivot sequence is the structural diagonal and
/// windowed runs are bit-comparable to the monolithic pipeline.
fn ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..stages)
        .map(|s| ckt.node(&format!("n{s}")).unknown())
        .collect();
    // Pulse drive: the deck starts off steady state, so the transient has
    // real dynamics and the Parareal iteration genuinely has to work.
    ckt.add(Device::CurrentSource(CurrentSource::new(
        "I1",
        None,
        nodes[0],
        Waveform::Pulse {
            v1: 0.0,
            v2: 1e-3,
            td: 0.0,
            tr: 1e-9,
            tf: 1e-9,
            pw: 1.0,
            per: 2.0,
        },
    )))
    .unwrap();
    for s in 0..stages {
        ckt.add(Device::Resistor(Resistor::new(
            format!("R{s}"),
            nodes[s],
            None,
            1000.0,
        )))
        .unwrap();
        ckt.add(Device::Capacitor(Capacitor::new(
            format!("C{s}"),
            nodes[s],
            None,
            1e-6,
        )))
        .unwrap();
        if s + 1 < stages {
            ckt.add(Device::Resistor(Resistor::new(
                format!("RS{s}"),
                nodes[s],
                nodes[s + 1],
                500.0,
            )))
            .unwrap();
        }
    }
    ckt
}

fn setup(base: &Circuit) -> (TranOptions, Vec<Objective>, Vec<ParamRef>) {
    let tran = TranOptions::new(1e-3, 5e-5); // 20 steps
    let out = base.find_node("n0").unwrap().unknown().unwrap();
    let last = base.find_node("n3").unwrap().unknown().unwrap();
    let objectives = vec![
        Objective::FinalValue { unknown: last },
        Objective::Integral { unknown: out },
    ];
    let params = vec![
        base.find_param("R0.r").unwrap(),
        base.find_param("C1.c").unwrap(),
    ];
    (tran, objectives, params)
}

fn windowed(base: &Circuit, opts: &WindowOptions) -> WindowResult {
    let (tran, objectives, params) = setup(base);
    let mut ckt = base.clone();
    run_windowed(&mut ckt, &tran, opts, &objectives, &params).unwrap()
}

fn monolithic(base: &Circuit) -> masc_adjoint::SensitivityRun {
    let (tran, objectives, params) = setup(base);
    let mut ckt = base.clone();
    run_adjoint(
        &mut ckt,
        &tran,
        &StoreConfig::RawMemory,
        &objectives,
        &params,
    )
    .unwrap()
}

/// The monolithic forward trajectory, for bitwise state comparison.
fn monolithic_meta(base: &Circuit) -> RunMeta {
    let (tran, _, _) = setup(base);
    let mut ckt = base.clone();
    let mut system = ckt.elaborate().unwrap();
    let mut record =
        ForwardRecord::new(TensorLayout::of(&system), &StoreConfig::RawMemory).unwrap();
    transient(&ckt, &mut system, &tran, &mut record).unwrap();
    record.into_parts().unwrap().0
}

#[test]
fn single_window_is_bit_identical_to_monolithic() {
    let base = ladder(4);
    let single = monolithic(&base);
    let win = windowed(&base, &WindowOptions::new(1));
    assert_eq!(win.stats.windows, 1);
    assert_eq!(win.stats.adjoint_iterations, 0);
    for (i, row) in single.sensitivities.values.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            assert_eq!(
                win.sensitivities[i][j].to_bits(),
                v.to_bits(),
                "obj {i} param {j}: W=1 windowed {:e} vs monolithic {v:e}",
                win.sensitivities[i][j]
            );
        }
    }
    for (i, v) in single.objective_values.iter().enumerate() {
        assert_eq!(win.objective_values[i].to_bits(), v.to_bits());
    }
    // The stitched trajectory is the monolithic one, state for state.
    let mono = monolithic_meta(&base);
    assert_eq!(win.meta.states.len(), mono.states.len());
    for (s, (a, b)) in win.meta.states.iter().zip(&mono.states).enumerate() {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "state mismatch at step {s}");
        }
    }
}

/// On a grid where `t_stop/dt` is not an integer (1e-3 / 3e-4) the
/// monolithic transient takes four steps, the last overshooting `t_stop`;
/// one window must integrate the same four and stay bit-identical.
#[test]
fn single_window_on_a_non_integral_grid_is_bit_identical_to_monolithic() {
    let base = ladder(4);
    let (_, objectives, params) = setup(&base);
    let tran = TranOptions::new(1e-3, 3e-4);
    let single = run_adjoint(
        &mut base.clone(),
        &tran,
        &StoreConfig::RawMemory,
        &objectives,
        &params,
    )
    .unwrap();
    let win = run_windowed(
        &mut base.clone(),
        &tran,
        &WindowOptions::new(1),
        &objectives,
        &params,
    )
    .unwrap();
    assert_eq!(single.tran_stats.steps, 4);
    assert_eq!(win.stats.steps, single.tran_stats.steps);
    for (i, row) in single.sensitivities.values.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            assert_eq!(
                win.sensitivities[i][j].to_bits(),
                v.to_bits(),
                "obj {i} param {j}: W=1 windowed {:e} vs monolithic {v:e}",
                win.sensitivities[i][j]
            );
        }
    }
    for (i, v) in single.objective_values.iter().enumerate() {
        assert_eq!(win.objective_values[i].to_bits(), v.to_bits());
    }
}

#[test]
fn converged_windowed_sensitivities_match_monolithic() {
    let base = ladder(4);
    let single = monolithic(&base);
    let mono = monolithic_meta(&base);
    for w in [2usize, 3, 4] {
        let win = windowed(&base, &WindowOptions::new(w));
        assert_eq!(win.stats.windows, w);
        // At tol = 0 the trajectory is bitwise monolithic, so only the
        // cross-window sensitivity fold can differ (summation order).
        for (s, (a, b)) in win.meta.states.iter().zip(&mono.states).enumerate() {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "W={w} state mismatch at step {s}");
            }
        }
        for (i, row) in single.sensitivities.values.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let a = win.sensitivities[i][j];
                let scale = a.abs().max(v.abs()).max(1e-30);
                assert!(
                    (a - v).abs() / scale <= 1e-9,
                    "W={w} obj {i} param {j}: windowed {a:e} vs monolithic {v:e}"
                );
            }
        }
        for (i, &v) in single.objective_values.iter().enumerate() {
            assert_eq!(win.objective_values[i].to_bits(), v.to_bits());
        }
    }
}

#[test]
fn results_are_bit_identical_across_lane_counts() {
    let base = ladder(4);
    for w in [2usize, 4] {
        let reference = windowed(&base, &WindowOptions::new(w).with_lanes(1));
        for lanes in [2usize, 4] {
            let run = windowed(&base, &WindowOptions::new(w).with_lanes(lanes));
            for (i, row) in reference.sensitivities.iter().enumerate() {
                for (j, v) in row.iter().enumerate() {
                    assert_eq!(
                        run.sensitivities[i][j].to_bits(),
                        v.to_bits(),
                        "W={w} lanes={lanes} obj {i} param {j} differs from serial lanes"
                    );
                }
            }
            assert_eq!(
                run.stats.forward_iterations,
                reference.stats.forward_iterations
            );
            assert_eq!(
                run.stats.adjoint_iterations,
                reference.stats.adjoint_iterations
            );
        }
    }
}

/// Convergence telemetry: interface jumps decrease monotonically and hit
/// exactly 0.0 at `tol = 0` (the bitwise-stability cascade), and every
/// window seals a non-empty compressed tensor pair.
#[test]
fn window_stats_record_a_monotone_convergence_trace() {
    let base = ladder(4);
    let win = windowed(&base, &WindowOptions::new(4));
    let s = &win.stats;
    assert_eq!(s.windows, 4);
    assert_eq!(s.steps, 20);
    assert!(s.forward_iterations >= 2, "W=4 needs at least 2 sweeps");
    assert!(s.forward_iterations <= 5, "exact cascade is ≤ W+1 sweeps");
    assert_eq!(s.forward_jumps.len(), s.forward_iterations);
    for pair in s.forward_jumps.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "forward jumps must be non-increasing: {:?}",
            s.forward_jumps
        );
    }
    assert_eq!(*s.forward_jumps.last().unwrap(), 0.0, "tol=0 ends exact");
    assert_eq!(s.adjoint_jumps.len(), s.adjoint_iterations);
    assert_eq!(*s.adjoint_jumps.last().unwrap(), 0.0);
    assert_eq!(s.window_bytes.len(), 4);
    assert!(s.window_bytes.iter().all(|&b| b > 0));
    assert!(s.fine_runs >= 4, "every window integrates at least once");
    assert!(s.adjoint_runs >= 3);
    assert!(s.periodic_residual.is_none());
}

/// The dirty-flag optimization: converged windows are not re-integrated.
/// The exact cascade settles window k after k correction sweeps, so the
/// total fine-run count is far below `iterations × W`.
#[test]
fn clean_windows_are_not_reintegrated() {
    let base = ladder(4);
    let win = windowed(&base, &WindowOptions::new(4));
    let s = &win.stats;
    assert!(
        s.fine_runs < s.forward_iterations * s.windows,
        "{} fine runs over {} iterations × {} windows means no skipping",
        s.fine_runs,
        s.forward_iterations,
        s.windows
    );
}

#[test]
fn periodic_mode_finds_the_steady_cycle() {
    // DC drive: the periodic steady state equals the long-run transient
    // limit, so windowed-periodic sensitivities should approximate the
    // monolithic ones on the same horizon once the wrap residual is small.
    let base = ladder(4);
    let (tran, objectives, params) = setup(&base);
    let mut ckt = base.clone();
    let opts = WindowOptions {
        periodic: true,
        tol: 1e-12,
        ..WindowOptions::new(4)
    };
    let run = run_windowed(&mut ckt, &tran, &opts, &objectives, &params).unwrap();
    let residual = run
        .stats
        .periodic_residual
        .expect("periodic run records residual");
    assert!(residual <= 1e-12, "wrap residual {residual:e}");
    // x(0) = x(T) on the stitched trajectory, within tol.
    let first = run.meta.states.first().unwrap();
    let last = run.meta.states.last().unwrap();
    for (a, b) in first.iter().zip(last) {
        assert!((a - b).abs() <= 1e-9, "cycle not closed: {a:e} vs {b:e}");
    }
}

#[test]
fn periodic_without_tol_is_rejected() {
    let base = ladder(4);
    let (tran, objectives, params) = setup(&base);
    let mut ckt = base.clone();
    let opts = WindowOptions {
        periodic: true,
        ..WindowOptions::new(4)
    };
    assert!(matches!(
        run_windowed(&mut ckt, &tran, &opts, &objectives, &params),
        Err(WindowError::PeriodicNeedsTol)
    ));
}

#[test]
fn adaptive_grids_are_rejected() {
    let base = ladder(4);
    let (mut tran, objectives, params) = setup(&base);
    tran = tran.with_adaptive(8.0, 16.0);
    let mut ckt = base.clone();
    assert!(matches!(
        run_windowed(
            &mut ckt,
            &tran,
            &WindowOptions::new(4),
            &objectives,
            &params
        ),
        Err(WindowError::AdaptiveUnsupported)
    ));
}

/// `adjoint_tol` decouples reverse-pass convergence from `tol`: the two
/// jump metrics live in different units (state coupling vs adjoint
/// coupling), so benchmarks tune them independently. An infinite adjoint
/// tolerance accepts the first reverse sweep outright while the forward
/// iteration still runs its exact cascade.
#[test]
fn adjoint_tol_decouples_reverse_convergence() {
    let base = ladder(4);
    // One coarse substep makes the adjoint seeds genuinely approximate
    // (with more substeps they become bitwise exact on this linear deck,
    // and both runs would converge in one sweep).
    let exact = windowed(
        &base,
        &WindowOptions {
            coarse_substeps: 1,
            ..WindowOptions::new(4)
        },
    );
    let loose = windowed(
        &base,
        &WindowOptions {
            coarse_substeps: 1,
            adjoint_tol: Some(f64::INFINITY),
            ..WindowOptions::new(4)
        },
    );
    assert_eq!(
        loose.stats.forward_iterations,
        exact.stats.forward_iterations
    );
    assert_eq!(loose.stats.adjoint_iterations, 1);
    assert!(exact.stats.adjoint_iterations > 1);
    // The forward trajectory is still the exact cascade, so objective
    // values agree bitwise; only the adjoint seeds' accuracy limits the
    // sensitivities.
    for (a, b) in loose.objective_values.iter().zip(&exact.objective_values) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// An `AtStep` objective past the run is a structured error, not an
/// out-of-bounds index into the stitched trajectory.
#[test]
fn out_of_range_at_step_objective_is_rejected() {
    let base = ladder(4);
    let (tran, _, params) = setup(&base);
    let objectives = [Objective::AtStep {
        unknown: 0,
        step: tran.step_count() + 1,
    }];
    let err = run_windowed(
        &mut base.clone(),
        &tran,
        &WindowOptions::new(4),
        &objectives,
        &params,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            WindowError::Adjoint {
                source: AdjointError::StepOutOfRange { step: 21, max: 20 },
                ..
            }
        ),
        "{err:?}"
    );
}
