//! Sensitivity validation: adjoint vs direct vs finite differences, and
//! store equivalence (all four Jacobian stores must produce identical
//! sensitivities — MASC is lossless, so "identical" means bit-close).

use masc_adjoint::{
    adjoint_sensitivities, direct_sensitivities, finite_difference, run_adjoint, run_recorded,
    run_xyce_like, AdjointError, CompressedStore, ForwardRecord, Objective, RunError, StoreConfig,
    TensorLayout,
};
use masc_circuit::parser::parse_netlist;
use masc_circuit::transient::{transient, NullSink, TranOptions};
use masc_circuit::Circuit;
use masc_compress::MascConfig;
use masc_datasets::generators::rc_mesh;

/// RC lowpass driven by a ramped pulse: smooth, linear, analytically sane.
fn rc_netlist() -> &'static str {
    "V1 in 0 PULSE(0 5 0 2u 2u 50u 200u)\n\
     R1 in out 1k\n\
     C1 out 0 1n\n\
     .tran 100n 10u\n\
     .end"
}

/// A diode clipper: nonlinear static elements.
fn diode_netlist() -> &'static str {
    "V1 in 0 SIN(0 2 100k)\n\
     R1 in out 1k\n\
     D1 out 0 IS=1e-14 CJ0=10p\n\
     .tran 50n 10u\n\
     .end"
}

/// A BJT amplifier stage with diffusion capacitance.
fn bjt_netlist() -> &'static str {
    "VCC vcc 0 DC 5\n\
     VIN in 0 SIN(0.65 0.01 200k)\n\
     RB in b 10k\n\
     RC vcc c 2k\n\
     Q1 c b 0 IS=1e-16 BF=100 TF=1n\n\
     C1 c 0 1p\n\
     .tran 25n 5u\n\
     .end"
}

/// An NMOS inverter with gate caps.
fn mos_netlist() -> &'static str {
    "VDD vdd 0 DC 3.3\n\
     VIN in 0 PULSE(0 3.3 100n 50n 50n 400n 1u)\n\
     RL vdd out 10k\n\
     M1 out in 0 NMOS KP=2e-4 VT0=0.7 CGS=10f CGD=5f\n\
     C1 out 0 20f\n\
     .tran 5n 1u\n\
     .end"
}

/// A diode-connected NMOS (drain and gate on one node, as in every current
/// mirror) under a resistor pull-up: the device lists node `out` twice.
fn diode_connected_mos_netlist() -> &'static str {
    "VDD vdd 0 PULSE(1.5 3.3 100n 50n 50n 400n 1u)\n\
     RL vdd out 10k\n\
     M1 out out 0 NMOS KP=2e-4 VT0=0.7 CGS=10f CGD=5f\n\
     C1 out 0 20f\n\
     .tran 5n 1u\n\
     .end"
}

struct Case {
    netlist: &'static str,
    observe: &'static str,
    params: &'static [&'static str],
    fd_tolerance: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            netlist: rc_netlist(),
            observe: "out",
            params: &["R1.r", "C1.c", "V1.scale"],
            fd_tolerance: 2e-3,
        },
        Case {
            netlist: diode_netlist(),
            observe: "out",
            params: &["R1.r", "D1.is", "D1.cj0"],
            fd_tolerance: 5e-3,
        },
        Case {
            netlist: bjt_netlist(),
            observe: "c",
            params: &["RC.r", "Q1.bf", "Q1.tf"],
            fd_tolerance: 1e-2,
        },
        Case {
            netlist: mos_netlist(),
            observe: "out",
            params: &["RL.r", "M1.kp", "M1.vt0"],
            fd_tolerance: 1e-2,
        },
        Case {
            netlist: diode_connected_mos_netlist(),
            observe: "out",
            params: &["M1.kp", "M1.vt0", "M1.cgs", "RL.r"],
            fd_tolerance: 1e-2,
        },
    ]
}

fn setup(
    case: &Case,
) -> (
    Circuit,
    TranOptions,
    Vec<Objective>,
    Vec<masc_circuit::ParamRef>,
) {
    let parsed = parse_netlist(case.netlist).expect("valid netlist");
    let tran = parsed.tran.clone().expect(".tran present");
    let unknown = parsed
        .circuit
        .find_node(case.observe)
        .expect("observed node")
        .unknown()
        .expect("not ground");
    let objectives = vec![
        Objective::FinalValue { unknown },
        Objective::Integral { unknown },
    ];
    let params = case
        .params
        .iter()
        .map(|p| parsed.circuit.find_param(p).expect("param exists"))
        .collect();
    (parsed.circuit, tran, objectives, params)
}

#[test]
fn adjoint_matches_direct_method() {
    for case in cases() {
        let (mut circuit, tran, objectives, params) = setup(&case);
        let mut system = circuit.elaborate().unwrap();
        let mut record =
            ForwardRecord::new(TensorLayout::of(&system), &StoreConfig::RawMemory).unwrap();
        transient(&circuit, &mut system, &tran, &mut record).unwrap();
        let (meta, mut reader) = record.into_parts().unwrap();
        let adj = adjoint_sensitivities(
            &circuit,
            &mut system,
            &meta,
            &mut reader,
            &objectives,
            &params,
        )
        .unwrap();
        let dir = direct_sensitivities(&circuit, &mut system, &meta, &objectives, &params).unwrap();
        for (i, (a_row, d_row)) in adj.values.iter().zip(&dir).enumerate() {
            for (j, (a, d)) in a_row.iter().zip(d_row).enumerate() {
                let scale = a.abs().max(d.abs()).max(1e-12);
                assert!(
                    (a - d).abs() / scale < 1e-6,
                    "{}: obj {i} param {j}: adjoint {a:e} vs direct {d:e}",
                    case.observe
                );
            }
        }
    }
}

#[test]
fn adjoint_matches_finite_differences() {
    for case in cases() {
        let (mut circuit, tran, objectives, params) = setup(&case);
        let run = run_adjoint(
            &mut circuit,
            &tran,
            &StoreConfig::RawMemory,
            &objectives,
            &params,
        )
        .unwrap();
        for (i, objective) in objectives.iter().enumerate() {
            for (j, param) in params.iter().enumerate() {
                let a = run.sensitivities.values[i][j];
                // FD resolves dO/dp only when a relative perturbation of p
                // moves O by more than the Newton convergence noise
                // (~1e-9). Below that the central difference is noise —
                // skip (the adjoint-vs-direct test still covers those).
                let p0 = circuit.param_value(param).abs();
                if (a * p0).abs() < 1e-6 {
                    continue;
                }
                let fd = finite_difference(&circuit, &tran, objective, param, 1e-5).unwrap();
                let scale = a.abs().max(fd.abs());
                if scale < 1e-15 {
                    continue; // both zero
                }
                assert!(
                    (a - fd).abs() / scale < case.fd_tolerance,
                    "{} obj {i} param {}: adjoint {a:e} vs fd {fd:e}",
                    case.observe,
                    param.path,
                );
            }
        }
    }
}

#[test]
fn all_stores_agree_exactly() {
    for case in cases() {
        let (circuit, tran, objectives, params) = setup(&case);
        let stores = [
            StoreConfig::Recompute,
            StoreConfig::RawMemory,
            StoreConfig::Compressed(MascConfig::default()),
            StoreConfig::Compressed(MascConfig::default().with_markov(false)),
        ];
        let mut results = Vec::new();
        for store in &stores {
            let mut circuit = circuit.clone();
            let run = run_adjoint(&mut circuit, &tran, store, &objectives, &params).unwrap();
            results.push(run.sensitivities.values);
        }
        let baseline = &results[0];
        for (si, result) in results.iter().enumerate().skip(1) {
            for (i, (b_row, r_row)) in baseline.iter().zip(result).enumerate() {
                for (j, (b, r)) in b_row.iter().zip(r_row).enumerate() {
                    // Stored-matrix paths reuse the *identical* floats the
                    // forward pass produced (MASC is lossless), so results
                    // are bit-identical across stores. The only wiggle room
                    // is none at all.
                    assert_eq!(
                        b.to_bits(),
                        r.to_bits(),
                        "store {si} differs at obj {i} param {j}: {b:e} vs {r:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn compressed_store_is_smaller_than_raw() {
    let (mut circuit, tran, objectives, params) = setup(&cases()[0]);
    let raw = run_adjoint(
        &mut circuit.clone(),
        &tran,
        &StoreConfig::RawMemory,
        &objectives,
        &params,
    )
    .unwrap();
    let masc = run_adjoint(
        &mut circuit,
        &tran,
        &StoreConfig::Compressed(MascConfig::default()),
        &objectives,
        &params,
    )
    .unwrap();
    // Tiny circuit: per-matrix headers blunt the ratio, but compression
    // must still win. (Realistic ratios are covered by the bench harness.)
    assert!(
        masc.store_metrics.peak_resident_bytes < raw.store_metrics.peak_resident_bytes,
        "compressed {} vs raw {}",
        masc.store_metrics.peak_resident_bytes,
        raw.store_metrics.peak_resident_bytes
    );
    assert!(
        masc.store_metrics.bytes_written < raw.store_metrics.bytes_written,
        "compressed payload {} vs raw payload {}",
        masc.store_metrics.bytes_written,
        raw.store_metrics.bytes_written
    );
}

#[test]
fn controlled_source_sensitivities_match_fd() {
    // A VCCS-loaded divider into a VCVS buffer: gm and gain sensitivities
    // have clean analytic structure and exercise the G/E stamps end to end.
    let parsed = parse_netlist(
        "V1 in 0 SIN(1 0.2 500k)\n\
         R1 in mid 1k\n\
         R2 mid 0 1k\n\
         G1 mid 0 in 0 0.4m\n\
         E1 out 0 mid 0 4\n\
         RL out 0 10k\n\
         C1 mid 0 100p\n\
         .tran 100n 10u\n\
         .end",
    )
    .expect("valid netlist");
    let mut circuit = parsed.circuit;
    let tran = parsed.tran.unwrap();
    let out = circuit.find_node("out").unwrap().unknown().unwrap();
    let objectives = [Objective::Integral { unknown: out }];
    let params = vec![
        circuit.find_param("G1.gm").unwrap(),
        circuit.find_param("E1.gain").unwrap(),
        circuit.find_param("R2.r").unwrap(),
    ];
    let run = run_adjoint(
        &mut circuit,
        &tran,
        &StoreConfig::Compressed(MascConfig::default()),
        &objectives,
        &params,
    )
    .unwrap();
    for (j, param) in params.iter().enumerate() {
        let a = run.sensitivities.values[0][j];
        let fd = finite_difference(&circuit, &tran, &objectives[0], param, 1e-5).unwrap();
        let scale = a.abs().max(fd.abs()).max(1e-15);
        assert!(
            (a - fd).abs() / scale < 5e-3,
            "{}: adjoint {a:e} vs fd {fd:e}",
            param.path
        );
    }
    // out = gain·v(mid), so dO/dgain = ∫v(mid)dt > 0 at this bias
    // (v(mid) ≈ 0.5 − gm·500·v(in) ≈ 0.3 V).
    assert!(
        run.sensitivities.values[0][1] > 1e-7,
        "d∫v(out)/dgain = {}",
        run.sensitivities.values[0][1]
    );
}

#[test]
fn multiple_objectives_one_pass() {
    let parsed = parse_netlist(rc_netlist()).unwrap();
    let mut circuit = parsed.circuit;
    let tran = parsed.tran.unwrap();
    let out = circuit.find_node("out").unwrap().unknown().unwrap();
    let vin = circuit.find_node("in").unwrap().unknown().unwrap();
    let objectives = vec![
        Objective::FinalValue { unknown: out },
        Objective::Integral { unknown: out },
        Objective::IntegralSquared { unknown: out },
        Objective::AtStep {
            unknown: vin,
            step: 10,
        },
    ];
    let params = vec![circuit.find_param("R1.r").unwrap()];
    let run = run_adjoint(
        &mut circuit,
        &tran,
        &StoreConfig::RawMemory,
        &objectives,
        &params,
    )
    .unwrap();
    assert_eq!(run.sensitivities.values.len(), 4);
    // The input node does not depend on R1 (ideal source): row 3 ≈ 0.
    assert!(run.sensitivities.values[3][0].abs() < 1e-12);
    // But the output objectives do.
    assert!(run.sensitivities.values[1][0].abs() > 1e-12);

    // One step past the run is a structured error, not an index panic.
    let max = tran.step_count();
    let late = [Objective::AtStep {
        unknown: vin,
        step: max + 1,
    }];
    let err = run_adjoint(&mut circuit, &tran, &StoreConfig::RawMemory, &late, &params);
    match err {
        Err(RunError::Adjoint(AdjointError::StepOutOfRange { step, max: m })) => {
            assert_eq!((step, m), (max + 1, max));
        }
        other => panic!("expected StepOutOfRange, got {other:?}"),
    }
}

/// A grid whose step count saturates at `usize::MAX` (`parse_netlist`
/// refuses such a `.tran` card, so it is built directly) still gets a
/// structured error for an objective past its end, before any step runs.
#[test]
fn saturated_step_count_rejects_a_late_objective() {
    let mut circuit = parse_netlist(rc_netlist()).unwrap().circuit;
    let tran = TranOptions::new(1.0, 1e-300);
    assert_eq!(tran.step_count(), usize::MAX);
    let out = circuit.find_node("out").unwrap().unknown().unwrap();
    let late = [Objective::AtStep {
        unknown: out,
        step: usize::MAX,
    }];
    let params = [circuit.find_param("R1.r").unwrap()];
    let err = run_adjoint(&mut circuit, &tran, &StoreConfig::RawMemory, &late, &params);
    match err {
        Err(RunError::Adjoint(AdjointError::StepOutOfRange { step, max })) => {
            assert_eq!((step, max), (usize::MAX, usize::MAX - 1));
        }
        other => panic!("expected StepOutOfRange, got {other:?}"),
    }
}

/// The drivers read objective values off the trajectory their record
/// keeps; they must be, bit for bit, the values `transient`'s own
/// collected trajectory gives — on a fixed grid and an adaptive one, with
/// the same step and Newton counts. Their store metrics are the drained
/// reader's: the sealed pair's compressed bytes, and none for Xyce-like.
#[test]
fn objective_values_are_those_of_the_collected_trajectory() {
    let parsed = parse_netlist(diode_netlist()).unwrap();
    let fixed = parsed.tran.clone().unwrap();
    for tran in [fixed.clone(), fixed.with_adaptive(4.0, 64.0)] {
        let mut circuit = parsed.circuit.clone();
        let out = circuit.find_node("out").unwrap().unknown().unwrap();
        let objectives = [
            Objective::Integral { unknown: out },
            Objective::IntegralSquared { unknown: out },
            Objective::AtStep {
                unknown: out,
                step: 10,
            },
        ];
        let params = [circuit.find_param("D1.is").unwrap()];

        let mut system = circuit.elaborate().unwrap();
        let r = transient(&circuit, &mut system, &tran, &mut NullSink).unwrap();
        let expected: Vec<u64> = objectives
            .iter()
            .map(|o| o.value(&r.states, &r.steps).to_bits())
            .collect();

        let adjoint = run_adjoint(
            &mut circuit,
            &tran,
            &StoreConfig::Compressed(MascConfig::default()),
            &objectives,
            &params,
        )
        .unwrap();
        let xyce = run_xyce_like(&mut circuit, &tran, &objectives, &params).unwrap();
        for (name, run) in [("run_adjoint", &adjoint), ("run_xyce_like", &xyce)] {
            let bits: Vec<u64> = run.objective_values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits,
                expected,
                "{name} objective values, adaptive = {}",
                tran.adaptive.is_some()
            );
            assert_eq!(run.tran_stats.steps, r.stats.steps, "{name} steps");
            assert_eq!(
                run.tran_stats.newton_iterations, r.stats.newton_iterations,
                "{name} Newton iterations"
            );
        }

        let mut system = circuit.elaborate().unwrap();
        let layout = TensorLayout::of(&system);
        let mut store = CompressedStore::new(
            layout.g_pattern.clone(),
            layout.c_pattern.clone(),
            MascConfig::default(),
        );
        let slot = store.capture();
        let record = ForwardRecord::with_store(layout, Box::new(store));
        run_recorded(&circuit, &mut system, &tran, record, &objectives, &params).unwrap();
        let (g, c) = slot.lock().unwrap().take().expect("finish fills the slot");
        let sealed = (g.compressed_bytes() + c.compressed_bytes()) as u64;
        assert_eq!(adjoint.store_metrics.bytes_written, sealed);
        assert_eq!(xyce.store_metrics.bytes_written, 0);
    }
}

/// Once the forward run has chosen an adaptive grid, the grid is data: the
/// adjoint and the direct method over the same `RunMeta` differentiate the
/// same discrete system, so they may differ only by rounding. The grids
/// here both repeat and change their step; on the linear mesh that makes
/// every LU workspace on both sides alternate between reusing its held
/// factors and refactoring.
#[test]
fn adaptive_grid_adjoint_matches_direct_method() {
    let diode = parse_netlist(diode_netlist()).unwrap();
    let diode_tran = diode.tran.clone().unwrap().with_adaptive(4.0, 64.0);
    let mesh = rc_mesh(4, 4, 2e-9);
    let mesh_tran = TranOptions::new(2e-9, 2e-11).with_adaptive(8.0, 64.0);
    let decks = [
        (
            "diode",
            diode.circuit,
            diode_tran,
            "out",
            &["R1.r", "D1.is", "D1.cj0"][..],
        ),
        (
            "rc_mesh(4, 4)",
            mesh,
            mesh_tran,
            "g3_3",
            &["Rin.r", "Rx1_1.r", "C3_3.c", "C0_0.c"][..],
        ),
    ];
    for (name, mut circuit, tran, observe, param_names) in decks {
        let unknown = circuit.find_node(observe).unwrap().unknown().unwrap();
        let objectives = [
            Objective::FinalValue { unknown },
            Objective::Integral { unknown },
            Objective::IntegralSquared { unknown },
        ];
        let params: Vec<_> = param_names
            .iter()
            .map(|p| circuit.find_param(p).unwrap())
            .collect();
        let mut system = circuit.elaborate().unwrap();
        let record = ForwardRecord::new(
            TensorLayout::of(&system),
            &StoreConfig::Compressed(MascConfig::default()),
        )
        .unwrap();
        let (run, meta) =
            run_recorded(&circuit, &mut system, &tran, record, &objectives, &params).unwrap();
        let hs = &meta.hs[1..];
        assert!(
            hs.windows(2).any(|w| w[0] != w[1]) && hs.windows(2).any(|w| w[0] == w[1]),
            "{name}: the adaptive grid must both change and repeat its step"
        );
        let direct =
            direct_sensitivities(&circuit, &mut system, &meta, &objectives, &params).unwrap();
        // Rounding only: the two methods sum the same terms in different
        // orders. Observed ≤ 2e-15 relative on every entry; the bound is
        // 1e-12 relative per entry (about 4 500 ulp).
        for (i, (a_row, d_row)) in run.sensitivities.values.iter().zip(&direct).enumerate() {
            for (j, (a, d)) in a_row.iter().zip(d_row).enumerate() {
                let scale = a.abs().max(d.abs()).max(f64::MIN_POSITIVE);
                assert!(
                    (a - d).abs() / scale <= 1e-12,
                    "{name}: obj {i} param {j}: adjoint {a:e} vs direct {d:e} on the adaptive grid"
                );
            }
        }
    }
}

#[test]
fn recompute_reports_recompute_time() {
    let (mut circuit, tran, objectives, params) = setup(&cases()[0]);
    let run = run_adjoint(
        &mut circuit,
        &tran,
        &StoreConfig::Recompute,
        &objectives,
        &params,
    )
    .unwrap();
    assert!(run.sensitivities.stats.recompute_time.as_nanos() > 0);
    assert_eq!(run.store_metrics.peak_resident_bytes, 0);
    assert_eq!(run.store_metrics.bytes_written, 0);
}
