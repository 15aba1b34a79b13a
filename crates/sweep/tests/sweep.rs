//! End-to-end sweep validation: per-instance sensitivities vs finite
//! differences and vs independent single runs (bit-exact on
//! current-source decks), worker-count invariance and cross-instance byte
//! economy of the stored bytes, and plan validation errors.

use masc_adjoint::{fd, run_adjoint, AdjointError, Objective, StoreConfig};
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Diode, Resistor};
use masc_circuit::transient::TranOptions;
use masc_circuit::waveform::Waveform;
use masc_circuit::{Circuit, ParamRef};
use masc_sweep::{run_sweep, SweepError, SweepPlan};

/// A current-source-driven RC ladder. I-source MNA systems have no branch
/// unknowns and a diagonally dominant `G`, so threshold partial pivoting
/// keeps the structural diagonal for every parameter variant — which is
/// what makes sweep results bit-comparable to independent runs even when
/// instances share one symbolic analysis.
fn ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..stages)
        .map(|s| ckt.node(&format!("n{s}")).unknown())
        .collect();
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

fn plan_for(base: &Circuit, n_variants: usize, workers: usize) -> SweepPlan {
    let tran = TranOptions::new(1e-3, 5e-5);
    let last = base.find_node("n3").unwrap().unknown().unwrap();
    let first = base.find_node("n0").unwrap().unknown().unwrap();
    let objectives = vec![
        Objective::FinalValue { unknown: last },
        Objective::Integral { unknown: first },
    ];
    let params = vec![
        base.find_param("R0.r").unwrap(),
        base.find_param("C1.c").unwrap(),
    ];
    let r0 = base.find_param("R0.r").unwrap();
    let c2 = base.find_param("C2.c").unwrap();
    let mut plan = SweepPlan::new(tran, objectives, params).with_workers(workers);
    for k in 0..n_variants {
        plan.push_variant(vec![
            (r0.clone(), 1000.0 * (1.0 + 0.05 * k as f64)),
            (c2.clone(), 1e-6 * (1.0 + 0.02 * k as f64)),
        ]);
    }
    plan
}

/// A sine-driven diode RC ladder (the section every instance shares) next
/// to one isolated DC-driven RC stage carrying the swept resistor `R0`.
/// The diodes make `G` and `C` change every step, so instance 0's temporal
/// chain pays real entropy, while adjacent instances differ only in `R0`'s
/// stamp — the regime cross-instance prediction exists for.
fn diode_ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..stages)
        .map(|s| ckt.node(&format!("d{s}")).unknown())
        .collect();
    ckt.add(Device::CurrentSource(CurrentSource::new(
        "IL",
        None,
        nodes[0],
        Waveform::Sin {
            vo: 1e-3,
            va: 8e-4,
            freq: 200.0,
            td: 0.0,
            theta: 0.0,
        },
    )))
    .unwrap();
    for s in 0..stages {
        ckt.add(Device::Resistor(Resistor::new(
            format!("RL{s}"),
            nodes[s],
            None,
            1000.0,
        )))
        .unwrap();
        ckt.add(Device::Capacitor(Capacitor::new(
            format!("CL{s}"),
            nodes[s],
            None,
            1e-6,
        )))
        .unwrap();
        ckt.add(Device::Diode(
            Diode::new(format!("DL{s}"), nodes[s], None).with_junction_cap(1e-9),
        ))
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
    let probe = ckt.node("p0").unknown();
    ckt.add(Device::CurrentSource(CurrentSource::new(
        "IP",
        None,
        probe,
        Waveform::Dc(1e-3),
    )))
    .unwrap();
    ckt.add(Device::Resistor(Resistor::new("R0", probe, None, 1000.0)))
        .unwrap();
    ckt.add(Device::Capacitor(Capacitor::new("C0", probe, None, 1e-6)))
        .unwrap();
    ckt
}

/// `n_variants` instances of [`diode_ladder`] stepping `R0` by 5 % each.
fn diode_plan(base: &Circuit, steps: usize, n_variants: usize) -> SweepPlan {
    let dt = 5e-5;
    let tran = TranOptions::new(dt * steps as f64, dt);
    let probe = base.find_node("p0").unwrap().unknown().unwrap();
    let objectives = vec![
        Objective::FinalValue { unknown: probe },
        Objective::Integral { unknown: probe },
    ];
    let r0 = base.find_param("R0.r").unwrap();
    let c0 = base.find_param("C0.c").unwrap();
    let mut plan = SweepPlan::new(tran, objectives, vec![r0.clone(), c0]);
    for k in 0..n_variants {
        plan.push_variant(vec![(r0.clone(), 1000.0 * (1.0 + 0.05 * k as f64))]);
    }
    plan
}

fn apply_variant(base: &Circuit, overrides: &[(ParamRef, f64)]) -> Circuit {
    let mut ckt = base.clone();
    for (p, v) in overrides {
        ckt.set_param_value(p, *v);
    }
    ckt
}

#[test]
fn sweep_matches_finite_difference_per_instance() {
    let base = ladder(4);
    let plan = plan_for(&base, 8, 2);
    let result = run_sweep(&base, &plan).unwrap();
    assert_eq!(result.sensitivities.len(), 8);
    assert_eq!(result.stats.steps, 20);
    for (k, variant) in plan.variants.iter().enumerate() {
        let ckt = apply_variant(&base, variant);
        for (i, objective) in plan.objectives.iter().enumerate() {
            for (j, param) in plan.params.iter().enumerate() {
                let a = result.sensitivities[k].values[i][j];
                let f = fd::finite_difference(&ckt, &plan.tran, objective, param, 1e-5).unwrap();
                let scale = a.abs().max(f.abs());
                assert!(scale > 1e-15, "instance {k} obj {i} param {j}: both ~0");
                assert!(
                    (a - f).abs() / scale <= 1e-6,
                    "instance {k} obj {i} param {}: adjoint {a:e} vs fd {f:e}",
                    param.path,
                );
            }
        }
    }
}

#[test]
fn sweep_is_bit_identical_to_independent_single_runs() {
    let base = ladder(4);
    let plan = plan_for(&base, 5, 3);
    let result = run_sweep(&base, &plan).unwrap();
    for (k, variant) in plan.variants.iter().enumerate() {
        let mut ckt = apply_variant(&base, variant);
        let single = run_adjoint(
            &mut ckt,
            &plan.tran,
            &StoreConfig::RawMemory,
            &plan.objectives,
            &plan.params,
        )
        .unwrap();
        for (i, row) in single.sensitivities.values.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let s = result.sensitivities[k].values[i][j];
                assert_eq!(
                    s.to_bits(),
                    v.to_bits(),
                    "instance {k} obj {i} param {j}: sweep {s:e} vs single {v:e}"
                );
            }
        }
        for (i, v) in single.objective_values.iter().enumerate() {
            assert_eq!(result.objective_values[k][i].to_bits(), v.to_bits());
        }
    }
}

#[test]
fn super_tensor_is_invariant_to_worker_count() {
    let base = ladder(4);
    let serial = run_sweep(&base, &plan_for(&base, 8, 1)).unwrap();
    let threaded = run_sweep(&base, &plan_for(&base, 8, 4)).unwrap();
    assert_eq!(
        serial.stats.super_tensor_bytes, threaded.stats.super_tensor_bytes,
        "stored bytes must not depend on the worker count"
    );
    for (a, b) in serial.sensitivities.iter().zip(&threaded.sensitivities) {
        for (ra, rb) in a.values.iter().zip(&b.values) {
            for (va, vb) in ra.iter().zip(rb) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}

#[test]
fn super_tensor_parses_and_compresses() {
    let base = ladder(4);
    let plan = plan_for(&base, 8, 2);
    let result = run_sweep(&base, &plan).unwrap();
    assert_eq!(result.stats.instances, 8);
    assert_eq!(result.stats.steps, 20);
    assert!(
        result.stats.super_tensor_bytes < result.stats.raw_bytes,
        "super-tensor ({}) should beat raw storage ({})",
        result.stats.super_tensor_bytes,
        result.stats.raw_bytes
    );

    // Cross-instance economy of scale, on bytes only (deterministic, no
    // timing): every instance past the first is encoded against its
    // neighbour at the same step, so the per-instance cost falls with N
    // and a batch beats N independent temporal chains.
    let base = diode_ladder(8);
    let sizes = [1usize, 2, 4, 8];
    let bytes: Vec<usize> = sizes
        .iter()
        .map(|&n| {
            run_sweep(&base, &diode_plan(&base, 30, n))
                .unwrap()
                .stats
                .super_tensor_bytes
        })
        .collect();
    let per_instance: Vec<f64> = bytes
        .iter()
        .zip(sizes)
        .map(|(&b, n)| b as f64 / n as f64)
        .collect();
    for pair in per_instance.windows(2) {
        assert!(
            pair[1] < pair[0],
            "bytes per instance must fall strictly with N: {per_instance:?}"
        );
    }
    assert!(
        per_instance[3] < 0.6 * bytes[0] as f64,
        "N=8 per-instance bytes {} not under 0.6x the N=1 bytes {}",
        per_instance[3],
        bytes[0]
    );
    for (&b, n) in bytes.iter().zip(sizes).skip(1) {
        assert!(
            b < n * bytes[0],
            "N={n}: batch {b} B not under {n} independent chains ({} B)",
            n * bytes[0]
        );
    }
}

/// The degenerate N=1 sweep is a plain single run in every observable:
/// it stores exactly the bytes of `run_adjoint` over the same compressed
/// store (no cross-instance block, no framing), and its
/// sensitivities/objective values are bit-identical to that run.
#[test]
fn single_variant_sweep_is_bit_identical_and_cross_free() {
    let base = ladder(4);
    let plan = plan_for(&base, 1, 1);
    let result = run_sweep(&base, &plan).unwrap();
    assert_eq!(result.sensitivities.len(), 1);

    let mut ckt = apply_variant(&base, &plan.variants[0]);
    let single = run_adjoint(
        &mut ckt,
        &plan.tran,
        &StoreConfig::Compressed(plan.masc.clone()),
        &plan.objectives,
        &plan.params,
    )
    .unwrap();
    for (i, row) in single.sensitivities.values.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            assert_eq!(
                result.sensitivities[0].values[i][j].to_bits(),
                v.to_bits(),
                "obj {i} param {j}: sweep vs single run"
            );
        }
    }
    for (i, v) in single.objective_values.iter().enumerate() {
        assert_eq!(result.objective_values[0][i].to_bits(), v.to_bits());
    }
    assert_eq!(
        result.stats.super_tensor_bytes as u64, single.store_metrics.bytes_written,
        "an N=1 sweep must store exactly the single run's compressed bytes"
    );
}

#[test]
fn plan_validation_errors() {
    let base = ladder(4);
    let empty = plan_for(&base, 0, 1);
    assert!(matches!(
        run_sweep(&base, &empty),
        Err(SweepError::EmptyPlan)
    ));

    let mut adaptive = plan_for(&base, 2, 1);
    adaptive.tran = TranOptions::new(1e-3, 5e-5).with_adaptive(8.0, 16.0);
    assert!(matches!(
        run_sweep(&base, &adaptive),
        Err(SweepError::AdaptiveUnsupported)
    ));

    let mut bogus = plan_for(&base, 2, 1);
    let mut p = bogus.params[0].clone();
    p.device = 999;
    p.path = "R999.r".into();
    bogus.params.push(p);
    assert!(matches!(
        run_sweep(&base, &bogus),
        Err(SweepError::InvalidParam { .. })
    ));

    // An `AtStep` objective past the shared grid is a structured error,
    // not an out-of-bounds index into the recorded states.
    let mut late = plan_for(&base, 2, 1);
    let step = late.tran.step_count() + 1;
    late.objectives.push(Objective::AtStep { unknown: 0, step });
    match run_sweep(&base, &late) {
        Err(SweepError::Adjoint {
            source: AdjointError::StepOutOfRange { step: s, max },
            ..
        }) => assert_eq!((s, max), (step, step - 1)),
        other => panic!("expected StepOutOfRange, got {other:?}"),
    }
}

/// `SweepStats::serial_time` telemetry is coherent and monotone in N: the
/// serial sections (compression, sealing, the decode chain) grow with the
/// instance count and are strictly positive whenever work was done. Wall-clock noise is damped by taking the minimum over repeats —
/// the standard floor estimator for "how fast can this section go".
#[test]
fn serial_time_is_monotone_in_instance_count() {
    let base = ladder(4);
    let min_serial = |n_variants: usize| -> std::time::Duration {
        (0..5)
            .map(|_| {
                let result = run_sweep(&base, &plan_for(&base, n_variants, 1)).unwrap();
                let s = result.stats;
                assert_eq!(s.instances, n_variants);
                assert!(
                    s.serial_time > std::time::Duration::ZERO,
                    "N={n_variants}: compression/decode took measurably no time"
                );
                s.serial_time
            })
            .min()
            .unwrap()
    };
    let small = min_serial(1);
    let large = min_serial(8);
    // 8× the instances means 8× the per-step compression and decode work;
    // demand a 2× floor so the pin is insensitive to scheduling noise.
    assert!(
        large >= small * 2,
        "serial_time should grow with N: N=1 min {small:?} vs N=8 min {large:?}"
    );
}
