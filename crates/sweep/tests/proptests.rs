//! Property pin for degenerate sweep plans (ISSUE 8 satellite): across
//! randomized parameter values and step counts, a 1-variant sweep must be
//! bit-identical to a plain `run_adjoint` over the same compressed store,
//! and a 0-variant plan must fail with the structured `EmptyPlan` error.
//!
//! Failures replay with `MASC_PROP_REPRO` (masc-testkit seed replay).

use masc_adjoint::{run_adjoint, Objective, StoreConfig};
use masc_circuit::devices::{Capacitor, CurrentSource, Device, Resistor};
use masc_circuit::transient::TranOptions;
use masc_circuit::waveform::Waveform;
use masc_circuit::Circuit;
use masc_sweep::{run_sweep, SweepError, SweepPlan};
use masc_testkit::gen;
use masc_testkit::{prop, prop_assert, prop_assert_eq};

/// A 3-stage current-source-driven RC ladder (no branch unknowns, so the
/// structural diagonal survives pivoting for every parameter variant —
/// the bit-comparability regime the sweep oracle also relies on).
fn ladder() -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..3)
        .map(|s| ckt.node(&format!("n{s}")).unknown())
        .collect();
    ckt.add(Device::CurrentSource(CurrentSource::new(
        "I1",
        None,
        nodes[0],
        Waveform::Dc(1e-3),
    )))
    .unwrap();
    for s in 0..3 {
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
        if s + 1 < 3 {
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

fn plan_for(base: &Circuit, r_scale: f64, c_scale: f64, steps: usize) -> SweepPlan {
    let dt = 5e-5;
    let tran = TranOptions::new(dt * steps as f64, dt);
    let out = base.find_node("n2").unwrap().unknown().unwrap();
    let objectives = vec![
        Objective::FinalValue { unknown: out },
        Objective::Integral { unknown: out },
    ];
    let r0 = base.find_param("R0.r").unwrap();
    let c1 = base.find_param("C1.c").unwrap();
    let mut plan = SweepPlan::new(tran, objectives, vec![r0.clone(), c1.clone()]);
    plan.push_variant(vec![(r0, 1000.0 * r_scale), (c1, 1e-6 * c_scale)]);
    plan
}

prop! {
    #![cases = 10]

    /// N=1 sweeps are plain single runs, to the bit, for arbitrary
    /// swept values and step counts.
    fn single_variant_sweep_matches_run_adjoint(
        (r_scale, c_scale, steps) in (
            gen::range_f64(0.25, 4.0),
            gen::range_f64(0.25, 4.0),
            gen::range_usize(6, 40),
        )
    ) {
        let base = ladder();
        let plan = plan_for(&base, r_scale, c_scale, steps);
        let sweep = run_sweep(&base, &plan).unwrap();
        prop_assert_eq!(sweep.sensitivities.len(), 1);

        let mut ckt = base.clone();
        for (p, v) in &plan.variants[0] {
            ckt.set_param_value(p, *v);
        }
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
                prop_assert_eq!(
                    sweep.sensitivities[0].values[i][j].to_bits(),
                    v.to_bits()
                );
            }
        }
        for (i, v) in single.objective_values.iter().enumerate() {
            prop_assert_eq!(sweep.objective_values[0][i].to_bits(), v.to_bits());
        }
    }

    /// N=0 plans are rejected with the structured error, for arbitrary
    /// (unused) generator draws.
    fn zero_variant_plan_is_structured_error(steps in gen::range_usize(6, 40)) {
        let base = ladder();
        let mut plan = plan_for(&base, 1.0, 1.0, steps);
        plan.variants.clear();
        let err = run_sweep(&base, &plan);
        prop_assert!(matches!(err, Err(SweepError::EmptyPlan)));
        // The rejection is a first-class error, not a panic: Display and
        // Error are implemented.
        let msg = SweepError::EmptyPlan.to_string();
        prop_assert!(!msg.is_empty());
    }
}
